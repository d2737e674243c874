"""Symbolic group words, conjugate-product certificates and their
synthesizers and verifier.

A ConjugateProduct over a named generator tau0 denotes a product
prod_i g_i tau0^{s_i} g_i^-1 with each conjugator g_i a word over named
elements of an Environment.  Certificates of this shape witness
membership in the normal closure of tau0; the synthesizer below emits
them for commutators, and `verify_certificate` replays them exactly.
`split_nontrivial_support` writes any nontrivial element as a product
of two elements with proper supports, with a two-conjugate certificate
for the first factor.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add
from typing import Sequence

from .backends import BackendId, proper_subcylinder
from .clopen import ClopenSet
from .decompose import decompose_small_support, displaced_set, separated_cylinder
from .elements import (GroupElement, commutator, compose, conjugate, identity,
                       image_of_clopen, involution_from_partial, inverse,
                       restrict, support)
from .encoding import (FORMAT_VERSION, encode_artifact, format_clopen, format_element,
                       parse_backend, parse_element)
from .errors import MalformedInput, PostconditionError, PreconditionError
from .transfers import commutator_transfer, full_group_transfer


@dataclass(frozen=True)
class GroupWord:
    """A word over named elements: tokens (name, +-1), read left to
    right in composition order (rightmost acts first)."""

    tokens: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for name, exp in self.tokens:
            if exp not in (1, -1):
                raise MalformedInput(f"word exponent must be +-1, got {exp}")
            if not name:
                raise MalformedInput("empty name in group word")

    @classmethod
    def gen(cls, name: str) -> "GroupWord":
        return cls(((name, 1),))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.tokens + other.tokens)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((n, -e) for n, e in reversed(self.tokens)))

    def names(self) -> set[str]:
        return {n for n, _ in self.tokens}

    def evaluate(self, env: "Environment") -> GroupElement:
        """Resolve every name in token order (an unresolved name raises
        even where it would cancel), reduce freely (x x^-1 -> 1, exact in
        any group), compress the reduced word by pairs (`_grammar`, the
        memo of `_pair_rules`), composing each repeated pair once, then
        compose the compressed word left to right, inverting each symbol
        at most once.  Symbols are numbered by first occurrence, so words
        of one shape over other names share one grammar."""
        values = {name: env.get(name) for name, _ in self.tokens}
        ids = {name: k for k, name in enumerate(values, 1)}
        reduced: list[int] = []
        for name, exp in self.tokens:
            if reduced and reduced[-1] == -exp * ids[name]:
                reduced.pop()
            else:
                reduced.append(exp * ids[name])
        if not reduced:
            return identity(env.backend)
        elems = [identity(env.backend), *values.values()]   # symbol k > 0 is elems[k]
        inverses: dict[int, GroupElement] = {}

        def value(symbol: int) -> GroupElement:
            if symbol > 0:
                return elems[symbol]
            if symbol not in inverses:
                inverses[symbol] = inverse(elems[-symbol])
            return inverses[symbol]

        rules, compressed = _grammar(tuple(reduced), len(elems))
        for x, y in rules:
            elems.append(compose(value(x), value(y)))
        return reduce(compose, map(value, compressed))


def _pair_rules(word: Sequence[int],
                fresh: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Re-Pair compression (Larsson and Moffat, 2000) of a freely reduced
    word over signed symbols, -s standing for s^-1.  While some adjacent
    pair occurs twice, the one with the most occurrences (the least pair
    on ties) becomes the next symbol from `fresh` on, and each
    occurrence is replaced by it; an occurrence of (y^-1, x^-1) counts as
    one of (x, y) and becomes the new symbol's inverse.  A linked list,
    pair -> occurrence sets and a max-heap recounted lazily keep this
    near-linear.  Returns the rules in order and the compressed word.

    A pair counts all its occurrences, overlapping ones too.  Only a pair
    (x, x) overlaps itself, in a run x x x, where its count is too high.
    At worst that makes a rule used once, which costs the one compose the
    plain fold would pay; the element is the same either way."""
    sym = list(word)
    nxt = [*range(1, len(sym)), -1]
    prv = list(range(-1, len(sym) - 1))
    occ: dict[tuple[int, int], set[int]] = defaultdict(set)

    def pair(i: int) -> tuple[int, int]:
        x, y = sym[i], sym[nxt[i]]
        return min((x, y), (-y, -x))

    for i in range(len(sym) - 1):
        occ[pair(i)].add(i)
    heap = [(-len(occ[p]), p) for p in occ]
    heapify(heap)
    rules: list[tuple[int, int]] = []
    while heap and heap[0][0] <= -2:
        stale, p = heappop(heap)
        now = len(occ.get(p, ()))
        if now != -stale:         # a lazy entry: push it back recounted
            heappush(heap, (-now, p))
            continue
        z = fresh + len(rules)
        rules.append(p)
        touched = set()
        for i in sorted(occ.pop(p)):
            if not sym[i]:
                continue          # taken by the overlapping occurrence before
            j = nxt[i]
            for k in (prv[i], j):
                if k != -1 and nxt[k] != -1:
                    occ.get(pair(k), set()).discard(k)
            sym[i], sym[j] = (z if (sym[i], sym[j]) == p else -z), 0
            nxt[i] = nxt[j]
            if nxt[i] != -1:
                prv[nxt[i]] = i
            for k in (prv[i], i):
                if k != -1 and nxt[k] != -1:
                    occ[pair(k)].add(k)
                    touched.add(pair(k))
        for q in touched:
            heappush(heap, (-len(occ.get(q, ())), q))
    compressed, i = [], (0 if sym else -1)
    while i != -1:
        compressed.append(sym[i])
        i = nxt[i]
    return tuple(rules), tuple(compressed)


# The grammars of the last GRAMMAR_MEMO_SIZE reduced words, keyed on the
# word (a tuple) and `fresh`: a certificate shape is compressed once per
# process, for the synthesizer's check, `verify` and every later
# certificate of that shape.  An entry holds its key, rules and
# compressed word, each at most as long as the word.
GRAMMAR_MEMO_SIZE = 64
_grammar = lru_cache(maxsize=GRAMMAR_MEMO_SIZE)(_pair_rules)


def commutator_word(a: str, b: str) -> GroupWord:
    return GroupWord(((a, 1), (b, 1), (a, -1), (b, -1)))


@dataclass(frozen=True)
class ConjugateFactor:
    conjugator: GroupWord
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise MalformedInput(f"factor sign must be +-1, got {self.sign}")


@dataclass(frozen=True)
class ConjugateProduct:
    """Product of conjugates g tau0^{+-1} g^-1 of a named generator."""

    generator: str
    factors: tuple[ConjugateFactor, ...]

    def __post_init__(self):
        if not self.generator:
            raise MalformedInput("conjugate product needs a generator name")

    def evaluate(self, env: "Environment") -> GroupElement:
        """Evaluate the flat word g1 tau0^s1 g1^-1 g2 ..., whose free
        reduction cancels the prefixes consecutive conjugators share."""
        env.get(self.generator)  # resolved even when there are no factors
        tokens: list[tuple[str, int]] = []
        for f in self.factors:
            tokens += (*f.conjugator.tokens, (self.generator, f.sign),
                       *f.conjugator.inverse().tokens)
        return GroupWord(tuple(tokens)).evaluate(env)


class Environment:
    """A finite name -> element map over a single backend."""

    def __init__(self, backend: BackendId, mapping: dict[str, GroupElement] | None = None):
        self.backend = backend
        self._map: dict[str, GroupElement] = {}
        self._counter = 0
        for name, elem in (mapping or {}).items():
            self.define(name, elem)

    def define(self, name: str, elem: GroupElement) -> str:
        if elem.backend != self.backend:
            raise MalformedInput(f"element for {name!r} is on backend "
                                 f"{elem.backend.tag}, expected {self.backend.tag}")
        if name in self._map and self._map[name] != elem:
            raise MalformedInput(f"name {name!r} already bound to a different element")
        self._map[name] = elem
        return name

    def fresh(self, prefix: str, elem: GroupElement) -> str:
        while f"{prefix}.{self._counter}" in self._map:
            self._counter += 1
        name = f"{prefix}.{self._counter}"
        self._counter += 1
        return self.define(name, elem)

    def get(self, name: str) -> GroupElement:
        try:
            return self._map[name]
        except KeyError:
            raise MalformedInput(f"unresolved name {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._map)

    def items(self):
        return sorted(self._map.items())


def expand_commutator_product(gs: list[str],
                              hs: list[str]) -> list[tuple[GroupWord, str, str]]:
    """[g1..gn, h1..hm] as the product, in list order, of the conjugates
    c [g_i, h_j] c^-1 of its atomic commutators, listed as (c, g_i, h_j);
    an exact identity in every environment, from the identities
    [g1 R, H] = g1 [R, H] g1^-1 * [g1, H] and
    [g, h1 R] = [g, h1] * h1 [g, R] h1^-1: the pair (g_i, h_j) comes with
    conjugator g1..g_{i-1} h1..h_{j-1}, i descending, then j ascending."""
    if not gs or not hs:
        raise MalformedInput("commutator expansion needs nonempty name lists")
    g_prefix = list(accumulate((((g, 1),) for g in gs[:-1]), add, initial=()))
    h_prefix = list(accumulate((((h, 1),) for h in hs[:-1]), add, initial=()))
    return [(GroupWord(g_prefix[i] + h_prefix[j]), gs[i], hs[j])
            for i in reversed(range(len(gs))) for j in range(len(hs))]


def _proper_support_factors(name: str, env: Environment,
                            epsilon: Fraction) -> list[tuple[str, ClopenSet]]:
    """Factor the named element so every factor has a proper clopen
    support bound of measure below epsilon for every invariant measure;
    returns (name, bound) pairs, factors registered in the environment."""
    elem = env.get(name)
    bound = support(elem)
    if not bound.is_whole() and env.backend.measure_below(bound, epsilon):
        return [(name, bound)]
    dec = decompose_small_support(elem, epsilon)
    return [(env.fresh(f"{name}.f", factor), cbound)
            for factor, cbound in zip(dec.factors, dec.bounds)]


@dataclass(frozen=True)
class SplitResult:
    tau1: GroupElement
    tau2: GroupElement
    certificate: ConjugateProduct
    environment: Environment
    trace: dict = field(compare=False)


def split_nontrivial_support(tau: GroupElement) -> SplitResult:
    """Split a nontrivial tau as tau1 * tau2 with both supports proper.

    tau1 is produced as a commutator conjugate of tau and comes with the
    two-conjugate certificate tau1 = (sigma gamma^-1) tau (sigma gamma^-1)^-1
    * gamma^-1 tau^-1 gamma over explicitly synthesized derived-subgroup
    elements sigma and gamma.
    """
    if tau.is_identity():
        raise PreconditionError("cannot split the identity")
    backend = tau.backend
    # shrink A until mu(A) < 1/16 and the three translates leave room for
    # the clearing region C; both hold for every [A.0^k] once they hold
    A = separated_cylinder(tau)
    tau_inv = inverse(tau)
    while True:
        tau_A = image_of_clopen(tau, A)
        tau_inv_A = image_of_clopen(tau_inv, A)
        if (backend.measure_below(A, Fraction(1, 16))
                and not (A | tau_A | tau_inv_A).is_whole()):
            break
        A = proper_subcylinder(A)
    # sigma0 moves tau(A) off A u tau(A), keeping free the cylinder of the
    # rest that the backend reserves, so C stays nonempty
    outside = (A | tau_A).complement()
    target = outside - backend.reserved_cylinder(outside - tau_inv_A)
    sigma0 = full_group_transfer(backend, tau_A, target).element
    B = image_of_clopen(sigma0, tau_A)
    C = (A | tau_A | tau_inv_A | B).complement()
    if C.is_empty():
        raise PostconditionError("no room left for the clearing transfer")
    A0 = proper_subcylinder(A)
    tau_A0 = image_of_clopen(tau, A0)
    sigma1 = involution_from_partial(
        backend, [p for w in A0.words for p in restrict(tau, w)], "sigma1 pieces")
    sigma2 = involution_from_partial(
        backend, [p for w in tau_A0.words for p in restrict(sigma0, w)], "sigma2 pieces")
    sigma = commutator(sigma2, sigma1)[0]
    if not sigma == compose(sigma1, sigma2):
        raise PostconditionError("three-cycle does not reduce to sigma1*sigma2")
    gamma_result = commutator_transfer(backend, tau_A | B, C)
    gamma = gamma_result.element
    tau0 = commutator(compose(compose(gamma, sigma), inverse(gamma)), tau)[0]
    tau1 = compose(compose(inverse(gamma), tau0), gamma)
    tau2 = compose(inverse(tau1), tau)
    if support(tau1).is_whole() or support(tau2).is_whole():
        raise PostconditionError("split factors do not have proper support")
    if not compose(tau1, tau2) == tau:
        raise PostconditionError("split product does not reconstruct tau")
    env = Environment(backend)
    env.define("tau", tau)
    env.define("sigma", sigma)
    env.define("gamma", gamma)
    certificate = ConjugateProduct("tau", (
        ConjugateFactor(GroupWord((("sigma", 1), ("gamma", -1))), 1),
        ConjugateFactor(GroupWord((("gamma", -1),)), -1),
    ))
    if not certificate.evaluate(env) == tau1:
        raise PostconditionError("two-conjugate certificate does not evaluate to tau1")
    trace = {
        "separating": format_clopen(A),
        "shrunk": format_clopen(A0),
        "moved": format_clopen(tau_A),
        "parked": format_clopen(B),
        "cleared": format_clopen(C),
    }
    return SplitResult(tau1, tau2, certificate, env, trace)


def normality_certificate(tau_name: str, alpha_name: str,
                          env: Environment) -> GroupWord:
    """A derived-subgroup conjugator word w with
    alpha tau alpha^-1 = w tau w^-1 exactly.

    Requires supp(tau) proper (split it first otherwise).  alpha is
    pre-factored into small-support pieces when its support is too
    large, and the single-factor conjugators w_i = [a_i, gamma_i] are
    chained right to left.
    """
    tau = env.get(tau_name)
    alpha = env.get(alpha_name)
    backend = env.backend
    B = support(tau)
    if B.is_whole():
        raise PreconditionError(
            "supp(tau) is the whole space; apply split_nontrivial_support first")
    if alpha.is_identity() or tau.is_identity():
        return GroupWord()
    factors = _proper_support_factors(alpha_name, env, B.complement().volume())
    word = GroupWord()
    current = tau
    for fname, fbound in reversed(factors):
        felem = env.get(fname)
        fsupp = support(felem)
        csupp = support(current)
        if fsupp.intersect(csupp).is_empty():
            gamma = identity(backend)
        else:
            gamma = full_group_transfer(backend, fbound, csupp.complement()).element
        gname = env.fresh("gamma", gamma)
        w_i = commutator_word(fname, gname)
        conj = conjugate(felem, current)
        g_i = w_i.evaluate(env)
        if not conjugate(g_i, current) == conj:
            raise PostconditionError("normality conjugator failed its identity")
        current = conj
        word = w_i * word
    final = word.evaluate(env)
    if not conjugate(final, tau) == conjugate(alpha, tau):
        raise PostconditionError("normality certificate failed its identity")
    return word


def _image(word: tuple[GroupElement, ...], A: ClopenSet) -> ClopenSet:
    """The image of A under the product of `word`, read in composition
    order (rightmost acts first): one image per element, no compose."""
    for f in reversed(word):
        A = image_of_clopen(f, A)
    return A


def _atomic_closure_factors(a_name: str, a_bound: ClopenSet,
                            b_name: str, b_bound: ClopenSet,
                            tau0_name: str, tau0_inv: GroupElement, C: ClopenSet,
                            env: Environment,
                            tags: set[str]) -> tuple[ConjugateFactor, ...]:
    """The eight conjugate factors expressing [a, b] inside the normal
    closure of tau0, via gamma0 (moving supp a off supp b), sigma
    (parking everything inside C, a clopen set disjoint from tau0(C)) and
    tau = sigma^-1 tau0 sigma.  The checks on tau and on
    gamma = [gamma0, tau] read the sets they move, as chains of images."""
    backend = env.backend
    tau0 = env.get(tau0_name)
    not_b = b_bound.complement()
    # reserve a cylinder outside supp(a) so the parked region D stays proper
    reserved = backend.reserved_cylinder(not_b - a_bound)
    moved = full_group_transfer(backend, a_bound, not_b - reserved)
    gamma0 = moved.element
    D = a_bound | support(gamma0)
    if D.is_whole():
        raise PostconditionError("parked region filled the whole space")
    parked = full_group_transfer(backend, D, C)
    sigma = parked.element
    tags.update({moved.postcondition_tag, parked.postcondition_tag})
    g0 = env.fresh("gamma0", gamma0)
    sg = env.fresh("sigma", sigma)
    sigma_inv = inverse(sigma)
    tau = (sigma_inv, tau0, sigma)
    if not _image(tau, D).intersect(D).is_empty():
        raise PostconditionError("conjugated generator does not displace the parked region")
    gamma = (gamma0, *tau, inverse(gamma0), sigma_inv, tau0_inv, sigma)
    if not _image(gamma, a_bound).is_subset(not_b):
        raise PostconditionError("closure element does not separate the supports")
    w_g0s = GroupWord(((g0, 1), (sg, -1)))
    w_s = GroupWord(((sg, -1),))
    a = GroupWord.gen(a_name)
    b = GroupWord.gen(b_name)
    return (
        ConjugateFactor(a * w_g0s, 1),
        ConjugateFactor(a * w_s, -1),
        ConjugateFactor(w_s, 1),
        ConjugateFactor(w_g0s, -1),
        ConjugateFactor(b * w_g0s, 1),
        ConjugateFactor(b * w_s, -1),
        ConjugateFactor(b * a * w_s, 1),
        ConjugateFactor(b * a * w_g0s, -1),
    )


def commutator_in_normal_closure(alpha_name: str, beta_name: str,
                                 tau0_name: str, env: Environment,
                                 trace: dict | None = None) -> ConjugateProduct:
    """A certificate expressing [alpha, beta] as a product of conjugates
    of tau0^{+-1}; eight factors per atomic pair of the commutator
    expansion of the pre-factored alpha and beta whose support bounds
    meet (the other pairs commute).  On the odometer the pairs are parked
    in `displaced_set(tau0)`: alpha's factors have measure below half
    of its measure, so a larger set means fewer pairs."""
    backend = env.backend
    tau0 = env.get(tau0_name)
    if tau0.is_identity():
        raise PreconditionError("the generator tau0 must be nontrivial")
    alpha = env.get(alpha_name)
    beta = env.get(beta_name)
    target = commutator(alpha, beta)[0]
    if target.is_identity():
        return ConjugateProduct(tau0_name, ())
    tau0_inv = inverse(tau0)
    C = displaced_set(tau0) if backend.is_odometer else separated_cylinder(tau0)
    b_factors = _proper_support_factors(beta_name, env, Fraction(1, 2))
    eta = min(min(b.complement().volume() for _, b in b_factors), C.volume())
    a_factors = _proper_support_factors(alpha_name, env, eta / 2)
    a_bounds = dict(a_factors)
    b_bounds = dict(b_factors)
    expansion = expand_commutator_product([n for n, _ in a_factors],
                                          [n for n, _ in b_factors])
    factors: list[ConjugateFactor] = []
    tags: set[str] = set()
    pairs = 0
    for conj, a_nm, b_nm in expansion:
        if a_bounds[a_nm].intersect(b_bounds[b_nm]).is_empty():
            continue      # disjoint supports commute: conj [a, b] conj^-1 = 1
        pairs += 1
        eight = _atomic_closure_factors(a_nm, a_bounds[a_nm], b_nm, b_bounds[b_nm],
                                        tau0_name, tau0_inv, C, env, tags)
        factors.extend(ConjugateFactor(conj * f.conjugator, f.sign) for f in eight)
    cert = ConjugateProduct(tau0_name, tuple(factors))
    if not cert.evaluate(env) == target:
        raise PostconditionError("closure certificate does not evaluate to the commutator")
    if trace is not None:
        trace.update({
            "separating": format_clopen(C),
            "alpha_factors": [n for n, _ in a_factors],
            "beta_factors": [n for n, _ in b_factors],
            "pairs": pairs,
            "tags": sorted(tags),
        })
    return cert


def scan_conjugate_form(cp: ConjugateProduct, env: Environment) -> bool:
    """Structural check: every occurrence of the generator is inside a
    conjugate g tau0^{+-1} g^-1 whose conjugator never mentions tau0,
    and all names resolve."""
    env.get(cp.generator)
    for f in cp.factors:
        if cp.generator in f.conjugator.names():
            return False
        for name in f.conjugator.names():
            env.get(name)
    return True


def verify_certificate(cp: ConjugateProduct, env: Environment,
                       target: GroupElement) -> bool:
    """Structural scan plus exact evaluation against the target."""
    if not scan_conjugate_form(cp, env):
        return False
    return cp.evaluate(env) == target


# -- certificate files -------------------------------------------------------


def product_to_dict(cp: ConjugateProduct, env: Environment) -> dict:
    """The generator, factors and environment of a certificate."""
    return {
        "generator": cp.generator,
        "factors": [{"conjugator": [[n, e] for n, e in f.conjugator.tokens],
                     "sign": f.sign} for f in cp.factors],
        "environment": {name: format_element(elem) for name, elem in env.items()},
    }


def certificate_to_dict(cp: ConjugateProduct, env: Environment,
                        target: GroupElement, trace: dict | None = None) -> dict:
    return {
        "backend": env.backend.tag,
        **product_to_dict(cp, env),
        "target": format_element(target),
        "trace": trace or {},
    }


_JSON_TYPES = {dict: "object", str: "string", int: "integer"}


def _typed(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (a bool is no integer), else
    malformed input: a field of the wrong type must not reach code assuming one."""
    if type(value) is not kind:
        raise MalformedInput(f"bad certificate payload: {what} is not a JSON {_JSON_TYPES[kind]}")
    return value


def certificate_from_dict(data: dict) -> tuple[ConjugateProduct, Environment, GroupElement]:
    try:
        if _typed(data["format_version"], int, "format_version") != FORMAT_VERSION:
            raise MalformedInput(f"unsupported format_version {data['format_version']!r}")
        backend = parse_backend(_typed(data["backend"], str, "backend"))
        env = Environment(backend, {
            name: parse_element(_typed(enc, str, f"element {name!r}"))
            for name, enc in _typed(data["environment"], dict, "environment").items()})
        factors = tuple(
            ConjugateFactor(GroupWord(tuple((_typed(n, str, "a conjugator name"),
                                             _typed(e, int, "a conjugator exponent"))
                                            for n, e in f["conjugator"])),
                            _typed(f["sign"], int, "a factor sign"))
            for f in data["factors"])
        cp = ConjugateProduct(_typed(data["generator"], str, "generator"), factors)
        target = parse_element(_typed(data["target"], str, "target"))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad certificate payload: {exc}") from exc
    if target.backend != backend:
        raise MalformedInput(f"target is on backend {target.backend.tag}, "
                             f"expected {backend.tag}")
    return cp, env, target


def dump_certificate(cp: ConjugateProduct, env: Environment, target: GroupElement) -> str:
    return encode_artifact(certificate_to_dict(cp, env, target))


def load_certificate(text: str) -> tuple[ConjugateProduct, Environment, GroupElement]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:   # a JSONDecodeError is a ValueError
        raise MalformedInput(f"certificate is not valid JSON: {exc}") from exc
    return certificate_from_dict(data)
