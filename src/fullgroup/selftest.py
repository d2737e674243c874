"""Named randomized property suites behind the CLI selftest command.

A suite is a substream label and one trial of one module's invariants.
`run_selftest` draws the suite's substream of the seed once and runs
`trial_count` trials on it, and reports per-property pass counts plus
encoded counterexamples.  Identical configurations produce
byte-identical reports; the CLI adds the format version when it writes
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import mul

from . import randomize as rz
from .backends import BackendId, Bisection, compare_clopen, source_range
from .certificates import (Environment, GroupWord, commutator_in_normal_closure,
                           commutator_word, expand_commutator_product,
                           normality_certificate, scan_conjugate_form,
                           split_nontrivial_support, verify_certificate)
from .clopen import MAX_WORD_DEPTH, ClopenSet
from .decompose import decompose_small_support
from .elements import (check_measure_invariance, commutator, compose,
                       conjugate, equals, identity, image_of_clopen,
                       inverse, support)
from .encoding import format_clopen, format_element
from .errors import MalformedInput
from .transfers import (COMMUTATOR_CYCLIC, INVOLUTION_SMALL_SUPPORT,
                        exact_swap_involution, full_group_transfer,
                        commutator_transfer, gw_intertwining)

# the most trials one suite runs; more is refused before any trial runs
MAX_TRIALS = 10000


@dataclass(frozen=True)
class RunConfig:
    backend: BackendId
    seed: int
    max_depth: int
    trial_count: int

    def __post_init__(self):
        if self.max_depth < 1:
            raise MalformedInput("max_depth must be >= 1")
        if self.max_depth > MAX_WORD_DEPTH:   # the samplers draw words this deep
            raise MalformedInput(f"max_depth {self.max_depth} is over the word depth "
                                 f"limit of {MAX_WORD_DEPTH}")
        if self.trial_count < 1:
            raise MalformedInput("trial_count must be >= 1")
        if self.trial_count > MAX_TRIALS:
            raise MalformedInput(f"trial_count {self.trial_count} is over the limit "
                                 f"of {MAX_TRIALS}")


class _Suite:
    """Pass and failure counts and the first counterexamples, by property."""

    def __init__(self):
        self.properties: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        prop = self.properties.setdefault(
            name, {"name": name, "passes": 0, "failures": 0, "counterexamples": []})
        if ok:
            prop["passes"] += 1
        else:
            prop["failures"] += 1
            if len(prop["counterexamples"]) < 5:
                prop["counterexamples"].append(detail)

    def report(self) -> list[dict]:
        return [self.properties[name] for name in sorted(self.properties)]


# One trial of each suite: trial(suite, rng, backend, depth, i) draws its
# inputs from `rng`, the suite's substream, and checks them into `suite`;
# `i` counts the trials from 0.


def _trial_clopen(suite, rng, backend, depth, i):
    base = backend.base
    A, B, C = (rz.random_clopen(rng, base, depth) for _ in range(3))
    detail = f"{format_clopen(A)} {format_clopen(B)} {format_clopen(C)}"
    suite.check("double-complement", A.complement().complement() == A, detail)
    suite.check("de-morgan", (A | B).complement() == A.complement() & B.complement(), detail)
    suite.check("distributivity", A & (B | C) == (A & B) | (A & C), detail)
    suite.check("difference", (A - B) == A & B.complement(), detail)
    disjoint = A - B
    suite.check("additivity",
                (disjoint | B).volume() == disjoint.volume() + B.volume()
                if disjoint.intersect(B).is_empty() else True, detail)
    if not A.is_empty():
        depth_bound = Fraction(1, base ** len(A.common_prefix()))
        suite.check("small-diameter-small-measure", A.volume() <= depth_bound, detail)
        suite.check("positive-measure",
                    A.volume() >= Fraction(1, base ** A.max_depth()), detail)


def _trial_group_axioms(suite, rng, backend, depth, i):
    f, g, h = (rz.random_element(rng, backend, depth) for _ in range(3))
    e = identity(backend)
    detail = f"{format_element(f)} {format_element(g)}"
    suite.check("associativity",
                equals(compose(compose(f, g), h), compose(f, compose(g, h))), detail)
    suite.check("identity-laws",
                equals(compose(f, e), f) and equals(compose(e, f), f), detail)
    suite.check("inverse-laws",
                compose(f, inverse(f)).is_identity()
                and compose(inverse(f), f).is_identity(), detail)
    suite.check("support-of-inverse", support(inverse(f)) == support(f), detail)
    suite.check("support-of-product",
                support(compose(f, g)).is_subset(support(f) | support(g)), detail)


@cache
def _invariance_cylinders(base: int, depth: int) -> tuple[ClopenSet, ...]:
    """Every cylinder of depth 1 to min(4, depth)."""
    return tuple(ClopenSet.from_words(base, [w])
                 for d in range(1, min(4, depth) + 1)
                 for w in ClopenSet.whole(base).refine_to(d))


def _trial_measure_invariance(suite, rng, backend, depth, i):
    f = rz.random_element(rng, backend, depth)
    failures = check_measure_invariance(f, _invariance_cylinders(backend.base, depth))
    suite.check("pushforward-fixes-measure", not failures, format_element(f))


def _trial_support_conjugation(suite, rng, backend, depth, i):
    a = rz.random_element(rng, backend, depth)
    b = rz.random_element(rng, backend, depth)
    suite.check("conjugated-support",
                support(conjugate(b, a)) == image_of_clopen(b, support(a)),
                f"{format_element(a)} {format_element(b)}")


def _trial_comparison(suite, rng, backend, depth, i):
    A, B = rz.comparison_pair(rng, backend, depth)
    U = compare_clopen(backend, A, B)
    src, dst = source_range(U)
    detail = f"{format_clopen(A)} {format_clopen(B)}"
    # rebuilt through the constructor, which asks the model's rule and both overlap rules
    suite.check("witness-valid", Bisection(backend, U.pieces) == U, detail)
    suite.check("source-exact", src == A, detail)
    suite.check("range-inside", dst.is_subset(B), detail)


def _trial_lemma_transfers(suite, rng, backend, depth, i):
    A, B = rz.comparison_pair(rng, backend, depth)
    res = full_group_transfer(backend, A, B)
    alpha = res.element
    image = image_of_clopen(alpha, A)
    detail = f"{format_clopen(A)} {format_clopen(B)}"
    suite.check("transfer-image", image.is_subset(B), detail)
    if res.postcondition_tag == INVOLUTION_SMALL_SUPPORT:
        suite.check("transfer-involution", compose(alpha, alpha).is_identity(), detail)
        suite.check("transfer-support", support(alpha).is_subset(A | image), detail)
    else:
        suite.check("transfer-proper-cosupport", not (A | support(alpha)).is_whole(), detail)
    A2, B2 = rz.comparison_pair(rng, backend, depth, factor=3)
    res2 = commutator_transfer(backend, A2, B2)
    gamma = res2.element
    g1 = image_of_clopen(gamma, A2)
    g2 = image_of_clopen(gamma, g1)
    detail = f"{format_clopen(A2)} {format_clopen(B2)}"
    suite.check("commutator-image", g1.is_subset(B2), detail)
    suite.check("commutator-witness",
                res2.witness is not None
                and equals(commutator(*res2.witness)[0], gamma), detail)
    if res2.postcondition_tag == COMMUTATOR_CYCLIC:
        suite.check("commutator-square-image", g2.is_subset(B2), detail)
        suite.check("commutator-support", support(gamma).is_subset(A2 | g1 | g2), detail)
    else:
        suite.check("commutator-proper-cosupport",
                    not (A2 | support(gamma)).is_whole(), detail)


def _trial_swap(suite, rng, backend, depth, i):
    A, B = rz.swap_equivalent_pair(rng, backend, depth)
    alpha = exact_swap_involution(backend, A, B)
    detail = f"{format_clopen(A)} {format_clopen(B)}"
    suite.check("swap-image", image_of_clopen(alpha, A) == B, detail)
    suite.check("swap-involution", compose(alpha, alpha).is_identity(), detail)
    suite.check("swap-support", support(alpha) == (A | B) - (A & B), detail)


def _trial_gw(suite, rng, backend, depth, i):
    A, B = rz.swap_equivalent_pair(rng, backend, depth)
    detail = f"{format_clopen(A)} {format_clopen(B)}"
    prev = gw_intertwining(backend, A, B, 0)
    ok_diam = ok_annulus = ok_support = ok_nested = True
    for n in range(1, 5):
        state = gw_intertwining(backend, A, B, n)
        ok_diam &= state.residual_a.diameter_bound() < Fraction(2) ** (1 - n)
        ok_nested &= (state.residual_a.is_subset(prev.residual_a)
                      and state.residual_b.is_subset(prev.residual_b)
                      and state.residual_a.contains_point(state.anchor_a)
                      and state.residual_b.contains_point(state.anchor_b))
        step = compose(state.partial, inverse(prev.partial))
        ann_a = prev.residual_a - state.residual_a
        ann_b = prev.residual_b - state.residual_b
        ok_annulus &= image_of_clopen(step, ann_a) == ann_b
        ok_support &= support(step).is_subset(ann_a | ann_b)
        prev = state
    suite.check("gw-diameters", ok_diam, detail)
    suite.check("gw-annulus-transfer", ok_annulus, detail)
    suite.check("gw-step-support", ok_support, detail)
    suite.check("gw-nested-residuals", ok_nested, detail)


def _trial_decompose(suite, rng, backend, depth, i):
    f = rz.random_element(rng, backend, depth, nontrivial=True)
    eps = (Fraction(1, 4), Fraction(1, 8))[i % 2]
    res = decompose_small_support(f, eps)
    detail = format_element(f)
    suite.check("decompose-product",
                equals(reduce(compose, res.factors, identity(backend)), f), detail)
    suite.check("decompose-bounds-proper", all(b.is_proper() for b in res.bounds), detail)
    suite.check("decompose-supports",
                all(support(g).is_subset(b) for g, b in zip(res.factors, res.bounds)), detail)
    if res.epsilon is not None:
        suite.check("decompose-small-measure",
                    all(b.volume() < eps for b in res.bounds), detail)


def _trial_split(suite, rng, backend, depth, i):
    tau = rz.random_element(rng, backend, depth, nontrivial=True)
    res = split_nontrivial_support(tau)
    detail = format_element(tau)
    suite.check("split-product", equals(compose(res.tau1, res.tau2), tau), detail)
    suite.check("split-proper-supports",
                not support(res.tau1).is_whole() and not support(res.tau2).is_whole(), detail)
    suite.check("split-certificate",
                equals(res.certificate.evaluate(res.environment), res.tau1), detail)


def _trial_certificates(suite, rng, backend, depth, i):
    env = Environment(backend)
    names = [env.define(nm, rz.random_element(rng, backend, 3))
             for nm in ("g1", "g2", "h1", "h2")]
    g = GroupWord.gen("g1") * GroupWord.gen("g2")
    h = GroupWord.gen("h1") * GroupWord.gen("h2")
    rhs = reduce(mul, (c * commutator_word(a, b) * c.inverse() for c, a, b
                       in expand_commutator_product(["g1", "g2"], ["h1", "h2"])))
    suite.check("expansion-identity",
                equals((g * h * g.inverse() * h.inverse()).evaluate(env), rhs.evaluate(env)),
                " ".join(names))
    tau = rz.random_element(rng, backend, 3, nontrivial=True, proper_support=True)
    alpha = rz.random_element(rng, backend, 3, nontrivial=True,
                              proper_support=True, moves=1)
    env2 = Environment(backend, {"tau": tau, "alpha": alpha})
    w = normality_certificate("tau", "alpha", env2).evaluate(env2)
    suite.check("normality-identity", equals(conjugate(alpha, tau), conjugate(w, tau)),
                f"{format_element(tau)} {format_element(alpha)}")
    tau0 = rz.random_element(rng, backend, 3, nontrivial=True)
    a, b = (rz.random_element(rng, backend, 3, nontrivial=True,
                              proper_support=True, moves=1) for _ in range(2))
    env3 = Environment(backend, {"tau0": tau0, "a": a, "b": b})
    cert = commutator_in_normal_closure("a", "b", "tau0", env3)
    detail = f"{format_element(tau0)} {format_element(a)} {format_element(b)}"
    suite.check("closure-verifies",
                verify_certificate(cert, env3, commutator(a, b)[0]), detail)
    suite.check("closure-form", scan_conjugate_form(cert, env3), detail)


# suite name -> (substream label, one trial)
SUITES = {
    "clopen-algebra": ("clopen", _trial_clopen),
    "group-axioms": ("axioms", _trial_group_axioms),
    "measure-invariance": ("invariance", _trial_measure_invariance),
    "support-conjugation": ("supportconj", _trial_support_conjugation),
    "comparison": ("comparison", _trial_comparison),
    "lemma-transfers": ("transfers", _trial_lemma_transfers),
    "swap-involution": ("swap", _trial_swap),
    "gw-intertwining": ("gw", _trial_gw),
    "decompose-small": ("decompose", _trial_decompose),
    "split-normal": ("split", _trial_split),
    "certificates": ("certs", _trial_certificates),
}


def run_selftest(suite_name: str, config: RunConfig) -> dict:
    """Run one named suite at depth max(3, max_depth); returns the
    JSON-ready report, which names the depth that ran."""
    if suite_name not in SUITES:
        raise MalformedInput(
            f"unknown suite {suite_name!r}; available: {', '.join(sorted(SUITES))}")
    label, trial = SUITES[suite_name]
    rng = rz.substream(config.seed, f"{label}:{config.backend.tag}")
    depth = max(3, config.max_depth)
    suite = _Suite()
    for i in range(config.trial_count):
        trial(suite, rng, config.backend, depth, i)
    properties = suite.report()
    return {
        "suite": suite_name,
        "backend": config.backend.tag,
        "seed": config.seed,
        "max_depth": depth,
        "trial_count": config.trial_count,
        "properties": properties,
        "ok": all(p["failures"] == 0 for p in properties),
    }
