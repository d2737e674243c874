"""Group words, commutator expansion, closure certificates, verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup import certificates
from fullgroup.backends import FullShift, Odometer, OdometerPiece
from fullgroup.certificates import (ConjugateFactor, ConjugateProduct,
                                    Environment, GroupWord, _pair_rules,
                                    certificate_to_dict,
                                    commutator_in_normal_closure,
                                    commutator_word, dump_certificate,
                                    expand_commutator_product, load_certificate,
                                    normality_certificate, scan_conjugate_form,
                                    verify_certificate)
from fullgroup.elements import (commutator, compose, conjugate,
                                element_from_pieces, equals, identity,
                                image_of_clopen, inverse)
from fullgroup.encoding import encode_artifact, parse_element
from fullgroup.errors import MalformedInput, PreconditionError
from fullgroup.randomize import random_element, substream

from test_golden import INPUTS

ALL_BACKENDS = [Odometer(2), FullShift(2), Odometer(3), FullShift(3)]


def positive_word(*names):
    return GroupWord(tuple((n, 1) for n in names))


def expansion_words(gs, hs):
    """[g1..gn, h1..hm] as a word, and the product, in list order, of the
    conjugated atomic commutators c [g_i, h_j] c^-1 that
    `expand_commutator_product` lists."""
    g, h = positive_word(*gs), positive_word(*hs)
    rhs = tuple(token for c, a, b in expand_commutator_product(gs, hs)
                for token in (c * commutator_word(a, b) * c.inverse()).tokens)
    return g * h * g.inverse() * h.inverse(), GroupWord(rhs)


def free_reduction(word):
    """The freely reduced token list of a group word."""
    out = []
    for name, exp in word.tokens:
        if out and out[-1] == (name, -exp):
            out.pop()
        else:
            out.append((name, exp))
    return out


def random_env(backend, seed, names_spec):
    """names_spec: list of (name, kwargs for random_element)."""
    rng = substream(seed, f"env:{backend.tag}")
    env = Environment(backend)
    for name, kwargs in names_spec:
        env.define(name, random_element(rng, backend, 3, **kwargs))
    return env


def word_oracle(word, env):
    """Left fold of compose over the unreduced tokens."""
    result = identity(env.backend)
    for name, exp in word.tokens:
        elem = env.get(name)
        result = compose(result, elem if exp == 1 else inverse(elem))
    return result


def per_factor_oracle(cp, env):
    """Replay factor by factor: evaluate each conjugator g on its own and
    multiply in g tau0^{+-1} g^-1."""
    tau0 = env.get(cp.generator)
    result = identity(env.backend)
    for f in cp.factors:
        middle = tau0 if f.sign == 1 else inverse(tau0)
        result = compose(result, conjugate(word_oracle(f.conjugator, env), middle))
    return result


def non_involution_env(backend, seed, names):
    """Random elements with x x != 1, so cancelling x x is observable."""
    rng = substream(seed, f"noninv:{backend.tag}")
    env = Environment(backend)
    for name in names:
        while True:
            x = random_element(rng, backend, 3, nontrivial=True)
            if not compose(x, x).is_identity():
                env.define(name, x)
                break
    return env


def word(*spec):
    """word("a", "b-") is the word a b^-1."""
    return GroupWord(tuple((s.rstrip("-"), -1 if s.endswith("-") else 1) for s in spec))


class TestGroupWord:
    def test_inverse(self):
        w = GroupWord((("a", 1), ("b", -1)))
        assert w.inverse().tokens == (("b", 1), ("a", -1))

    def test_evaluation_order(self):
        # the word "a b" acts as a after b
        backend = FullShift(2)
        env = random_env(backend, 41, [("a", {}), ("b", {})])
        w = GroupWord((("a", 1), ("b", 1)))
        assert equals(w.evaluate(env), compose(env.get("a"), env.get("b")))

    def test_unresolved_name(self):
        env = Environment(Odometer(2))
        with pytest.raises(MalformedInput):
            GroupWord((("ghost", 1),)).evaluate(env)

    def test_bad_exponent(self):
        with pytest.raises(MalformedInput):
            GroupWord((("a", 2),))

    def test_environment_refuses_the_other_model(self):
        for backend, other in ((Odometer(2), FullShift(2)), (FullShift(2), Odometer(2))):
            env = Environment(backend)
            with pytest.raises(MalformedInput, match=f"expected {backend.tag}"):
                env.define("x", identity(other))

    def test_environment_refuses_a_rebinding(self):
        backend = Odometer(2)
        env = Environment(backend, {"x": identity(backend)})
        assert env.define("x", identity(backend)) == "x"   # the same element again
        with pytest.raises(MalformedInput, match="'x' already bound to a different element"):
            env.define("x", parse_element("elem:odo2:[(ε;+1)]"))
        assert env.get("x") == identity(backend)


class TestFreeReduction:
    """Evaluation by free reduction against the unreduced oracles."""

    WORDS = [(), ("a", "a-", "b"), ("a", "a", "b"), ("b", "a", "a-", "b-"),
             ("a-", "a-", "b", "b-", "a"), ("a", "b", "b-", "a-", "a-"),
             ("b-", "a", "a-", "b", "a", "b-")]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_words_match_oracle(self, backend):
        env = non_involution_env(backend, 31, ["a", "b"])
        for spec in self.WORDS:
            w = word(*spec)
            assert equals(w.evaluate(env), word_oracle(w, env)), spec
        assert equals(word("a", "a-", "b").evaluate(env), env.get("b"))
        assert word("b", "a", "a-", "b-").evaluate(env).is_identity()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_shared_prefixes_match_oracle(self, backend):
        # consecutive conjugators share prefixes that cancel in the flat
        # word, one conjugator is empty, and some contain x x
        env = non_involution_env(backend, 32, ["t", "c", "a", "b"])
        conjugators = [("c", "a"), ("c", "b"), (), ("c", "a", "a"), ("c", "a", "b-"),
                       ("c", "a", "b-"), ("b-", "b-"), ("a",), ()]
        cp = ConjugateProduct("t", tuple(ConjugateFactor(word(*c), (-1) ** k)
                                         for k, c in enumerate(conjugators)))
        assert equals(cp.evaluate(env), per_factor_oracle(cp, env))

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_closure_certificates_match_oracle(self, backend):
        rng = substream(33, f"oracle:{backend.tag}")
        for _ in range(3):
            env = Environment(backend)
            env.define("tau0", random_element(rng, backend, 3, nontrivial=True))
            for name in ("a", "b"):
                env.define(name, random_element(rng, backend, 3, nontrivial=True,
                                                proper_support=True))
            cert = commutator_in_normal_closure("a", "b", "tau0", env)
            assert equals(cert.evaluate(env), per_factor_oracle(cert, env))

    def test_unresolved_pair_raises(self):
        env = non_involution_env(Odometer(2), 34, ["a"])
        with pytest.raises(MalformedInput, match="ghost"):
            word("a", "ghost", "ghost-").evaluate(env)
        cp = ConjugateProduct("a", (ConjugateFactor(word("ghost", "ghost-"), 1),))
        with pytest.raises(MalformedInput, match="ghost"):
            cp.evaluate(env)

    def test_first_unresolved_name_reported(self):
        env = non_involution_env(Odometer(2), 35, ["a"])
        with pytest.raises(MalformedInput, match="'zz'"):
            word("a", "zz", "a-", "aa").evaluate(env)

    def test_empty_product_resolves_generator(self):
        env = Environment(Odometer(2))
        with pytest.raises(MalformedInput, match="tau0"):
            ConjugateProduct("tau0", ()).evaluate(env)


NAMES = ("a", "b", "c", "d")


@pytest.fixture(scope="module")
def repetitive_envs():
    return {backend.tag: non_involution_env(backend, 36, NAMES) for backend in ALL_BACKENDS}


@st.composite
def repetitive_words(draw):
    """Words over 2-4 names built from a few short motifs: periodic
    blocks u^r, runs x x x, and a motif next to its inverse, with either
    orientation of each motif."""
    names = NAMES[:draw(st.integers(2, 4))]
    token = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    motifs = draw(st.lists(st.lists(token, min_size=1, max_size=3), min_size=1, max_size=3))
    tokens = []
    for _ in range(draw(st.integers(1, 8))):
        motif = GroupWord(tuple(draw(st.sampled_from(motifs))))
        kind = draw(st.sampled_from(("periodic", "inverse", "cancel", "single")))
        if kind == "periodic":
            tokens += motif.tokens * draw(st.integers(2, 6))
        elif kind == "inverse":
            tokens += motif.inverse().tokens * draw(st.integers(1, 4))
        elif kind == "cancel":
            tokens += motif.tokens + motif.inverse().tokens
        else:
            tokens.append(draw(st.sampled_from(motif.tokens)))
    return GroupWord(tuple(tokens))


class TestPairCompression:
    """Evaluation compresses the reduced word by pairs before its fold."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ALL_BACKENDS), repetitive_words())
    def test_repetitive_words_match_oracle(self, repetitive_envs, backend, w):
        env = repetitive_envs[backend.tag]
        assert equals(w.evaluate(env), word_oracle(w, env))

    @settings(max_examples=300, deadline=None)
    @given(repetitive_words())
    def test_rules_expand_to_the_word(self, w):
        # the compressed word expands back to the reduced word, and no
        # pair of it is left with two non-overlapping occurrences
        ids = {name: k for k, name in enumerate(NAMES, 1)}
        reduced = [ids[n] * e for n, e in free_reduction(w)]
        fresh = len(NAMES) + 1
        rules, compressed = _pair_rules(reduced, fresh)

        def expand(symbol):
            if abs(symbol) < fresh:
                return [symbol]
            x, y = rules[abs(symbol) - fresh]
            out = expand(x) + expand(y)
            return out if symbol > 0 else [-s for s in reversed(out)]

        assert [s for symbol in compressed for s in expand(symbol)] == reduced
        seen = {}
        for i, (x, y) in enumerate(zip(compressed, compressed[1:])):
            key = min((x, y), (-y, -x))
            assert seen.get(key, i) >= i - 1, (compressed, key)
            seen.setdefault(key, i)

    @pytest.mark.parametrize("tag", list(INPUTS))
    def test_golden_certificates_compose_half(self, tag, monkeypatch):
        # the certify certificates of tests/test_golden.py: at most half
        # the composes of the left fold over the freely reduced word
        x = INPUTS[tag]
        env = Environment(parse_element(x["rotation"]).backend)
        for name in ("tau0", "alpha", "beta"):
            env.define(name, parse_element(x["rotation" if name == "tau0" else name]))
        cert = commutator_in_normal_closure("alpha", "beta", "tau0", env)
        flat = GroupWord(tuple(token for f in cert.factors for token in (
            *f.conjugator.tokens, ("tau0", f.sign), *f.conjugator.inverse().tokens)))
        composes = []
        real = certificates.compose
        monkeypatch.setattr(certificates, "compose",
                            lambda f, g: composes.append(1) or real(f, g))
        assert equals(cert.evaluate(env), commutator(env.get("alpha"), env.get("beta"))[0])
        assert 0 < len(composes) <= (len(free_reduction(flat)) - 1) / 2


class TestGrammarMemo:
    """A certificate shape's reduced word is compressed once per process."""

    def test_one_grammar_per_shape(self):
        # the odo2 golden certificate, and a copy over other names bound to
        # other elements: one compression, then one memo hit
        x = INPUTS["odo2"]
        env = Environment(Odometer(2))
        for name in ("tau0", "alpha", "beta"):
            env.define(name, parse_element(x["rotation" if name == "tau0" else name]))
        cert = commutator_in_normal_closure("alpha", "beta", "tau0", env)
        rename = {name: f"other.{k}" for k, name in enumerate(env.names())}
        renamed = ConjugateProduct(rename[cert.generator], tuple(
            ConjugateFactor(GroupWord(tuple((rename[n], e) for n, e in f.conjugator.tokens)),
                            f.sign) for f in cert.factors))
        rng = substream(37, "memo")
        other = Environment(Odometer(2), {
            new: random_element(rng, Odometer(2), 3, nontrivial=True)
            for new in rename.values()})
        certificates._grammar.cache_clear()
        assert equals(cert.evaluate(env), commutator(env.get("alpha"), env.get("beta"))[0])
        assert equals(renamed.evaluate(other), per_factor_oracle(renamed, other))
        info = certificates._grammar.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_memo_matches_a_fresh_compression(self):
        # the word's names first occur in NAMES order, so evaluation numbers
        # them as `ids` does and stores the grammar under (reduced, 5)
        env = non_involution_env(Odometer(2), 38, NAMES)
        ids = {name: k for k, name in enumerate(NAMES, 1)}
        w = word("a", "b", "a", "b", "c-", "a", "b", "d", "c-", "a", "b")
        reduced = [ids[n] * e for n, e in free_reduction(w)]
        certificates._grammar.cache_clear()
        assert equals(w.evaluate(env), word_oracle(w, env))
        rules, compressed = certificates._grammar(tuple(reduced), len(NAMES) + 1)
        assert certificates._grammar.cache_info().hits == 1
        assert type(rules) is tuple and type(compressed) is tuple
        assert rules and all(type(rule) is tuple for rule in rules)
        assert (rules, compressed) == _pair_rules(list(reduced), len(NAMES) + 1)

    def test_the_bound_holds(self):
        bound = certificates.GRAMMAR_MEMO_SIZE
        assert certificates._grammar.cache_info().maxsize == bound
        certificates._grammar.cache_clear()
        for n in range(bound + 10):
            certificates._grammar((1, 2) * (n + 2), 3)
        info = certificates._grammar.cache_info()
        assert info.currsize == bound and info.misses == bound + 10


class TestExpansion:
    def test_atomic(self):
        assert expand_commutator_product(["g"], ["h"]) == [(GroupWord(), "g", "h")]
        assert expansion_words(["g"], ["h"])[1] == commutator_word("g", "h")

    def test_left_product_rule(self):
        # [g1 g2, h] = g1 [g2, h] g1^-1 [g1, h]
        want = (GroupWord.gen("g1") * commutator_word("g2", "h")
                * GroupWord.gen("g1").inverse() * commutator_word("g1", "h"))
        assert expansion_words(["g1", "g2"], ["h"])[1] == want

    def test_right_product_rule(self):
        # [g, h1 h2] = [g, h1] h1 [g, h2] h1^-1
        want = (commutator_word("g", "h1") * GroupWord.gen("h1")
                * commutator_word("g", "h2") * GroupWord.gen("h1").inverse())
        assert expansion_words(["g"], ["h1", "h2"])[1] == want

    def test_pair_count(self):
        pairs = expand_commutator_product(["a", "b", "c"], ["x", "y"])
        assert len(pairs) == 6
        assert sorted((g, h) for _, g, h in pairs) == sorted(
            (g, h) for g in ("a", "b", "c") for h in ("x", "y"))

    def test_pair_order(self):
        # g_i descending, then h_j ascending, each pair conjugated by
        # g1..g_{i-1} h1..h_{j-1}
        assert expand_commutator_product(["a", "b", "c"], ["x", "y"]) == [
            (positive_word("a", "b"), "c", "x"), (positive_word("a", "b", "x"), "c", "y"),
            (positive_word("a"), "b", "x"), (positive_word("a", "x"), "b", "y"),
            (positive_word(), "a", "x"), (positive_word("x"), "a", "y")]
        lhs, rhs = expansion_words(["a", "b", "c"], ["x", "y"])
        assert free_reduction(rhs) == free_reduction(lhs)

    @pytest.mark.parametrize("long_side", ["gs", "hs"])
    def test_long_name_lists(self, long_side):
        # the expansion is an identity in the free group, at any length
        names = [f"a{i}" for i in range(2000)]
        gs, hs = (names, ["b"]) if long_side == "gs" else (["b"], names)
        assert len(expand_commutator_product(gs, hs)) == 2000
        lhs, rhs = expansion_words(gs, hs)
        assert free_reduction(rhs) == free_reduction(lhs)

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_identity_in_random_environments(self, backend):
        for seed in range(12):
            env = random_env(backend, 100 + seed,
                             [("g1", {}), ("g2", {}), ("h1", {}), ("h2", {})])
            lhs, rhs = expansion_words(["g1", "g2"], ["h1", "h2"])
            assert equals(lhs.evaluate(env), rhs.evaluate(env))

    def test_empty_lists_rejected(self):
        with pytest.raises(MalformedInput):
            expand_commutator_product([], ["h"])


class TestNormality:
    def test_identity_alpha(self):
        backend = FullShift(2)
        env = random_env(backend, 51, [("tau", {"nontrivial": True,
                                                "proper_support": True})])
        env.define("alpha", identity(backend))
        word = normality_certificate("tau", "alpha", env)
        assert word == GroupWord()

    def test_disjoint_supports(self):
        from fullgroup.backends import OdometerPiece
        from fullgroup.elements import element_from_pieces
        backend = Odometer(2)
        tau = element_from_pieces(backend, [OdometerPiece((0, 0), 1),
                                            OdometerPiece((1, 0), -1)])
        alpha = element_from_pieces(backend, [OdometerPiece((0, 1), 1),
                                              OdometerPiece((1, 1), -1)])
        env = Environment(backend, {"tau": tau, "alpha": alpha})
        word = normality_certificate("tau", "alpha", env)
        w = word.evaluate(env)
        assert equals(conjugate(w, tau), conjugate(alpha, tau))
        assert equals(conjugate(alpha, tau), tau)

    def test_full_support_tau_rejected(self):
        backend = Odometer(2)
        from fullgroup.backends import OdometerPiece
        from fullgroup.elements import element_from_pieces
        phi = element_from_pieces(backend, [OdometerPiece((), 1)],
                                  fill_identity=False)
        env = Environment(backend, {"tau": phi, "alpha": phi})
        with pytest.raises(PreconditionError):
            normality_certificate("tau", "alpha", env)

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_randomized_identity(self, backend):
        rng = substream(52, f"norm:{backend.tag}")
        for _ in range(10):
            tau = random_element(rng, backend, 4, nontrivial=True,
                                 proper_support=True)
            alpha = random_element(rng, backend, 4, nontrivial=True)
            env = Environment(backend, {"tau": tau, "alpha": alpha})
            word = normality_certificate("tau", "alpha", env)
            w = word.evaluate(env)
            assert equals(conjugate(alpha, tau), conjugate(w, tau))
            # the conjugator is a product of commutator words
            assert len(word.tokens) % 4 == 0


class TestClosure:
    def test_self_commutator_empty(self):
        backend = FullShift(2)
        env = random_env(backend, 61, [("tau0", {"nontrivial": True}),
                                       ("a", {"nontrivial": True})])
        cert = commutator_in_normal_closure("a", "a", "tau0", env)
        assert cert.factors == ()
        assert verify_certificate(cert, env, identity(backend))

    def test_atomic_eight_factors(self):
        backend = FullShift(2)
        for seed in range(62, 100):
            env = random_env(backend, seed, [
                ("tau0", {"nontrivial": True}),
                ("a", {"nontrivial": True, "proper_support": True, "moves": 1}),
                ("b", {"nontrivial": True, "proper_support": True, "moves": 1})])
            target = commutator(env.get("a"), env.get("b"))[0]
            if target.is_identity():
                continue
            cert = commutator_in_normal_closure("a", "b", "tau0", env)
            assert len(cert.factors) == 8
            assert verify_certificate(cert, env, target)
            return
        pytest.fail("no nondegenerate atomic pair sampled")

    def test_factor_count_accounting(self):
        # chained certificates carry 8 factors per atomic pair
        backend = Odometer(2)
        rng = substream(63, "count")
        env = Environment(backend)
        env.define("tau0", random_element(rng, backend, 3, nontrivial=True))
        env.define("a", random_element(rng, backend, 3, nontrivial=True))
        env.define("b", random_element(rng, backend, 3, nontrivial=True))
        trace = {}
        cert = commutator_in_normal_closure("a", "b", "tau0", env, trace)
        assert len(cert.factors) == 8 * trace["pairs"]

    def test_disjoint_pairs_dropped(self):
        # alpha splits into four factors and beta into two; the pairs whose
        # support bounds are disjoint commute and emit no factors
        env = Environment(Odometer(2), {
            "tau0": parse_element("elem:odo2:[(ε;+1)]"),
            "a": parse_element("elem:odo2:[(00;+2),(01;-2),(1;+0)]"),
            "b": parse_element("elem:odo2:[(00;+0),(01;-1),(10;+1),(11;+0)]")})
        trace = {}
        cert = commutator_in_normal_closure("a", "b", "tau0", env, trace)
        assert len(cert.factors) == 8 * trace["pairs"]
        assert 0 < trace["pairs"] < len(trace["alpha_factors"]) * len(trace["beta_factors"])
        target = commutator(env.get("a"), env.get("b"))[0]
        assert verify_certificate(cert, env, target)
        assert equals(per_factor_oracle(cert, env), target)

    def test_mixed_depth_generator(self):
        # tau0 swaps [00] with [10] and two depth-40 cylinders: the parking
        # set must stay shallow, or every transfer into it refines to depth 40
        deep = (0, 1) + (0,) * 38
        tau0 = element_from_pieces(Odometer(2), [
            OdometerPiece((0, 0), 1), OdometerPiece((1, 0), -1),
            OdometerPiece(deep, 1), OdometerPiece((1,) + deep[1:], -1)],
            fill_identity=True)
        env = Environment(Odometer(2), {
            "tau0": tau0,
            "a": parse_element("elem:odo2:[(00;+2),(01;-2),(1;+0)]"),
            "b": parse_element("elem:odo2:[(00;+0),(01;-1),(10;+1),(11;+0)]")})
        trace = {}
        cert = commutator_in_normal_closure("a", "b", "tau0", env, trace)
        assert len(cert.factors) == 8 * trace["pairs"]
        assert verify_certificate(cert, env, commutator(env.get("a"), env.get("b"))[0])

    def test_full_support_odometer_size(self):
        # full-support draws of depth 3: parking every pair in the single
        # separated cylinder of tau0 took 6336 factors on this triple
        backend = Odometer(3)
        rng = substream(33, "oracle:odo3")
        env = Environment(backend)
        for name in ("tau0", "a", "b"):
            env.define(name, random_element(rng, backend, 3, nontrivial=True))
        cert = commutator_in_normal_closure("a", "b", "tau0", env)
        assert len(cert.factors) <= 1300
        assert verify_certificate(cert, env, commutator(env.get("a"), env.get("b"))[0])

    def test_trivial_generator_rejected(self):
        backend = Odometer(2)
        env = Environment(backend, {"tau0": identity(backend)})
        env.define("a", identity(backend))
        with pytest.raises(PreconditionError):
            commutator_in_normal_closure("a", "a", "tau0", env)

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_randomized_roundtrip(self, backend):
        rng = substream(64, f"closure:{backend.tag}")
        for _ in range(6):
            env = Environment(backend)
            env.define("tau0", random_element(rng, backend, 4, nontrivial=True))
            env.define("a", random_element(rng, backend, 4, nontrivial=True,
                                           proper_support=True, moves=1))
            env.define("b", random_element(rng, backend, 4, nontrivial=True,
                                           proper_support=True, moves=1))
            cert = commutator_in_normal_closure("a", "b", "tau0", env)
            target = commutator(env.get("a"), env.get("b"))[0]
            assert verify_certificate(cert, env, target)
            assert scan_conjugate_form(cert, env)


def closure_draws():
    """(tag, environment) cases: the golden certify inputs, and three
    criterion-09 draws per backend (depth 5, tau0 no involution, alpha and
    beta of proper support moving one pair)."""
    cases = []
    for tag, x in INPUTS.items():
        env = Environment(parse_element(x["rotation"]).backend)
        for name in ("tau0", "alpha", "beta"):
            env.define(name, parse_element(x["rotation" if name == "tau0" else name]))
        cases.append((f"golden-{tag}", env))
    for backend in ALL_BACKENDS:
        rng = substream(65, f"c9:{backend.tag}")
        drawn = 0
        while drawn < 3:
            tau0 = random_element(rng, backend, 5, nontrivial=True)
            if equals(tau0, inverse(tau0)):
                continue
            env = Environment(backend, {"tau0": tau0})
            for name in ("alpha", "beta"):
                env.define(name, random_element(rng, backend, 5, nontrivial=True,
                                                proper_support=True, moves=1))
            if not commutator(env.get("alpha"), env.get("beta"))[0].is_identity():
                drawn += 1
                cases.append((f"{backend.tag}-{drawn}", env))
    return cases


@pytest.mark.parametrize("case", closure_draws(), ids=lambda case: case[0])
def test_closure_images_match_the_composed_elements(case, monkeypatch):
    # the reference composes tau = sigma^-1 tau0 sigma and
    # gamma = [gamma0, tau] as the synthesizer once did; the image chains
    # its two checks read must be those elements' images
    _, env = case
    transfers, images = [], []
    real_transfer, real_image = certificates.full_group_transfer, certificates._image

    def transfer(*args):
        transfers.append(real_transfer(*args))
        return transfers[-1]

    def image(word, A):
        images.append((A, real_image(word, A)))
        return images[-1][1]

    monkeypatch.setattr(certificates, "full_group_transfer", transfer)
    monkeypatch.setattr(certificates, "_image", image)
    trace = {}
    commutator_in_normal_closure("alpha", "beta", "tau0", env, trace)
    tau0 = env.get("tau0")
    assert trace["pairs"] > 0 and len(transfers) == len(images) == 2 * trace["pairs"]
    for k in range(trace["pairs"]):
        gamma0, sigma = (t.element for t in transfers[2 * k:2 * k + 2])
        (D, tau_D), (a_bound, gamma_a) = images[2 * k:2 * k + 2]
        tau = compose(compose(inverse(sigma), tau0), sigma)
        gamma = commutator(gamma0, tau)[0]
        assert tau_D == image_of_clopen(tau, D)
        assert gamma_a == image_of_clopen(gamma, a_bound)


class TestVerify:
    def _make(self, seed=81):
        backend = FullShift(2)
        env = random_env(backend, seed, [
            ("tau0", {"nontrivial": True}),
            ("a", {"nontrivial": True, "proper_support": True, "moves": 1}),
            ("b", {"nontrivial": True, "proper_support": True, "moves": 1})])
        cert = commutator_in_normal_closure("a", "b", "tau0", env)
        target = commutator(env.get("a"), env.get("b"))[0]
        return cert, env, target

    def test_identity_certificate(self):
        backend = Odometer(2)
        env = Environment(backend, {"t": identity(backend)})
        cert = ConjugateProduct("t", ())
        assert verify_certificate(cert, env, identity(backend))

    def test_roundtrip(self):
        cert, env, target = self._make()
        assert verify_certificate(cert, env, target)

    def test_sign_flip_fails(self):
        # a sign flip conjugates tau0^-1 instead of tau0, so the product
        # changes whenever tau0 is not an involution
        for seed in range(81, 120):
            cert, env, target = self._make(seed)
            tau0 = env.get("tau0")
            if equals(tau0, inverse(tau0)) or not cert.factors:
                continue
            flipped = ConjugateProduct(cert.generator, (
                ConjugateFactor(cert.factors[0].conjugator, -cert.factors[0].sign),
            ) + cert.factors[1:])
            assert not verify_certificate(flipped, env, target)
            return
        pytest.fail("no non-involution generator sampled")

    def test_generator_inside_conjugator_rejected(self):
        cert, env, target = self._make()
        bad = ConjugateProduct(cert.generator, (
            ConjugateFactor(GroupWord((("tau0", 1),)), 1),) + cert.factors)
        assert not scan_conjugate_form(bad, env)
        assert not verify_certificate(bad, env, target)

    def test_unresolved_name_raises(self):
        cert, env, target = self._make()
        other = Environment(env.backend, {"tau0": env.get("tau0")})
        with pytest.raises(MalformedInput):
            verify_certificate(cert, other, target)


class TestCertificateFiles:
    def test_json_roundtrip_bytes(self):
        backend = FullShift(2)
        env = random_env(backend, 91, [
            ("tau0", {"nontrivial": True}),
            ("a", {"nontrivial": True, "proper_support": True, "moves": 1}),
            ("b", {"nontrivial": True, "proper_support": True, "moves": 1})])
        cert = commutator_in_normal_closure("a", "b", "tau0", env)
        target = commutator(env.get("a"), env.get("b"))[0]
        text = encode_artifact(certificate_to_dict(cert, env, target, {"note": "roundtrip"}))
        cert2, env2, target2 = load_certificate(text)
        assert verify_certificate(cert2, env2, target2)
        assert encode_artifact(
            certificate_to_dict(cert2, env2, target2, {"note": "roundtrip"})) == text
        assert dump_certificate(cert2, env2, target2) == encode_artifact(
            certificate_to_dict(cert, env, target))

    def test_malformed_json(self):
        with pytest.raises(MalformedInput):
            load_certificate("{not json")

    def test_missing_field(self):
        with pytest.raises(MalformedInput):
            load_certificate("{}")

    def test_version_check(self):
        cert, env, target = TestVerify()._make(92)
        data = certificate_to_dict(cert, env, target)
        data["format_version"] = 99
        import json
        with pytest.raises(MalformedInput):
            load_certificate(json.dumps(data))
