"""Named randomized property suites behind the CLI selftest command.

Each suite runs `trial_count` seeded trials of one module's invariants
and reports per-property pass counts plus encoded counterexamples.
Identical configurations produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import randomize as rz
from .backends import BackendId, compare_clopen, source_range, validate_bisection
from .certificates import (FORMAT_VERSION, Environment,
                           commutator_in_normal_closure,
                           expand_commutator_product, normality_certificate,
                           scan_conjugate_form, split_nontrivial_support,
                           verify_certificate)
from .clopen import ClopenSet
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
        if self.trial_count < 1:
            raise MalformedInput("trial_count must be >= 1")
        if self.trial_count > MAX_TRIALS:
            raise MalformedInput(f"trial_count {self.trial_count} is over the limit "
                                 f"of {MAX_TRIALS}")


class _Property:
    def __init__(self, name: str):
        self.name = name
        self.passes = 0
        self.failures = 0
        self.counterexamples: list[str] = []

    def record(self, ok: bool, detail: str = "") -> None:
        if ok:
            self.passes += 1
            return
        self.failures += 1
        if len(self.counterexamples) < 5:
            self.counterexamples.append(detail)


class _Suite:
    def __init__(self):
        self.properties: dict[str, _Property] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.properties.setdefault(name, _Property(name)).record(ok, detail)

    def report(self) -> list[dict]:
        out = []
        for name in sorted(self.properties):
            p = self.properties[name]
            out.append({"name": name, "passes": p.passes, "failures": p.failures,
                        "counterexamples": p.counterexamples})
        return out


def _depth(config: RunConfig) -> int:
    return max(3, config.max_depth)


def _suite_clopen(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"clopen:{config.backend.tag}")
    base = config.backend.base
    for _ in range(config.trial_count):
        A = rz.random_clopen(rng, base, _depth(config))
        B = rz.random_clopen(rng, base, _depth(config))
        C = rz.random_clopen(rng, base, _depth(config))
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
            suite.check("small-diameter-small-measure",
                        A.volume() <= depth_bound, detail)
            suite.check("positive-measure",
                        A.volume() >= Fraction(1, base ** A.max_depth()), detail)


def _suite_group_axioms(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"axioms:{config.backend.tag}")
    for _ in range(config.trial_count):
        f = rz.random_element(rng, config.backend, _depth(config))
        g = rz.random_element(rng, config.backend, _depth(config))
        h = rz.random_element(rng, config.backend, _depth(config))
        e = identity(config.backend)
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


def _suite_measure_invariance(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"invariance:{config.backend.tag}")
    base = config.backend.base
    trials = [ClopenSet.from_words(base, [w])
              for d in range(1, min(4, _depth(config)) + 1)
              for w in ClopenSet.whole(base).refine_to(d)]
    for _ in range(config.trial_count):
        f = rz.random_element(rng, config.backend, _depth(config))
        report = check_measure_invariance(f, trials)
        suite.check("pushforward-fixes-measure", report.passed,
                    format_element(f))


def _suite_support_conjugation(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"supportconj:{config.backend.tag}")
    for _ in range(config.trial_count):
        a = rz.random_element(rng, config.backend, _depth(config))
        b = rz.random_element(rng, config.backend, _depth(config))
        lhs = support(conjugate(b, a))
        rhs = image_of_clopen(b, support(a))
        suite.check("conjugated-support", lhs == rhs,
                    f"{format_element(a)} {format_element(b)}")


def _suite_comparison(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"comparison:{config.backend.tag}")
    for _ in range(config.trial_count):
        A, B = rz.comparison_pair(rng, config.backend, _depth(config))
        U = compare_clopen(config.backend, A, B)
        src, dst = source_range(U)
        detail = f"{format_clopen(A)} {format_clopen(B)}"
        suite.check("witness-valid", validate_bisection(U) is None, detail)
        suite.check("source-exact", src == A, detail)
        suite.check("range-inside", dst.is_subset(B), detail)


def _suite_lemma_transfers(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"transfers:{config.backend.tag}")
    for _ in range(config.trial_count):
        A, B = rz.comparison_pair(rng, config.backend, _depth(config))
        res = full_group_transfer(config.backend, A, B)
        alpha = res.element
        image = image_of_clopen(alpha, A)
        detail = f"{format_clopen(A)} {format_clopen(B)}"
        suite.check("transfer-image", image.is_subset(B), detail)
        if res.postcondition_tag == INVOLUTION_SMALL_SUPPORT:
            suite.check("transfer-involution", compose(alpha, alpha).is_identity(), detail)
            suite.check("transfer-support", support(alpha).is_subset(A | image), detail)
        else:
            suite.check("transfer-proper-cosupport", not (A | support(alpha)).is_whole(), detail)
        A2, B2 = rz.comparison_pair(rng, config.backend, _depth(config), factor=3)
        res2 = commutator_transfer(config.backend, A2, B2)
        gamma = res2.element
        g1 = image_of_clopen(gamma, A2)
        g2 = image_of_clopen(gamma, g1)
        detail = f"{format_clopen(A2)} {format_clopen(B2)}"
        suite.check("commutator-image", g1.is_subset(B2), detail)
        suite.check("commutator-witness",
                    res2.witness is not None
                    and equals(res2.witness.evaluate(config.backend), gamma), detail)
        if res2.postcondition_tag == COMMUTATOR_CYCLIC:
            suite.check("commutator-square-image", g2.is_subset(B2), detail)
            suite.check("commutator-support",
                        support(gamma).is_subset(A2 | g1 | g2), detail)
        else:
            suite.check("commutator-proper-cosupport",
                        not (A2 | support(gamma)).is_whole(), detail)


def _suite_swap(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"swap:{config.backend.tag}")
    for _ in range(config.trial_count):
        A, B = rz.swap_equivalent_pair(rng, config.backend, _depth(config))
        alpha = exact_swap_involution(config.backend, A, B)
        detail = f"{format_clopen(A)} {format_clopen(B)}"
        suite.check("swap-image", image_of_clopen(alpha, A) == B, detail)
        suite.check("swap-involution", compose(alpha, alpha).is_identity(), detail)
        suite.check("swap-support",
                    support(alpha) == (A | B) - (A & B), detail)


def _suite_gw(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"gw:{config.backend.tag}")
    rounds = 4
    for _ in range(config.trial_count):
        A, B = rz.swap_equivalent_pair(rng, config.backend, _depth(config))
        detail = f"{format_clopen(A)} {format_clopen(B)}"
        prev = gw_intertwining(config.backend, A, B, 0)
        ok_diam = ok_annulus = ok_support = ok_nested = True
        for n in range(1, rounds + 1):
            state = gw_intertwining(config.backend, A, B, n)
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


def _suite_decompose(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"decompose:{config.backend.tag}")
    epsilons = [Fraction(1, 4), Fraction(1, 8)]
    for i in range(config.trial_count):
        f = rz.random_element(rng, config.backend, _depth(config), nontrivial=True)
        eps = epsilons[i % len(epsilons)]
        res = decompose_small_support(f, eps)
        prod = reduce(compose, res.factors, identity(config.backend))
        detail = format_element(f)
        suite.check("decompose-product", equals(prod, f), detail)
        suite.check("decompose-bounds-proper",
                    all(b.is_proper() for b in res.bounds), detail)
        suite.check("decompose-supports",
                    all(support(g).is_subset(b)
                        for g, b in zip(res.factors, res.bounds)), detail)
        if res.epsilon is not None:
            suite.check("decompose-small-measure",
                        all(b.volume() < eps for b in res.bounds), detail)


def _suite_split(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"split:{config.backend.tag}")
    for _ in range(config.trial_count):
        tau = rz.random_element(rng, config.backend, _depth(config), nontrivial=True)
        res = split_nontrivial_support(tau)
        detail = format_element(tau)
        suite.check("split-product", equals(compose(res.tau1, res.tau2), tau), detail)
        suite.check("split-proper-supports",
                    not support(res.tau1).is_whole()
                    and not support(res.tau2).is_whole(), detail)
        suite.check("split-certificate",
                    equals(res.certificate.evaluate(res.environment), res.tau1), detail)


def _suite_certificates(config: RunConfig, suite: _Suite) -> None:
    rng = rz.substream(config.seed, f"certs:{config.backend.tag}")
    for _ in range(config.trial_count):
        env = Environment(config.backend)
        names = []
        for nm in ("g1", "g2", "h1", "h2"):
            names.append(env.define(nm, rz.random_element(rng, config.backend, 3)))
        exp = expand_commutator_product(["g1", "g2"], ["h1", "h2"])
        suite.check("expansion-identity",
                    equals(exp.lhs.evaluate(env), exp.rhs.evaluate(env)),
                    " ".join(names))
        tau = rz.random_element(rng, config.backend, 3, nontrivial=True,
                                proper_support=True)
        alpha = rz.random_element(rng, config.backend, 3, nontrivial=True,
                                  proper_support=True, moves=1)
        env2 = Environment(config.backend, {"tau": tau, "alpha": alpha})
        word = normality_certificate("tau", "alpha", env2)
        w = word.evaluate(env2)
        suite.check("normality-identity",
                    equals(conjugate(alpha, tau), conjugate(w, tau)),
                    f"{format_element(tau)} {format_element(alpha)}")
        tau0 = rz.random_element(rng, config.backend, 3, nontrivial=True)
        a = rz.random_element(rng, config.backend, 3, nontrivial=True,
                              proper_support=True, moves=1)
        b = rz.random_element(rng, config.backend, 3, nontrivial=True,
                              proper_support=True, moves=1)
        env3 = Environment(config.backend, {"tau0": tau0, "a": a, "b": b})
        cert = commutator_in_normal_closure("a", "b", "tau0", env3)
        target = commutator(a, b)[0]
        detail = f"{format_element(tau0)} {format_element(a)} {format_element(b)}"
        suite.check("closure-verifies", verify_certificate(cert, env3, target), detail)
        suite.check("closure-form", scan_conjugate_form(cert, env3), detail)


SUITES = {
    "clopen-algebra": _suite_clopen,
    "group-axioms": _suite_group_axioms,
    "measure-invariance": _suite_measure_invariance,
    "support-conjugation": _suite_support_conjugation,
    "comparison": _suite_comparison,
    "lemma-transfers": _suite_lemma_transfers,
    "swap-involution": _suite_swap,
    "gw-intertwining": _suite_gw,
    "decompose-small": _suite_decompose,
    "split-normal": _suite_split,
    "certificates": _suite_certificates,
}


def run_selftest(suite_name: str, config: RunConfig) -> dict:
    """Run one named suite; returns the JSON-ready report."""
    if suite_name not in SUITES:
        raise MalformedInput(
            f"unknown suite {suite_name!r}; available: {', '.join(sorted(SUITES))}")
    suite = _Suite()
    SUITES[suite_name](config, suite)
    properties = suite.report()
    return {
        "format_version": FORMAT_VERSION,
        "suite": suite_name,
        "backend": config.backend.tag,
        "seed": config.seed,
        "max_depth": config.max_depth,
        "trial_count": config.trial_count,
        "properties": properties,
        "ok": all(p["failures"] == 0 for p in properties),
    }
