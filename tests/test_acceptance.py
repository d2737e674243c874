"""Acceptance suite: every criterion at its stated count and time budget.

All checks are exact (canonical-form or rational equality); there are no
numeric tolerances anywhere.  Each criterion prints one PASS/FAIL line
(run with -s to see them).
"""

import json
import time
from fractions import Fraction
from functools import reduce

from fullgroup.backends import FullShift, Odometer
from fullgroup.certificates import (ConjugateFactor, ConjugateProduct,
                                    Environment, commutator_in_normal_closure,
                                    scan_conjugate_form,
                                    split_nontrivial_support,
                                    verify_certificate)
from fullgroup.clopen import ClopenSet
from fullgroup.decompose import decompose_small_support
from fullgroup.elements import (check_measure_invariance, commutator, compose,
                                conjugate, equals, identity, image_of_clopen,
                                inverse, support)
from fullgroup.randomize import (comparison_pair, random_element, substream,
                                 swap_equivalent_pair)
from fullgroup.selftest import RunConfig, run_selftest
from fullgroup.transfers import (COMMUTATOR_CYCLIC, INVOLUTION_SMALL_SUPPORT,
                                 commutator_transfer, exact_swap_involution,
                                 full_group_transfer, gw_intertwining)

from conftest import oracle_equal

ODOMETERS = [Odometer(2), Odometer(3)]
SHIFTS = [FullShift(2), FullShift(3)]
SEED = 20260810


def report(name: str, started: float, budget: float, checks: int) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"{status}  {name}: {checks} exact checks in {elapsed:.1f}s "
          f"(budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def _element_at_depth(rng, backend, depth):
    while True:
        f = random_element(rng, backend, depth)
        if max(len(p.source) for p in f.pieces) <= depth:
            return f


def test_criterion_01_group_axioms_and_oracle():
    # 1000 element pairs/triples per backend kind, bases 2 and 3, depth <= 6:
    # group laws under canonical equality and agreement of equals with the
    # depth-refinement pointwise oracle on every pair
    started = time.perf_counter()
    checks = 0
    for backends in (ODOMETERS, SHIFTS):
        per_base = 500
        for backend in backends:
            rng = substream(SEED, f"c1:{backend.tag}")
            e = identity(backend)
            for i in range(per_base):
                f = _element_at_depth(rng, backend, 6)
                g = _element_at_depth(rng, backend, 6)
                h = _element_at_depth(rng, backend, 6)
                assert equals(compose(compose(f, g), h), compose(f, compose(g, h)))
                assert equals(compose(f, e), f) and equals(compose(e, f), f)
                assert compose(f, inverse(f)).is_identity()
                assert compose(inverse(f), f).is_identity()
                assert equals(f, g) == oracle_equal(f, g)
                if i % 10 == 0:
                    # every tenth pair is equal by construction, so the
                    # oracle's positive branch is exercised too
                    twin = compose(f, e)
                    assert equals(f, twin) and oracle_equal(f, twin)
                checks += 1
    report("criterion-01 group axioms + oracle", started, 30, checks)


def test_criterion_02_measure_invariance():
    # 200 random odometer elements x all cylinders to depth 6, exact equality
    started = time.perf_counter()
    checks = 0
    for backend in ODOMETERS:
        base = backend.base
        trials = [ClopenSet.from_words(base, [w])
                  for d in range(1, 7)
                  for w in ClopenSet.whole(base).refine_to(d)]
        rng = substream(SEED, f"c2:{backend.tag}")
        for _ in range(100):
            f = random_element(rng, backend, 6)
            assert check_measure_invariance(f, trials) == ()
            checks += len(trials)
    report("criterion-02 measure invariance", started, 10, checks)


def test_criterion_03_support_conjugation():
    # supp(b a b^-1) = b(supp(a)) exactly, 500 pairs per backend kind
    started = time.perf_counter()
    checks = 0
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c3:{backend.tag}")
            for _ in range(250):
                a = random_element(rng, backend, 6)
                b = random_element(rng, backend, 6)
                assert support(conjugate(b, a)) == image_of_clopen(b, support(a))
                checks += 1
    report("criterion-03 support conjugation", started, 10, checks)


def test_criterion_04_full_group_transfer():
    # 500 admissible pairs per backend kind: image containment plus the
    # branch postconditions (involution/support or proper co-support)
    started = time.perf_counter()
    checks = 0
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c4:{backend.tag}")
            for _ in range(250):
                A, B = comparison_pair(rng, backend, 6)
                res = full_group_transfer(backend, A, B)
                alpha = res.element
                image = image_of_clopen(alpha, A)
                assert image.is_subset(B)
                if res.postcondition_tag == INVOLUTION_SMALL_SUPPORT:
                    assert compose(alpha, alpha).is_identity()
                    assert support(alpha).is_subset(A | image)
                else:
                    assert not backend.is_odometer
                    assert not (A | support(alpha)).is_whole()
                checks += 1
    report("criterion-04 full-group transfer", started, 30, checks)


def test_criterion_05_commutator_transfer():
    # 500 admissible pairs per backend kind with the 3*mu threshold on the
    # odometer: gamma = [alpha, beta] via witness, image and support bounds
    started = time.perf_counter()
    checks = 0
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c5:{backend.tag}")
            for _ in range(250):
                A, B = comparison_pair(rng, backend, 6, factor=3)
                res = commutator_transfer(backend, A, B)
                gamma = res.element
                assert res.witness is not None
                assert equals(commutator(*res.witness)[0], gamma)
                g1 = image_of_clopen(gamma, A)
                assert g1.is_subset(B)
                if res.postcondition_tag == COMMUTATOR_CYCLIC:
                    g2 = image_of_clopen(gamma, g1)
                    assert g2.is_subset(B)
                    assert support(gamma).is_subset(A | g1 | g2)
                else:
                    assert not (A | support(gamma)).is_whole()
                checks += 1
    report("criterion-05 commutator transfer", started, 30, checks)


def test_criterion_06_swap_and_intertwining():
    # (a) 300 equal-measure (or prefix-exchange-equivalent) pairs: exact swap
    # (b) intertwining for rounds <= 8: per-round diameter, annulus transfer
    #     and support conditions
    started = time.perf_counter()
    checks = 0
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c6:{backend.tag}")
            for _ in range(75):
                A, B = swap_equivalent_pair(rng, backend, 6)
                alpha = exact_swap_involution(backend, A, B)
                assert image_of_clopen(alpha, A) == B
                assert compose(alpha, alpha).is_identity()
                assert support(alpha).is_subset(A | B)
                assert support(alpha) == (A | B) - (A & B)
                checks += 1
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c6gw:{backend.tag}")
            for _ in range(3):
                A, B = swap_equivalent_pair(rng, backend, 4)
                prev = gw_intertwining(backend, A, B, 0)
                for n in range(1, 9):
                    state = gw_intertwining(backend, A, B, n)
                    assert state.residual_a.diameter_bound() < Fraction(2) ** (1 - n)
                    step = compose(state.partial, inverse(prev.partial))
                    ann_a = prev.residual_a - state.residual_a
                    ann_b = prev.residual_b - state.residual_b
                    assert image_of_clopen(step, ann_a) == ann_b
                    assert support(step).is_subset(ann_a | ann_b)
                    assert state.residual_a.contains_point(state.anchor_a)
                    assert state.residual_b.contains_point(state.anchor_b)
                    prev = state
                    checks += 1
    report("criterion-06 swap + intertwining", started, 30, checks)


def test_criterion_07_small_support_decomposition():
    # 200 elements per backend kind, eps in {1/4, 1/8, 1/16}: exact product
    # reconstruction, proper bounds, strict measure bounds on the odometer
    started = time.perf_counter()
    checks = 0
    epsilons = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c7:{backend.tag}")
            for i in range(100):
                alpha = random_element(rng, backend, 6, nontrivial=True)
                eps = epsilons[i % 3]
                res = decompose_small_support(alpha, eps)
                prod = reduce(compose, res.factors, identity(backend))
                assert equals(prod, alpha)
                assert all(b.is_proper() for b in res.bounds)
                assert all(support(f).is_subset(b)
                           for f, b in zip(res.factors, res.bounds))
                if backend.is_odometer:
                    assert all(b.volume() < eps for b in res.bounds)
                checks += 1
    report("criterion-07 small-support decomposition", started, 60, checks)


def test_criterion_08_normal_splitting():
    # 100 nontrivial tau: tau = tau1 tau2, both supports proper, plus a
    # valid two-conjugate certificate for tau1
    started = time.perf_counter()
    checks = 0
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c8:{backend.tag}")
            for _ in range(25):
                tau = random_element(rng, backend, 5, nontrivial=True)
                res = split_nontrivial_support(tau)
                assert equals(compose(res.tau1, res.tau2), tau)
                assert not support(res.tau1).is_whole()
                assert not support(res.tau2).is_whole()
                assert len(res.certificate.factors) == 2
                assert equals(res.certificate.evaluate(res.environment), res.tau1)
                assert scan_conjugate_form(res.certificate, res.environment)
                checks += 1
    report("criterion-08 normal splitting", started, 30, checks)


def test_criterion_09_simplicity_pipeline():
    # 100 randomized runs per backend kind at depth <= 5: the certificate
    # verifies against [alpha, beta] exactly, the structural scan passes,
    # and flipping one sign breaks verification
    started = time.perf_counter()
    checks = 0
    for backends in (ODOMETERS, SHIFTS):
        for backend in backends:
            rng = substream(SEED, f"c9:{backend.tag}")
            runs = 0
            while runs < 50:
                env = Environment(backend)
                tau0 = random_element(rng, backend, 5, nontrivial=True)
                if equals(tau0, inverse(tau0)):
                    continue          # keep the sign-flip mutation observable
                env.define("tau0", tau0)
                env.define("alpha", random_element(rng, backend, 5, nontrivial=True,
                                                   proper_support=True, moves=1))
                env.define("beta", random_element(rng, backend, 5, nontrivial=True,
                                                  proper_support=True, moves=1))
                target = commutator(env.get("alpha"), env.get("beta"))[0]
                cert = commutator_in_normal_closure("alpha", "beta", "tau0", env)
                assert verify_certificate(cert, env, target)
                assert scan_conjugate_form(cert, env)
                if cert.factors:
                    flipped = ConjugateProduct(cert.generator, (
                        ConjugateFactor(cert.factors[0].conjugator,
                                        -cert.factors[0].sign),
                    ) + cert.factors[1:])
                    assert not verify_certificate(flipped, env, target)
                runs += 1
                checks += 1
    report("criterion-09 simplicity pipeline", started, 120, checks)


def test_criterion_10_determinism():
    # identical seeds produce byte-identical selftest reports
    started = time.perf_counter()
    reports = []
    for _ in range(2):
        batch = []
        for suite in ("group-axioms", "lemma-transfers", "certificates"):
            config = RunConfig(backend=FullShift(2), seed=SEED,
                               max_depth=4, trial_count=5)
            batch.append(json.dumps(run_selftest(suite, config), sort_keys=True))
        reports.append("\n".join(batch))
    assert reports[0] == reports[1]
    assert '"ok": true' in reports[0]
    report("criterion-10 determinism", started, 30, 2)
