"""Group laws, canonical equality, support, measure invariance."""

import pytest

from fullgroup.backends import (Bisection, OdometerPiece, ShiftPiece,
                                apply_piece, full_shift, odometer,
                                refine_piece_to)
from fullgroup.clopen import ClopenSet, Cylinder, PointName
from fullgroup.elements import (DerivedWitness, GroupElement, apply_point,
                                check_measure_invariance, commutator, compose,
                                conjugate, element_from_pieces, equals,
                                identity, image_of_clopen, inverse, support)
from fullgroup.errors import MalformedInput
from fullgroup.randomize import random_clopen, random_element, substream

from conftest import bitmap, oracle_equal


def cs(base, *words):
    return ClopenSet.from_words(base, words)


def odo_elem(base, *pieces):
    return element_from_pieces(odometer(base),
                               [OdometerPiece(s, n) for s, n in pieces],
                               fill_identity=True)


def shift_elem(base, *pieces):
    return element_from_pieces(full_shift(base),
                               [ShiftPiece(s, t) for s, t in pieces],
                               fill_identity=True)


@pytest.fixture
def phi():
    return GroupElement(Bisection(odometer(2), (OdometerPiece((), 1),)))


@pytest.fixture
def swap00_10(phi):
    return odo_elem(2, ((0, 0), 1), ((1, 0), -1))


class TestCanonicalForm:
    def test_identity_merges(self):
        deep = element_from_pieces(
            odometer(2), [OdometerPiece(w, 0) for w in
                          ((0, 0, 0), (0, 0, 1), (0, 1), (1,))],
            fill_identity=False)
        assert deep == identity(odometer(2))
        assert deep.is_identity()

    def test_shift_merge(self):
        e = shift_elem(2, ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1,), (0,)))
        assert e.pieces == (ShiftPiece((0,), (1,)), ShiftPiece((1,), (0,)))

    def test_two_presentations_equal(self):
        # [00] and [01] have values 0 and 2, so +-2 swaps them
        a = odo_elem(2, ((0, 0), 2), ((0, 1), -2))
        b_pieces = [OdometerPiece((0, 0, 0), 2), OdometerPiece((0, 0, 1), 2),
                    OdometerPiece((0, 1), -2)]
        b = element_from_pieces(odometer(2), b_pieces, fill_identity=True)
        assert equals(a, b)

    def test_invalid_partition_rejected(self):
        with pytest.raises(MalformedInput):
            GroupElement(Bisection(odometer(2), (OdometerPiece((0,), 0),)))

    def test_overlap_rejected(self):
        with pytest.raises(MalformedInput):
            GroupElement(Bisection(odometer(2), (
                OdometerPiece((), 0), OdometerPiece((0,), 0))))


class TestPresentationIndependence:
    def test_refined_pieces_rebuild_the_same_element(self, backend):
        rng = substream(4244, f"refine:{backend.tag}")
        for _ in range(40):
            f = random_element(rng, backend, 4)
            pieces = []
            for p in f.pieces:
                if rng.random() < 0.5:
                    depth = len(p.source) + rng.randint(1, 3)
                    pieces.extend(refine_piece_to(p, depth, backend.base))
                else:
                    pieces.append(p)
            rng.shuffle(pieces)
            assert GroupElement(Bisection(backend, tuple(pieces))).pieces == f.pieces


class TestCompose:
    def test_identity_laws(self, phi):
        e = identity(odometer(2))
        assert equals(compose(phi, e), phi)
        assert equals(compose(e, phi), phi)

    def test_inverse_law(self, phi):
        assert compose(phi, inverse(phi)).is_identity()
        assert compose(inverse(phi), phi).is_identity()

    def test_phi_squared(self, phi):
        # the deep presentation of adding twice merges back to one piece
        sq = compose(phi, phi)
        assert sq.pieces == (OdometerPiece((), 2),)
        assert image_of_clopen(sq, cs(2, (0, 0))) == cs(2, (0, 1))

    def test_shift_composition(self):
        flip = shift_elem(2, ((0,), (1,)), ((1,), (0,)))
        assert compose(flip, flip).is_identity()

    def test_backend_mismatch(self, phi):
        with pytest.raises(MalformedInput):
            compose(phi, identity(full_shift(2)))


class TestInverse:
    def test_identity(self):
        assert inverse(identity(odometer(2))).is_identity()

    def test_involution_is_self_inverse(self, swap00_10):
        assert equals(inverse(swap00_10), swap00_10)

    def test_shift_pair_swap(self):
        e = shift_elem(2, ((0,), (1, 1)), ((1, 1), (0,)), ((1, 0), (1, 0)))
        assert equals(inverse(e), e)

    def test_phi_inverse_not_phi(self, phi):
        assert not equals(phi, inverse(phi))


class TestSupport:
    def test_identity(self):
        assert support(identity(odometer(2))).is_empty()

    def test_swap(self, swap00_10):
        assert support(swap00_10) == cs(2, (0, 0), (1, 0))

    def test_shift_three_piece(self):
        e = shift_elem(2, ((0,), (1, 1)), ((1, 1), (0,)), ((1, 0), (1, 0)))
        assert support(e) == cs(2, (0,), (1, 1))

    def test_support_conjugation_exact(self):
        rng = substream(3, "supportconj")
        for backend in (odometer(2), full_shift(2), odometer(3), full_shift(3)):
            for _ in range(40):
                a = random_element(rng, backend, 4)
                b = random_element(rng, backend, 4)
                assert support(conjugate(b, a)) == image_of_clopen(b, support(a))

    def test_product_support_bound(self):
        rng = substream(4, "supportprod")
        for backend in (odometer(2), full_shift(2)):
            for _ in range(40):
                f = random_element(rng, backend, 4)
                g = random_element(rng, backend, 4)
                assert support(compose(f, g)).is_subset(support(f) | support(g))
                assert support(inverse(f)) == support(f)


class TestCommutator:
    def test_self_commutator_trivial(self, phi):
        elem, witness = commutator(phi, phi)
        assert elem.is_identity()
        assert witness.factors == ((phi, phi),)

    def test_commutator_with_identity(self, phi):
        elem, _ = commutator(phi, identity(odometer(2)))
        assert elem.is_identity()

    def test_disjoint_supports_commute(self):
        a = odo_elem(2, ((0, 0), 1), ((1, 0), -1))     # swap values 0 and 1
        b = odo_elem(2, ((0, 1), 1), ((1, 1), -1))     # swap values 2 and 3
        assert support(a).intersect(support(b)).is_empty()
        elem, _ = commutator(a, b)
        assert elem.is_identity()

    def test_witness_evaluates(self):
        rng = substream(5, "witness")
        backend = full_shift(2)
        f = random_element(rng, backend, 3)
        g = random_element(rng, backend, 3)
        elem, witness = commutator(f, g)
        assert equals(witness.evaluate(backend), elem)
        empty = DerivedWitness(())
        assert empty.evaluate(backend).is_identity()


class TestImage:
    def test_identity_image(self):
        A = cs(2, (0, 1), (1, 0, 0))
        assert image_of_clopen(identity(odometer(2)), A) == A

    def test_phi_on_half(self, phi):
        assert image_of_clopen(phi, cs(2, (0,))) == cs(2, (1,))

    def test_phi_carry_keeps_cylinder(self, phi):
        # adding one overflows [1] onto the whole of [0]
        assert image_of_clopen(phi, cs(2, (1,))) == cs(2, (0,))

    def test_shallow_set_through_deep_element(self):
        e = odo_elem(2, ((0, 0), 1), ((1, 0), -1))
        assert image_of_clopen(e, cs(2, (0,))) == cs(2, (0, 1), (1, 0))


class TestEqualsOracle:
    @pytest.mark.parametrize("kind", ["odometer", "shift"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_equals_matches_pointwise_oracle(self, kind, base):
        backend = odometer(base) if kind == "odometer" else full_shift(base)
        rng = substream(6, f"oracle:{backend.tag}")
        agree = 0
        for i in range(30):
            f = random_element(rng, backend, 3)
            if i % 3 == 0:
                g = compose(f, identity(backend))   # equal by construction
            else:
                g = random_element(rng, backend, 3)
            assert equals(f, g) == oracle_equal(f, g)
            agree += equals(f, g)
        assert agree >= 10  # the equal-by-construction pairs

    def test_carry_differs_beyond_depth(self):
        # same depth-1 images, different carries: must not be equal
        f = odo_elem(2, ((0,), 2), ((1,), -2))
        g = odo_elem(2, ((0,), 4), ((1,), -4))
        assert image_of_clopen(f, cs(2, (0,))) == image_of_clopen(g, cs(2, (0,)))
        assert not equals(f, g)
        assert not oracle_equal(f, g)


class TestMeasureInvariance:
    def test_identity_passes(self):
        report = check_measure_invariance(identity(odometer(2)), [cs(2, (0,))])
        assert report.passed and not report.vacuous

    def test_phi_quarter(self, phi):
        A = cs(2, (0, 1))
        assert image_of_clopen(phi, A).measure() == A.measure()
        report = check_measure_invariance(phi, [A])
        assert report.passed

    def test_shift_vacuous(self):
        flip = shift_elem(2, ((0,), (1,)), ((1,), (0,)))
        report = check_measure_invariance(flip, [cs(2, (0,))])
        assert report.passed and report.vacuous

    def test_random_elements_invariant(self):
        for base in (2, 3):
            backend = odometer(base)
            rng = substream(7, f"inv:{base}")
            trials = [ClopenSet.from_words(base, [w])
                      for d in (1, 2, 3)
                      for w in ClopenSet.whole(base).refine_to(d)]
            for _ in range(25):
                f = random_element(rng, backend, 4)
                assert check_measure_invariance(f, trials).passed


class TestApplyPoint:
    def test_piecewise_translation(self):
        from fullgroup.clopen import PointName
        e = odo_elem(2, ((0, 0), 3), ((1, 1), -3))
        p = PointName.zeros_tail(2, (0, 0))          # value 0
        assert apply_point(e, p) == PointName.zeros_tail(2, (1, 1))

    def test_shift_rewrite(self):
        from fullgroup.clopen import PointName
        e = shift_elem(2, ((0,), (1, 1)), ((1, 1), (0,)), ((1, 0), (1, 0)))
        p = PointName(2, (0,), (0, 1))
        assert apply_point(e, p) == PointName(2, (1, 1), (0, 1))


class TestPointwiseDifferential:
    """compose, inverse and image_of_clopen against their pointwise
    meaning, on seeded random elements of all four backends: a compose
    that is wrong in a consistent way still satisfies the group laws,
    but not these."""

    @staticmethod
    def _point(rng, base):
        pre = tuple(rng.randrange(base) for _ in range(rng.randint(0, 6)))
        per = tuple(rng.randrange(base) for _ in range(rng.randint(1, 3)))
        return PointName(base, pre, per)

    def test_compose_and_inverse_pointwise(self, backend):
        base = backend.base
        rng = substream(4242, f"pointwise:{backend.tag}")
        for _ in range(40):
            f = random_element(rng, backend, 4)
            g = random_element(rng, backend, 4)
            fg, f_inv = compose(f, g), inverse(f)
            for _ in range(5):
                x = self._point(rng, base)
                assert apply_point(fg, x) == apply_point(f, apply_point(g, x))
                assert apply_point(f_inv, apply_point(f, x)) == x

    def test_image_matches_pushed_cylinders(self, backend):
        base = backend.base
        rng = substream(4243, f"image:{backend.tag}")
        for _ in range(30):
            f = random_element(rng, backend, 3)
            A = random_clopen(rng, base, 3)
            depth = max([A.max_depth()] + [len(p.source) for p in f.pieces])
            pushed = []
            for w in A.refine_to(depth):
                piece = next(p for p in f.pieces if w[:len(p.source)] == p.source)
                pushed.append(apply_piece(piece, Cylinder(base, w)).word)
            got = image_of_clopen(f, A).words
            deepest = max([len(w) for w in pushed + list(got)], default=0)
            assert bitmap(got, base, deepest) == bitmap(pushed, base, deepest)
