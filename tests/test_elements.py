"""Group laws, canonical equality, support, measure invariance."""

import itertools
import random
from operator import attrgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fullgroup.backends import FullShift, Odometer, OdometerPiece, Piece
from fullgroup.clopen import (ClopenSet, PointName, canonical_words, check_cylinders,
                              merge_families)
from fullgroup.elements import (GroupElement, _composed_pieces,
                                apply_point, check_measure_invariance,
                                commutator, compose, conjugate,
                                element_from_pieces, equals, identity,
                                image_of_clopen, inverse, involution_from_partial,
                                restrict, support)
from fullgroup import elements
from fullgroup.encoding import parse_element
from fullgroup.errors import MalformedInput, PreconditionError
from fullgroup.randomize import (random_clopen, random_element, random_word, rotation_element,
                                 substream, swap_equivalent_pair)
from fullgroup.transfers import exact_swap_involution

from conftest import apply_piece, bitmap, element_image, oracle_equal, piece_image


def cs(base, *words):
    return ClopenSet.from_words(base, words)


def odo_elem(base, *pieces):
    return element_from_pieces(Odometer(base),
                               [OdometerPiece(s, n, base) for s, n in pieces],
                               fill_identity=True)


def shift_elem(base, *pieces):
    return element_from_pieces(FullShift(base),
                               [Piece(s, t) for s, t in pieces],
                               fill_identity=True)


@pytest.fixture
def phi():
    return GroupElement(Odometer(2), (OdometerPiece((), 1),))


@pytest.fixture
def swap00_10(phi):
    return odo_elem(2, ((0, 0), 1), ((1, 0), -1))


class TestCanonicalForm:
    def test_identity_merges(self):
        deep = element_from_pieces(
            Odometer(2), [OdometerPiece(w, 0) for w in
                          ((0, 0, 0), (0, 0, 1), (0, 1), (1,))],
            fill_identity=False)
        assert deep == identity(Odometer(2))
        assert deep.is_identity()

    def test_shift_merge(self):
        e = shift_elem(2, ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1,), (0,)))
        assert e.pieces == (Piece((0,), (1,)), Piece((1,), (0,)))

    def test_two_presentations_equal(self):
        # [00] and [01] have values 0 and 2, so +-2 swaps them
        a = odo_elem(2, ((0, 0), 2), ((0, 1), -2))
        b_pieces = [OdometerPiece((0, 0, 0), 2), OdometerPiece((0, 0, 1), 2),
                    OdometerPiece((0, 1), -2)]
        b = element_from_pieces(Odometer(2), b_pieces, fill_identity=True)
        assert equals(a, b)

    def test_invalid_partition_rejected(self):
        with pytest.raises(MalformedInput):
            GroupElement(Odometer(2), (OdometerPiece((0,), 0),))

    def test_overlap_rejected(self):
        with pytest.raises(MalformedInput):
            GroupElement(Odometer(2), (
                OdometerPiece((), 0), OdometerPiece((0,), 0)))


def first_overlap(words):
    """The first pair of intersecting cylinders in sorted order, by a scan
    over all pairs, or None."""
    ordered = sorted(words)
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            if v[:len(u)] == u:
                return u, v
    return None


def reference_check_cylinders(words, base, which, *, cover):
    """An independent rule: the first overlapping pair in sorted order,
    then with `cover` the canonical form of the words must be the whole
    space."""
    pair = first_overlap(words)
    if pair is not None:
        raise MalformedInput(f"{which} cylinders overlap: {pair[0]} vs {pair[1]}")
    if cover and canonical_words(words, base) != ((),):
        raise MalformedInput(f"{which} cylinders do not cover the whole space")


def partition_verdict(check, words, base, cover=True):
    try:
        check(words, base, "range", cover=cover)
    except MalformedInput as err:
        return str(err)
    return None


@st.composite
def partition_candidates(draw):
    """A partition grown by splitting cylinders of the whole space, then
    up to three edits (drop: a gap; repeat: a duplicate; extend or cut: an
    overlap; digit: one digit set to base or -1; a free word), in any
    order; or a single word of depth up to 12, or no words."""
    base = draw(st.sampled_from([2, 3]))
    digit = st.integers(0, base - 1)
    free_word = st.lists(digit, max_size=12).map(tuple)
    shape = draw(st.sampled_from(["partition", "single", "empty"]))
    if shape == "single":
        return base, [draw(free_word)]
    if shape == "empty":
        return base, []
    words = [()]
    for _ in range(draw(st.integers(0, 8))):
        w = words.pop(draw(st.integers(0, len(words) - 1)))
        words += [w + (d,) for d in range(base)]
    for edit in draw(st.lists(st.sampled_from(
            ["drop", "repeat", "extend", "cut", "digit", "free"]), max_size=3)):
        w = words[draw(st.integers(0, len(words) - 1))] if words else ()
        if edit == "drop" and words:
            words.remove(w)
        elif edit == "repeat":
            words.append(w)
        elif edit == "extend":
            words.append(w + tuple(draw(st.lists(digit, min_size=1, max_size=3))))
        elif edit == "cut":
            words.append(w[:draw(st.integers(0, len(w)))])
        elif edit == "digit" and w:
            i = draw(st.integers(0, len(w) - 1))
            words[words.index(w)] = w[:i] + (draw(st.sampled_from([base, -1])),) + w[i + 1:]
        elif edit == "free":
            words.append(draw(free_word))
    return base, draw(st.permutations(words))


@settings(max_examples=400, deadline=None)
@given(partition_candidates())
@example((2, [(0, 0), (0, 2), (1,)]))  # disjoint, of measure 1, one digit out of range
def test_one_pass_partition_check_matches_reference(case):
    base, words = case
    assert (partition_verdict(check_cylinders, words, base)
            == partition_verdict(reference_check_cylinders, words, base))


@settings(max_examples=400, deadline=None)
@given(partition_candidates())
def test_overlap_check_matches_pairwise_scan(case):
    # without `cover`, only the first overlapping pair is reported
    base, words = case
    assert (partition_verdict(check_cylinders, words, base, cover=False)
            == partition_verdict(reference_check_cylinders, words, base, cover=False))


def test_partition_check_reports_overlap_before_gap():
    # [00] is missing and [1] overlaps [10]: the overlap is reported
    words = [(0, 1), (1,), (1, 0)]
    with pytest.raises(MalformedInput, match=r"source cylinders overlap: \(1,\) vs \(1, 0\)"):
        check_cylinders(words, 2, "source", cover=True)
    with pytest.raises(MalformedInput, match="do not cover the whole space"):
        check_cylinders([(0, 1), (1,)], 2, "source", cover=True)


class TestConstructor:
    def test_foreign_piece_class_rejected(self):
        # a valid shift element changes the depth, which no odometer piece
        # does; the adding machine carries into the tail, which no shift
        # piece does
        with pytest.raises(MalformedInput, match="keep the depth"):
            GroupElement(Odometer(2), (Piece((0,), (0, 0)), Piece((1, 0), (0, 1)),
                                       Piece((1, 1), (1,))))
        with pytest.raises(MalformedInput, match="carry nothing"):
            GroupElement(FullShift(2), (Piece((), (), 1),))

    @pytest.mark.parametrize("model", [Odometer, FullShift])
    @pytest.mark.parametrize("pieces", [
        (Piece((0,), (0,)), Piece((2,), (1,))),
        (Piece((0,), (0,)), Piece((1,), (2,))),
    ], ids=["source", "range"])
    def test_digit_out_of_range_rejected(self, model, pieces):
        # [0] and [2] are disjoint with measures summing to 1: only the
        # cover check's successor walk, which bounds every digit, rejects
        # them, as the constructor has no other digit check
        with pytest.raises(MalformedInput, match="cylinders do not cover the whole space"):
            GroupElement(model(2), pieces)

    def test_trusted_results_pass_the_checked_constructor(self, backend):
        # compose and inverse skip the checks and build canonical pieces
        # directly; rebuilding their results through the checked
        # constructor must neither reject nor change them
        rng = substream(4245, f"trusted:{backend.tag}")
        for _ in range(30):
            f = random_element(rng, backend, 4)
            g = random_element(rng, backend, 4)
            for x in (compose(f, g), inverse(f), conjugate(g, f),
                      inverse(compose(f, g)), identity(backend)):
                assert GroupElement(x.backend, x.pieces) == x


class TestElementFromPieces:
    @pytest.mark.parametrize("pieces, fill", [
        # overlapping sources [0] and [00]
        ([OdometerPiece((0,), 0), OdometerPiece((0, 0), 1)], True),
        # [00] -> [10] and [10] -> [10]: disjoint sources, overlapping ranges
        ([OdometerPiece((0, 0), 1), OdometerPiece((1, 0), 0)], True),
        # [00] -> [10] alone: the fill of [01] u [1] covers [10] twice and
        # leaves [00] uncovered
        ([OdometerPiece((0, 0), 1)], True),
        # a partial list without fill leaves [1] uncovered
        ([OdometerPiece((0,), 0)], False),
    ], ids=["overlapping-sources", "overlapping-ranges", "ranges-differ",
            "partial-no-fill"])
    def test_invalid_pieces_rejected(self, pieces, fill):
        with pytest.raises(MalformedInput):
            element_from_pieces(Odometer(2), pieces, fill_identity=fill)

    def test_shift_ranges_differ_rejected(self):
        with pytest.raises(MalformedInput):
            shift_elem(2, ((0,), (1, 0)))

    @pytest.mark.parametrize("model", [Odometer, FullShift])
    def test_digit_out_of_range_rejected(self, model):
        # a source digit fails the identity fill's clopen set; a range
        # digit, or a source digit with no fill, fails the cover check
        with pytest.raises(MalformedInput, match="digit 2 out of range for base 2"):
            element_from_pieces(model(2), [Piece((2,), (1,))])
        with pytest.raises(MalformedInput, match="range cylinders do not cover"):
            element_from_pieces(model(2), [Piece((1,), (2,))])
        with pytest.raises(MalformedInput, match="source cylinders do not cover"):
            element_from_pieces(model(2), [Piece((0,), (0,)), Piece((2,), (1,))],
                                fill_identity=False)


FILL_BACKENDS = [Odometer(2), Odometer(3), FullShift(2), FullShift(3)]


def reference_fill(backend, pieces):
    """The identity fill the sorted one replaced: identity pieces on the
    complement of the canonical union of the sources (`from_words`, which
    also checks the sources' digits), then the checked constructor."""
    sources = ClopenSet.from_words(backend.base, [p.source for p in pieces])
    return GroupElement(backend, tuple(pieces) + tuple(
        Piece(w, w) for w in sources.complement().words))


def outcome(build):
    """The pieces built, or the class and message of what was raised."""
    try:
        return build().pieces
    except Exception as err:
        return type(err), str(err)


@st.composite
def fill_candidates(draw):
    """A backend and pieces of its model for `element_from_pieces`: the
    moving pieces of a random element, some refined into their children,
    in any order (they fill back to the element), then up to two edits:
    drop a piece (the ranges then miss the sources), repeat one or add a
    child or a parent of its source (overlapping sources), or set one
    digit of a source or a target to base or -1."""
    backend = draw(st.sampled_from(FILL_BACKENDS))
    base = backend.base
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pieces = []
    for p in random_element(rng, backend, 4).pieces:
        if not p.is_identity() or draw(st.integers(0, 3)) == 0:
            refined = draw(st.booleans())
            pieces += [p.restrict((a,), base) for a in range(base)] if refined else [p]
    for edit in draw(st.lists(st.sampled_from(
            ["drop", "repeat", "child", "parent", "source digit", "target digit"]),
            max_size=2)):
        if not pieces:
            break
        i = draw(st.integers(0, len(pieces) - 1))
        p = pieces[i]
        bad = draw(st.sampled_from([base, -1]))
        if edit == "drop":
            del pieces[i]
        elif edit == "repeat":
            pieces.append(p)
        elif edit == "child":
            pieces.append(p.restrict((draw(st.integers(0, base - 1)),), base))
        elif edit == "parent":
            w = p.source[:draw(st.integers(0, len(p.source)))]
            pieces.append(Piece(w, w))
        elif edit == "source digit" and p.source:
            k = draw(st.integers(0, len(p.source) - 1))
            pieces[i] = p._replace(source=p.source[:k] + (bad,) + p.source[k + 1:])
        elif edit == "target digit" and p.target:
            k = draw(st.integers(0, len(p.target) - 1))
            pieces[i] = p._replace(target=p.target[:k] + (bad,) + p.target[k + 1:])
    return backend, draw(st.permutations(pieces))


@settings(max_examples=300, deadline=None)
@given(fill_candidates())
def test_identity_fill_matches_the_reference(case):
    # the same element, or the same exception class and message, as the
    # fill on the canonical union of the sources
    backend, pieces = case
    assert (outcome(lambda: element_from_pieces(backend, pieces))
            == outcome(lambda: reference_fill(backend, pieces)))


def test_identity_fill_names_an_overlap_before_a_foreign_piece():
    # the fill checks the sorted sources for overlaps before the element
    # applies the model's rule to the pieces
    pieces = [Piece((0,), (0, 1)), OdometerPiece((0,), 0), OdometerPiece((0, 1), 0)]
    with pytest.raises(MalformedInput, match=r"source cylinders overlap: \(0,\) vs \(0,\)"):
        element_from_pieces(Odometer(2), pieces)
    with pytest.raises(MalformedInput, match="keep the depth"):
        element_from_pieces(Odometer(2), pieces[:1] + [OdometerPiece((1,), 0)])


def test_checked_constructor_names_an_overlap_before_a_foreign_piece():
    # the constructor shares the fill's order: the source walk, then the
    # model's rule
    pieces = [Piece((0,), (0, 1)), OdometerPiece((0,), 0), OdometerPiece((0, 1), 0)]
    with pytest.raises(MalformedInput, match=r"source cylinders overlap: \(0,\) vs \(0,\)"):
        GroupElement(Odometer(2), tuple(pieces))
    with pytest.raises(MalformedInput, match="keep the depth"):
        GroupElement(Odometer(2), (pieces[0], OdometerPiece((1,), 0)))
    # the (u;+n) spelling cannot write the foreign piece, so the parser
    # refuses it as a bad piece, and the spelled rest names the overlap
    with pytest.raises(MalformedInput, match=r"bad odometer piece '\(0>01\)'"):
        parse_element("elem:odo2:[(0>01),(0;+0),(01;+0)]")
    with pytest.raises(MalformedInput, match=r"source cylinders overlap: \(0,\) vs \(0,\)"):
        parse_element("elem:odo2:[(0;+1),(0;+0),(01;+0)]")


@pytest.mark.parametrize("backend", FILL_BACKENDS, ids=lambda b: b.tag)
def test_one_source_walk_per_element(backend, monkeypatch):
    # the fill and the checked constructor share one assembly, which walks
    # the sources once: the fill's overlap walk is the only one
    walks = []
    real = check_cylinders

    def counted(words, base, which, *, cover):
        walks.append(which)
        return real(words, base, which, cover=cover)

    monkeypatch.setattr(elements, "check_cylinders", counted)
    rng = substream(2711, f"walks:{backend.tag}")
    for _ in range(20):
        f = random_element(rng, backend, 4)
        moving = [p for p in f.pieces if not p.is_identity()]
        for build in (lambda: element_from_pieces(backend, moving, fill_identity=True),
                      lambda: element_from_pieces(backend, f.pieces, fill_identity=False),
                      lambda: GroupElement(backend, f.pieces)):
            walks.clear()
            assert build() == f
            assert walks == ["source", "range"]


class TestInvolutionFromPartial:
    @pytest.mark.parametrize("backend, pieces, overlap", [
        # [0] -> [01]: the range lies inside the piece's own source
        (FullShift(2), [Piece((0,), (0, 1))], r"\(0,\) vs \(0, 1\)"),
        # [00] -> [10] and [010] -> [100]: disjoint sources, overlapping ranges
        (Odometer(2), [OdometerPiece((0, 0), 1), OdometerPiece((0, 1, 0), -1)],
         r"\(1, 0\) vs \(1, 0, 0\)"),
    ], ids=["range-meets-own-source", "ranges-overlap"])
    def test_overlap_is_a_precondition_error(self, backend, pieces, overlap):
        with pytest.raises(PreconditionError,
                           match="involution pieces must have disjoint sources and "
                                 r"ranges: source cylinders overlap: " + overlap):
            involution_from_partial(backend, pieces)

    @pytest.mark.parametrize("model", [Odometer, FullShift])
    @pytest.mark.parametrize("piece", [Piece((2,), (0,)), Piece((0,), (2,))],
                             ids=["source", "range"])
    def test_digit_out_of_range_is_a_precondition_error(self, model, piece):
        # the piece and its inverse put the digit on the source side
        with pytest.raises(PreconditionError, match="digit 2 out of range for base 2"):
            involution_from_partial(model(2), [piece])

    @pytest.mark.parametrize("backend, piece, rule", [
        (Odometer(2), Piece((0, 0), (1,)), "odometer pieces keep the depth"),
        (FullShift(2), Piece((0,), (1,), 1), "shift pieces carry nothing into the tail")])
    def test_foreign_piece_names_the_model_rule(self, backend, piece, rule):
        # not an overlap: the sources and ranges are disjoint
        with pytest.raises(PreconditionError) as caught:
            involution_from_partial(backend, [piece])
        assert str(caught.value) == (f"involution pieces break the model's rule: piece "
                                     f"{piece!r} does not belong to backend {backend.tag}: {rule}")

    def test_duplicate_sources_name_the_overlap(self):
        # an identity piece is its own inverse: its source comes twice
        with pytest.raises(PreconditionError, match=r"overlap: \(1,\) vs \(1,\)"):
            involution_from_partial(Odometer(2), [OdometerPiece((1,), 0)])


class TestPresentationIndependence:
    def test_refined_pieces_rebuild_the_same_element(self, backend):
        rng = substream(4244, f"refine:{backend.tag}")
        for _ in range(40):
            f = random_element(rng, backend, 4)
            pieces = []
            for p in f.pieces:
                if rng.random() < 0.5:
                    tails = itertools.product(range(backend.base),
                                              repeat=rng.randint(1, 3))
                    pieces.extend(p.restrict(t, backend.base) for t in tails)
                else:
                    pieces.append(p)
            rng.shuffle(pieces)
            assert GroupElement(backend, tuple(pieces)).pieces == f.pieces


class TestCompose:
    def test_identity_laws(self, phi):
        e = identity(Odometer(2))
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
            compose(phi, identity(FullShift(2)))

    def test_models_over_one_base_do_not_compose(self):
        for f, g in ((identity(Odometer(2)), identity(FullShift(2))),
                     (identity(FullShift(3)), identity(Odometer(3)))):
            with pytest.raises(MalformedInput, match="backend mismatch"):
                compose(f, g)


def reference_composed_pieces(f, g):
    """The composition rule the pull-back replaced: each piece of g, in
    source order, is split depth first in digit order until a source of f
    covers its range, found by a linear scan for a prefix, and the leaves
    are composed in that order."""
    base = f.base
    leaves = []
    stack = list(reversed(g.pieces))
    while stack:
        p = stack.pop()
        q = next((q for q in f.pieces if p.target[:len(q.source)] == q.source), None)
        if q is None:
            stack.extend(p.restrict((a,), base) for a in reversed(range(base)))
        else:
            leaves.append(q.after(p, base))
    return leaves


def carrying_element(rng, backend, max_depth):
    """A random odometer element whose pieces carry out of their sources:
    each power moves by +-1 or +-2 times b^(|source| + j), j <= 3, which
    keeps the range and gives negative powers, powers of at least
    b^|source| and powers near +-b^k."""
    base = backend.base
    pieces = [OdometerPiece(p.source, backend.power_of(p) + rng.choice([-2, -1, 1, 2])
                            * base ** (len(p.source) + rng.randint(0, 3)), base)
              for p in random_element(rng, backend, max_depth).pieces]
    return GroupElement(backend, tuple(pieces))


def translation(base, n):
    return GroupElement(Odometer(base), (OdometerPiece((), n),))


def one_at_a_time(f, g):
    """The blocks compose pushes, and the canonical merge of their pieces
    pushed one at a time, with the merge loop after each."""
    blocks = [list(block) for block in _composed_pieces(f, g)]
    flat = [p for block in blocks for p in block]
    return blocks, merge_families(zip(flat), f.base, attrgetter("source"), Piece.merge_siblings)


class TestPullBack:
    """compose pulls f's run of pieces back through each piece of g that
    f does not cover; it must give the depth-first split's pieces in the
    same order."""

    @staticmethod
    def _check(f, g):
        # the split ends only where f's sources partition the space
        for x in (f, g):
            assert GroupElement(x.backend, x.pieces) == x
        leaves = reference_composed_pieces(f, g)
        assert [p for block in _composed_pieces(f, g) for p in block] == leaves
        assert compose(f, g).pieces == GroupElement(f.backend, tuple(leaves)).pieces

    def test_matches_depth_first_split(self, backend):
        rng = substream(4247, f"pullback:{backend.tag}")
        for depth in range(2, 9):
            for _ in range(10):
                self._check(random_element(rng, backend, depth),
                            random_element(rng, backend, depth))

    def test_odometer_pieces_that_carry(self, base):
        backend = Odometer(base)
        rng = substream(4248, f"carry:{base}")
        shifts = [n for k in range(4) for n in (base ** k - 1, base ** k, base ** k + 1)]
        elements = ([translation(base, s * n) for n in shifts for s in (1, -1)]
                    + [carrying_element(rng, backend, 4) for _ in range(24)])
        for g in elements:
            for f in (random_element(rng, backend, 4), carrying_element(rng, backend, 4)):
                self._check(f, g)
                assert oracle_equal(compose(compose(f, g), inverse(g)), f)
                x = PointName(base, tuple(rng.randrange(base) for _ in range(5)), (1,))
                assert apply_point(compose(f, g), x) == apply_point(f, apply_point(g, x))

    def test_odometer_rotates_the_run_by_the_carry(self):
        # adding 1 on the whole space carries 1 into the tail: the
        # preimages of [00], [01], [1] (values 0, 2, 1) are [11], [10], [0]
        run = [OdometerPiece((0, 0), 10), OdometerPiece((0, 1), 20),
               OdometerPiece((1,), 30)]
        assert OdometerPiece((), 1).pull_back(run, 2) == [
            OdometerPiece((0,), 31), OdometerPiece((1, 0), 21), OdometerPiece((1, 1), 11)]
        # adding 3 on [1] maps value 1 to 4: [1] onto [0] with carry 2,
        # so the preimages of [0.0], [0.10], [0.11] are [1.0], [1.11], [1.10]
        run = [OdometerPiece((0, 0), 10), OdometerPiece((0, 1, 0), 20),
               OdometerPiece((0, 1, 1), 30)]
        assert OdometerPiece((1,), 3).pull_back(run, 2) == [
            OdometerPiece((1, 0), 13), OdometerPiece((1, 1, 0), 33),
            OdometerPiece((1, 1, 1), 23)]

    def test_blockwise_merge_matches_one_at_a_time(self, backend):
        # compose checks a pulled-back run only at its last piece; by the run
        # lemma no family inside a run merges, so merging every piece alone
        # gives the same canonical pieces
        rng = substream(4249, f"blocks:{backend.tag}")
        sample = carrying_element if backend.is_odometer else random_element
        for depth in range(2, 7):
            for _ in range(8):
                f, g = random_element(rng, backend, depth), sample(rng, backend, depth)
                for x, y in ((f, g), (g, f), (f, inverse(f)), (g, g)):
                    blocks, merged = one_at_a_time(x, y)
                    assert tuple(merged) == compose(x, y).pieces
                    for block in blocks:
                        assert merge_families(zip(block), x.base, attrgetter("source"),
                                              Piece.merge_siblings) == block

    def test_merge_cascades_across_covering_blocks(self):
        # g moves [0] by 2 (carry 1), so f's run on [0] is pulled back and
        # rotated; on [1] each piece of g lies in one piece of f, and the
        # three composed pieces, from three blocks, all have power 8: the
        # first two merge into [10], which merges with [11] into [1], and
        # the cascade stops at the run
        f = odo_elem(2, ((0, 0), 0), ((0, 1), 4), ((1, 0, 0), 0), ((1, 0, 1), 8),
                     ((1, 1), 4))
        g = odo_elem(2, ((0,), 2), ((1, 0, 0), 8), ((1, 0, 1), 0), ((1, 1), 4))
        assert len(f.pieces) == 5 and len(g.pieces) == 4
        blocks, merged = one_at_a_time(f, g)
        assert [len(block) for block in blocks] == [2, 1, 1, 1]
        want = (OdometerPiece((0, 0), 6), OdometerPiece((0, 1), 2), OdometerPiece((1,), 8))
        assert compose(f, g).pieces == tuple(merged) == want
        self._check(f, g)

    def test_shift_keeps_the_run_order(self):
        run = [Piece((0, 0, 0), (1,)), Piece((0, 0, 1), (0, 1))]
        assert Piece((1,), (0, 0)).pull_back(run, 2) == [
            Piece((1, 0), (1,)), Piece((1, 1), (0, 1))]


class TestInverse:
    def test_identity(self):
        assert inverse(identity(Odometer(2))).is_identity()

    def test_involution_is_self_inverse(self, swap00_10):
        assert equals(inverse(swap00_10), swap00_10)

    def test_shift_pair_swap(self):
        e = shift_elem(2, ((0,), (1, 1)), ((1, 1), (0,)), ((1, 0), (1, 0)))
        assert equals(inverse(e), e)

    def test_phi_inverse_not_phi(self, phi):
        assert not equals(phi, inverse(phi))


class TestInvolutionCheck:
    def test_self_inverse_iff_square_is_identity(self, backend):
        # the transfers check an involution as f = f^-1 on canonical
        # pieces; the square is the independent statement
        rng = substream(4246, f"involution:{backend.tag}")
        verdicts = set()
        for i in range(40):
            f = random_element(rng, backend, 3, moves=1 if i % 2 else None)
            square_is_identity = compose(f, f).is_identity()
            assert (f.pieces == inverse(f).pieces) == square_is_identity
            verdicts.add(square_is_identity)
        assert verdicts == {True, False}


class TestSupport:
    def test_identity(self):
        assert support(identity(Odometer(2))).is_empty()

    def test_swap(self, swap00_10):
        assert support(swap00_10) == cs(2, (0, 0), (1, 0))

    def test_shift_three_piece(self):
        e = shift_elem(2, ((0,), (1, 1)), ((1, 1), (0,)), ((1, 0), (1, 0)))
        assert support(e) == cs(2, (0,), (1, 1))

    def test_support_conjugation_exact(self):
        rng = substream(3, "supportconj")
        for backend in (Odometer(2), FullShift(2), Odometer(3), FullShift(3)):
            for _ in range(40):
                a = random_element(rng, backend, 4)
                b = random_element(rng, backend, 4)
                assert support(conjugate(b, a)) == image_of_clopen(b, support(a))

    def test_product_support_bound(self):
        rng = substream(4, "supportprod")
        for backend in (Odometer(2), FullShift(2)):
            for _ in range(40):
                f = random_element(rng, backend, 4)
                g = random_element(rng, backend, 4)
                assert support(compose(f, g)).is_subset(support(f) | support(g))
                assert support(inverse(f)) == support(f)


class TestCommutator:
    def test_self_commutator_trivial(self, phi):
        elem, witness = commutator(phi, phi)
        assert elem.is_identity()
        assert witness == (phi, phi)

    def test_commutator_with_identity(self, phi):
        elem, _ = commutator(phi, identity(Odometer(2)))
        assert elem.is_identity()

    def test_disjoint_supports_commute(self):
        a = odo_elem(2, ((0, 0), 1), ((1, 0), -1))     # swap values 0 and 1
        b = odo_elem(2, ((0, 1), 1), ((1, 1), -1))     # swap values 2 and 3
        assert support(a).intersect(support(b)).is_empty()
        elem, _ = commutator(a, b)
        assert elem.is_identity()

    def test_witness_evaluates(self):
        rng = substream(5, "witness")
        backend = FullShift(2)
        f = random_element(rng, backend, 3)
        g = random_element(rng, backend, 3)
        elem, witness = commutator(f, g)
        assert equals(commutator(*witness)[0], elem)


class TestImage:
    def test_identity_image(self):
        A = cs(2, (0, 1), (1, 0, 0))
        assert image_of_clopen(identity(Odometer(2)), A) == A

    def test_phi_on_half(self, phi):
        assert image_of_clopen(phi, cs(2, (0,))) == cs(2, (1,))

    def test_phi_carry_keeps_cylinder(self, phi):
        # adding one overflows [1] onto the whole of [0]
        assert image_of_clopen(phi, cs(2, (1,))) == cs(2, (0,))

    def test_shallow_set_through_deep_element(self):
        e = odo_elem(2, ((0, 0), 1), ((1, 0), -1))
        assert image_of_clopen(e, cs(2, (0,))) == cs(2, (0, 1), (1, 0))

    def test_base_mismatch(self, phi):
        with pytest.raises(MalformedInput, match="base mismatch between element and clopen set"):
            image_of_clopen(phi, cs(3, (0,)))


class TestEqualsOracle:
    @pytest.mark.parametrize("kind", ["odometer", "shift"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_equals_matches_pointwise_oracle(self, kind, base):
        backend = Odometer(base) if kind == "odometer" else FullShift(base)
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
        assert check_measure_invariance(identity(Odometer(2)), [cs(2, (0,))]) == ()

    def test_phi_quarter(self, phi):
        A = cs(2, (0, 1))
        assert image_of_clopen(phi, A).measure() == A.measure()
        assert check_measure_invariance(phi, [A]) == ()

    def test_shift_vacuous(self):
        flip = shift_elem(2, ((0,), (1,)), ((1,), (0,)))
        assert check_measure_invariance(flip, [cs(2, (0,))]) == ()

    def test_failing_sets_are_returned(self):
        # a shift element's pieces, forced onto the odometer, map [0] onto [11]
        f = GroupElement._trusted(Odometer(2), (
            Piece((0,), (1, 1)), Piece((1, 0), (1, 0)), Piece((1, 1), (0,))))
        assert check_measure_invariance(f, [cs(2, (0,)), cs(2, (1, 0))]) == (cs(2, (0,)),)

    def test_random_elements_invariant(self):
        for base in (2, 3):
            backend = Odometer(base)
            rng = substream(7, f"inv:{base}")
            trials = [ClopenSet.from_words(base, [w])
                      for d in (1, 2, 3)
                      for w in ClopenSet.whole(base).refine_to(d)]
            for _ in range(25):
                f = random_element(rng, backend, 4)
                assert check_measure_invariance(f, trials) == ()


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

    def test_base_mismatch(self, phi):
        with pytest.raises(MalformedInput, match="base mismatch between element and point"):
            apply_point(phi, PointName.zeros_tail(3, (0,)))


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
                pushed.append(apply_piece(piece, w, base))
            got = image_of_clopen(f, A).words
            deepest = max([len(w) for w in pushed + list(got)], default=0)
            assert bitmap(got, base, deepest) == bitmap(pushed, base, deepest)


DEEP_BACKENDS = [Odometer(2), Odometer(3), FullShift(2), FullShift(3)]


def deep_words(base):
    return st.lists(st.integers(0, base - 1), min_size=20, max_size=60).map(tuple)


@st.composite
def deep_elements(draw, backend):
    """A product of one or two involutions of cylinders of depth 20 to 60
    (odometer: (u;+n) with n up to three times b^|u|, so the piece can
    carry; shift: u -> v with free lengths), then perhaps a rotation,
    which moves the deep pieces' tails by its carry."""
    base = backend.base
    elem = identity(backend)
    for _ in range(draw(st.integers(1, 2))):
        u = draw(deep_words(base))
        if backend.is_odometer:
            bound = 3 * base ** len(u)
            n = draw(st.one_of(st.integers(-5, 5), st.integers(-bound, bound)))
            assume(n % base ** len(u))
            piece = OdometerPiece(u, n, base)
        else:
            v = draw(deep_words(base))
            assume(u[:len(v)] != v[:len(u)])
            piece = Piece(u, v)
        elem = compose(elem, involution_from_partial(backend, [piece]))
    if draw(st.booleans()):
        elem = compose(elem, rotation_element(backend, random.Random(draw(st.integers(0, 9)))))
    return elem


def deep_sample(rng, elem, length):
    """A word of the given length inside the source of a random piece."""
    p = rng.choice(elem.pieces)
    return p.source + tuple(rng.randrange(elem.base) for _ in range(length - len(p.source)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DEEP_BACKENDS), st.data())
def test_deep_words_agree_with_the_oracle(backend, data):
    """compose, inverse and restrict on pieces 20 to 60 digits deep,
    beyond the bitmap oracle's reach, against the pointwise images and
    tail carries of `conftest.piece_image`."""
    f, g = data.draw(deep_elements(backend)), data.draw(deep_elements(backend))
    fg, f_inv = compose(f, g), inverse(f)
    deepest = max(len(p.source) for p in f.pieces) + max(len(p.source) for p in g.pieces)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for _ in range(4):
        # a word this long keeps its image under g at least as deep as f's sources
        w = deep_sample(rng, g, deepest + 2)
        w1, k1 = element_image(g, w)
        w2, k2 = element_image(f, w1)
        assert element_image(fg, w) == (w2, k1 + k2)
        x = deep_sample(rng, f, deepest + 2)
        y, k = element_image(f, x)
        assert element_image(f_inv, y) == (x, -k)
        cut = x[:rng.randrange(len(x) - 1)]
        pieces = restrict(f, cut)
        assert ClopenSet.from_words(f.base, [p.source for p in pieces]) == \
            ClopenSet.from_words(f.base, [cut])
        for p in pieces:
            z = p.source + x[len(p.source):] if x[:len(p.source)] == p.source else \
                p.source + (0,) * (deepest + 2)
            assert piece_image(p, z, f.base) == element_image(f, z)


class TestBuiltPieces:
    """The piece rules build pieces with `backends.new_piece`, which
    `Piece.after` passes by when its piece is an identity."""

    def test_identity_heavy_products_match_the_oracle(self, backend):
        # swaps of small sets are identity on most of the space, and the
        # rotations move all of it: f's identity pieces cover g's ranges
        # (passed through) and g's identity pieces pull f's runs back
        base = backend.base
        rng = substream(4250, f"identity-heavy:{backend.tag}")
        for _ in range(12):
            swaps = [exact_swap_involution(backend, *swap_equivalent_pair(rng, backend, 4))
                     for _ in range(2)]
            rotation = rotation_element(backend, rng)
            for f, g in ((swaps[0], rotation), (rotation, swaps[0]), tuple(swaps)):
                fg = compose(f, g)
                depth = max(len(p.source) for p in f.pieces) + max(
                    len(p.source) for p in g.pieces) + 1
                for _ in range(40):
                    w = tuple(rng.randrange(base) for _ in range(depth))
                    w1, k1 = element_image(g, w)
                    w2, k2 = element_image(f, w1)
                    assert element_image(fg, w) == (w2, k1 + k2)

    def test_built_pieces_have_three_fields(self, backend):
        # tuple.__new__ checks no arity: every built piece must be a
        # (source, target, carry) Piece
        base = backend.base
        rng = substream(4251, f"fields:{backend.tag}")
        for _ in range(10):
            f, g = random_element(rng, backend, 4), random_element(rng, backend, 4)
            built = [*compose(f, g).pieces, *inverse(f).pieces, *compose(f, inverse(f)).pieces]
            built += restrict(f, random_word(rng, base, 5))
            for p in f.pieces:
                built += p.pull_back(restrict(g, p.target), base)
                family = [p.restrict((a,), base) for a in range(base)]
                merged = Piece.merge_siblings(p.source, family)
                assert merged == p
                built += [*family, merged, p.inverse()]
            A, B = swap_equivalent_pair(rng, backend, 4)
            built += backend.pair_onto(A - B, B - A)
            built += exact_swap_involution(backend, A, B).pieces
            assert all(type(p) is Piece and len(p) == 3 for p in built)
