"""Seeded random generation of clopen sets, admissible pairs and
elements for the property suites.

All generators take an explicit random.Random; suites derive their
generators from a run seed by labelled hashing so that counterexamples
are reproducible and reports byte-identical.
"""

from __future__ import annotations

import hashlib
import random
from functools import reduce

from .backends import BackendId, OdometerPiece, Piece
from .clopen import ClopenSet, Word
from .elements import GroupElement, compose, element_from_pieces, identity
from .transfers import exact_swap_involution


def substream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_word(rng: random.Random, base: int, max_len: int) -> Word:
    """A word of 1 to max_len random digits."""
    return tuple(rng.randrange(base) for _ in range(rng.randint(1, max_len)))


def random_clopen(rng: random.Random, base: int, max_depth: int, *,
                  nonempty: bool = False, proper: bool = False) -> ClopenSet:
    """A clopen set from a handful of random cylinder words."""
    while True:
        count = rng.randint(0 if not nonempty else 1, 4)
        words = [random_word(rng, base, max_depth) for _ in range(count)]
        A = ClopenSet.from_words(base, words)
        if nonempty and A.is_empty():
            continue
        if proper and A.is_whole():
            continue
        return A


def equal_measure_pair(rng: random.Random, region: ClopenSet,
                       max_depth: int) -> tuple[ClopenSet, ClopenSet]:
    """Two equal-measure clopen sets inside `region` (equal cylinder
    counts at a common depth), neither inside the other."""
    lo = max(2, region.max_depth())
    while True:
        depth = rng.randint(lo, max(lo, max_depth))
        pool = list(region.refine_to(depth))
        if len(pool) < 2:
            continue
        k = rng.randint(1, max(1, min(3, len(pool) // 2)))
        A = ClopenSet.from_words(region.base, rng.sample(pool, k))
        B = ClopenSet.from_words(region.base, rng.sample(pool, k))
        if A.is_subset(B) or B.is_subset(A):
            continue
        return A, B


def swap_equivalent_pair(rng: random.Random, backend: BackendId,
                         max_depth: int, *,
                         region: ClopenSet | None = None) -> tuple[ClopenSet, ClopenSet]:
    """An admissible input pair for exact_swap_involution inside `region`
    (by default the whole space): equal measures on the odometer,
    congruent cylinder counts mod base-1 on the shift."""
    base = backend.base
    region = region or ClopenSet.whole(base)
    if backend.is_odometer:
        return equal_measure_pair(rng, region, max_depth)
    while True:
        A = random_clopen(rng, base, max_depth, nonempty=True, proper=True) & region
        B = random_clopen(rng, base, max_depth, nonempty=True, proper=True) & region
        A1, B1 = A - B, B - A
        if A1.is_empty() or B1.is_empty():
            continue
        if (len(A1.words) - len(B1.words)) % (base - 1) != 0:
            continue
        return A, B


def comparison_pair(rng: random.Random, backend: BackendId, max_depth: int,
                    factor: int = 1) -> tuple[ClopenSet, ClopenSet]:
    """A pair admissible for comparison/transfer: B nonempty, A proper,
    and factor * mu(A) < mu(B) on the odometer."""
    base = backend.base
    while True:
        A = random_clopen(rng, base, max_depth, proper=True)
        B = random_clopen(rng, base, max_depth, nonempty=True)
        if backend.measure_below(A, B, factor):
            return A, B


def rotation_element(backend: BackendId, rng: random.Random) -> GroupElement:
    """A full-support sample element: a power of the adding machine on
    the odometer, a cyclic top-level relabelling on the shift."""
    base = backend.base
    if backend.is_odometer:
        return element_from_pieces(
            backend, [OdometerPiece((), rng.randint(1, base), base)], fill_identity=False)
    shift = rng.randint(1, base - 1)
    return element_from_pieces(
        backend, [Piece((a,), (((a + shift) % base),)) for a in range(base)],
        fill_identity=False)


def random_element(rng: random.Random, backend: BackendId, max_depth: int, *,
                   nontrivial: bool = False,
                   proper_support: bool = False,
                   moves: int | None = None) -> GroupElement:
    """A random element: exact swap involutions composed from the first one
    drawn (the identity if none is), optionally times a full-support rotation.

    With proper_support, all swaps happen inside the complement of a
    reserved cylinder, so the support is never the whole space.
    """
    base = backend.base
    region = ClopenSet.whole(base)
    if proper_support:
        region = ClopenSet.from_words(base, [random_word(rng, base, 2)]).complement()
    while True:
        swaps = [exact_swap_involution(backend, *swap_equivalent_pair(
                     rng, backend, max_depth, region=region))
                 for _ in range(moves if moves is not None else rng.randint(1, 3))]
        result = reduce(compose, swaps) if swaps else identity(backend)
        if not proper_support and rng.random() < 0.35:
            result = compose(result, rotation_element(backend, rng))
        if nontrivial and result.is_identity():
            continue
        return result
