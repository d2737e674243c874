"""Exact calculus for full groups of two Cantor-space groupoid models.

The package provides the canonical clopen algebra, the odometer and
full-shift backends with their comparison primitive, the group algebra
of finitely piecewise homeomorphisms, witness synthesizers for
transfers, swaps, intertwinings and decompositions, and machine-checkable
conjugate-product certificates with a CLI front end.
"""

from .backends import (BackendId, Bisection, FullShift, Odometer,
                       OdometerPiece, Piece, compare_clopen, source_range)
from .certificates import (ConjugateFactor, ConjugateProduct, Environment,
                           GroupWord, SplitResult,
                           commutator_in_normal_closure, dump_certificate,
                           expand_commutator_product, load_certificate,
                           normality_certificate, split_nontrivial_support,
                           verify_certificate)
from .clopen import ClopenSet, MeasureValue, PointName
from .decompose import DecompositionResult, decompose_small_support
from .elements import (GroupElement, apply_point, check_measure_invariance,
                       commutator, compose, conjugate, element_from_pieces,
                       equals, identity, image_of_clopen, inverse,
                       involution_from_partial, support)
from .errors import (FullGroupError, MalformedInput, PostconditionError,
                     PreconditionError)
from .transfers import (GWState, TransferResult, commutator_transfer,
                        exact_swap_involution, full_group_transfer,
                        gw_intertwining)

__version__ = "0.1.0"
