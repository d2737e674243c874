"""Exception hierarchy shared by all fullgroup modules."""


class FullGroupError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(FullGroupError):
    """Ill-formed data: bad encodings, mixed bases, mixed backends, or
    input beyond a documented size limit (such as
    `decompose.MAX_DECOMPOSITION_CELLS`)."""


class ForeignPiece(MalformedInput):
    """A piece that breaks its model's rule (the model's `check_pieces`)."""


class PreconditionError(FullGroupError):
    """A documented precondition of an operation does not hold.

    Covers comparison-unavailable situations (e.g. the measure of the
    source is not below the measure of the target on the odometer).
    """


class PostconditionError(FullGroupError):
    """An internal construction failed its own certified postconditions.

    This never fires for admissible inputs; it is a bug signal, not a
    user-facing condition.
    """
