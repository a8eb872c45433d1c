"""Exception types shared across the library."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AlgebraError):
    """Operands live in rings or algebras of different rank."""


class RankError(AlgebraError):
    """A variable or generator index lies outside the allowed range."""


def _require_ints(*values):
    """Raise RankError unless the ranks, indices and degrees are all ints."""
    if any(type(v) is not int for v in values):
        raise RankError(f"ranks, indices and degrees must be ints, got {values}")


class DomainError(AlgebraError):
    """The operation is undefined for the given element."""


class InvarianceError(AlgebraError):
    """An element expected to be symmetric is moved by a group generator."""

    def __init__(self, message, permutation=None):
        super().__init__(message)
        self.permutation = permutation


class MembershipError(AlgebraError):
    """A wreath-product element lies outside the image of the Lie algebra."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class KernelError(AlgebraError):
    """A vector violates the weighted constraint sum(j * t_j) = 0."""


class ResourceGuardError(AlgebraError):
    """A computation would enumerate more group elements than the cap allows."""


class InternalConsistencyError(AlgebraError):
    """An identity the theory guarantees failed to hold; indicates a bug."""


class ParseError(AlgebraError):
    """Malformed input text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
