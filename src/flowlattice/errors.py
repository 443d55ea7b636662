"""Exception types shared across the package."""


class FlowLatticeError(Exception):
    """Base class for all errors raised by this package.  `tag` names the
    refusal on the command line: `ERROR <tag>: <message>`, exit 2."""

    tag = "BAD-INPUT"


class DimensionError(FlowLatticeError, ValueError):
    """Shapes of the operands do not fit the operation."""


class BoundExceededError(FlowLatticeError, RuntimeError):
    """Instance too large for exact enumeration; raise, never approximate."""

    tag = "BOUND-EXCEEDED"

    def __init__(self, what, size, bound):
        self.what = what
        self.size = size
        self.bound = bound
        super().__init__(
            f"instance too large for exact enumeration: {what} = {size} > {bound}"
        )


class NotABaseError(FlowLatticeError, ValueError):
    """The given ground subset is not a base; carries a certificate."""

    tag = "NOT-A-BASE"

    def __init__(self, subset, certificate):
        self.subset = tuple(subset)
        self.certificate = certificate
        super().__init__(
            f"dependent or undersized set {self.subset}: {certificate}"
        )


class MembershipError(FlowLatticeError, ValueError):
    """A vector is not an element of the lattice; carries the violated equation."""

    tag = "NOT-IN-LATTICE"

    def __init__(self, message, equation=None):
        self.equation = equation
        super().__init__(message)


class DefinitenessError(FlowLatticeError, ValueError):
    """A Gram matrix failed positive definiteness; carries the vanishing minor."""

    def __init__(self, order, minor):
        self.order = order
        self.minor = minor
        super().__init__(
            f"leading principal minor of order {order} is {minor}; "
            "the Gram matrix is not positive definite"
        )


class FormatError(FlowLatticeError, ValueError):
    """Malformed input file or text block."""
