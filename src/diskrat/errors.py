"""Exception types shared across the package."""


class DiskratError(Exception):
    """Base class for all library-specific errors."""


class PointNotInDisk(DiskratError):
    """A point required to lie strictly inside the unit disk does not."""


class NonFiniteIntegrand(DiskratError):
    """An integrand produced a non-finite value at a quadrature node."""

    def __init__(self, node_index, value):
        super().__init__(
            f"integrand is non-finite at node index {node_index}: {value!r}"
        )
        self.node_index = node_index
        self.value = value

    def __reduce__(self):
        # rebuilt from the fields, not from args (the message), so a worker
        # process's error reaches its parent
        return type(self), (self.node_index, self.value)


class ValueOutOfRange(DiskratError):
    """A value is out of its range: an interpolation row that is not a finite
    double (or an alpha that would give one), or an error value that is not
    finite and non-negative."""


class AccuracyNotReached(DiskratError):
    """Adaptive node doubling hit its cap before successive results agreed."""


class GridTooLarge(DiskratError):
    """A quadrature grid would need more than circlequad.MAX_NODES nodes."""


class DesignTooLarge(DiskratError):
    """A basis evaluation, design matrix or competitor scan would need more
    than tm_basis.MAX_DESIGN_BYTES."""


class IndexOutOfRange(DiskratError):
    """A basis or coefficient index exceeds what the object holds."""


class CountOutOfRange(DiskratError):
    """A requested term count exceeds the stored coefficient count."""


class TrailingPolesMismatch(DiskratError):
    """The trailing block of the pole sequence does not equal the kernel point."""


class OrderTooSmall(DiskratError):
    """The approximation order n is smaller than the kernel weight alpha."""


class IllConditioned(DiskratError):
    """The discrete least-squares problem is rank deficient or near-singular."""

    def __init__(self, condition):
        super().__init__(
            f"design matrix is rank deficient or near-singular "
            f"(condition estimate {condition:.6g})"
        )
        self.condition = condition

    def __reduce__(self):
        return type(self), (self.condition,)
