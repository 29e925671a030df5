"""Exception types shared across the package."""


class PopdiffError(Exception):
    """Base class for all package-specific errors."""


class Singular(PopdiffError):
    """A matrix that needed an inverse is not invertible."""


class BothZero(PopdiffError):
    """gcd of two zero polynomials is undefined."""


class DimensionMismatch(PopdiffError):
    """Operands have incompatible shapes or moduli."""


class TooLarge(PopdiffError):
    """An enumeration would exceed the configured guard limit."""


class NotContained(PopdiffError):
    """A subspace argument is not contained in the declared ambient."""


class NotSymmetric(PopdiffError):
    """A matrix violated a declared symmetry class."""


class NotAutomorphism(PopdiffError):
    """A map (or a required difference of maps) is not invertible."""


class NotMeasurable(PopdiffError):
    """A function is not constant on the atoms of the given factor."""


class NonConvergent(PopdiffError):
    """An iterative decomposition hit its stage cap."""


class DependentDirections(PopdiffError):
    """Direction vectors were required to be linearly independent."""


class BadMagic(PopdiffError):
    """A grid-function file does not start with the expected magic."""


class VersionMismatch(PopdiffError):
    """A grid-function file has an unsupported format version."""


class CorruptLength(PopdiffError):
    """A grid-function file payload has the wrong length."""


class CheckFailed(PopdiffError):
    """A mathematical identity the code verifies at run time does not hold."""


def ensure(condition, message: str) -> None:
    """Raise CheckFailed(message) unless condition holds. Unlike assert, the
    check survives python -O."""
    if not condition:
        raise CheckFailed(message)
