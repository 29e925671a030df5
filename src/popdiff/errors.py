"""Exception types shared across the package, and the checks that raise them."""

import math
import sys

FLOAT_MAX = sys.float_info.max


class PopdiffError(Exception):
    """Base class for all package-specific errors."""


class Singular(PopdiffError):
    """A matrix that needed an inverse is not invertible."""


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


def too_large(formula: str, estimate, limit) -> TooLarge:
    """The one form of a guard refusal: "<formula> = <estimate> exceeds guard <limit>"."""
    return TooLarge(f"{formula} = {estimate} exceeds guard {limit}")


def check_guard(formula: str, estimate: int, guard: int) -> None:
    """Raise too_large(formula, estimate, guard) when the integer work estimate passes the guard."""
    if estimate > guard:
        raise too_large(formula, estimate, guard)


def float_range_error(formula: str, log10_estimate: float) -> TooLarge:
    """The refusal of a float computation whose estimate, given by its base-10 logarithm, passes the float range."""
    mantissa, exponent = 10 ** (log10_estimate % 1), int(log10_estimate)
    return too_large(formula, f"{mantissa:.3g}e+{exponent}", f"{FLOAT_MAX:.6g}")


def finite(name: str, value: float) -> float:
    """value, when it is finite; else a ValueError naming the parameter."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {name} = {value}")
    return value


def is_int_tree(value, depth: int) -> bool:
    """value is an int, not a bool, at depth 0, and a list of depth - 1 such values at depth > 0."""
    if depth == 0:
        return type(value) is int
    return isinstance(value, list) and all(is_int_tree(v, depth - 1) for v in value)


def int_field(obj: dict, key: str, depth: int = 0):
    """obj[key] of a JSON document where is_int_tree(obj[key], depth) holds; else a ValueError naming the key."""
    if not is_int_tree(obj[key], depth):
        kind = f"a list of {'lists of ' * (depth - 1)}integers" if depth else "an integer"
        raise ValueError(f"{key!r} must be {kind}, got {obj[key]!r}")
    return obj[key]
