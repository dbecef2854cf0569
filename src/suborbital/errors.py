"""Exception hierarchy shared by every module in the package.

All errors raised on purpose derive from SuborbitalError so callers can
catch domain failures without swallowing programming mistakes.  The
exception classes are public.  refuse_above, the shared helper for
resource ceilings, and plain_int, the one test of an integer parameter,
are not exported.
"""

__all__ = [
    "SuborbitalError",
    "ZeroOverZero",
    "NotInvertible",
    "InvalidModulus",
    "InvalidSpec",
    "InvalidBound",
    "BoundTooLarge",
    "MalformedDocument",
    "VersionMismatch",
    "InvariantViolation",
]


class SuborbitalError(Exception):
    """Base class for all failures this package raises deliberately."""


class ZeroOverZero(SuborbitalError):
    """0/0 has no projective meaning."""


class NotInvertible(SuborbitalError):
    """Residue has no multiplicative inverse for the given modulus."""


class InvalidModulus(SuborbitalError):
    """Modulus arguments must be positive integers."""


class InvalidSpec(SuborbitalError):
    """Graph or subgroup parameters violate a construction precondition."""


class InvalidBound(SuborbitalError):
    """Enumeration bounds must be at least 1."""


class BoundTooLarge(SuborbitalError):
    """A request's estimated work exceeds its resource ceiling."""


def refuse_above(what: str, estimate: int, ceiling: int) -> None:
    """Refuse, stating the estimate, a request priced above its ceiling."""
    if estimate > ceiling:
        bits = estimate.bit_length()  # str() fails past a few thousand digits
        shown = str(estimate) if bits <= 10_000 else f"more than 2**{bits - 1}"
        raise BoundTooLarge(f"{what} is {shown}, above the ceiling {ceiling}")


def plain_int(value: object) -> bool:
    """Whether value is an integer and not a bool: exactly what a JSON
    document's integer fields accept."""
    return isinstance(value, int) and not isinstance(value, bool)


class MalformedDocument(SuborbitalError):
    """Serialized graph document is structurally unreadable."""


class VersionMismatch(SuborbitalError):
    """Serialized graph document declares an unsupported format version."""


class InvariantViolation(SuborbitalError):
    """Deserialized data fails a semantic consistency check."""
