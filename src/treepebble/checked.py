"""Signed 64-bit guard rails.

Python integers never overflow on their own, but results here are specified
to fit a signed 64-bit word; anything larger is reported instead of silently
growing. Deficit doubling and 2^d terms are the usual offenders.
"""

from .errors import OverflowLimitError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def checked(value: int, what: str) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowLimitError(f"{what} {value} is outside the signed 64-bit range")
    return value


def require_int(value: object, what: str) -> None:
    """A count argument must be an int; a bool or a float is refused, as in ``simulate``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")


def pow2(exponent: int, what: str) -> int:
    # 2^63 already exceeds INT64_MAX, so exponents stop at 62.
    if exponent >= 63:
        raise OverflowLimitError(f"{what}: 2^{exponent} overflows a signed 64-bit integer")
    return 1 << exponent
