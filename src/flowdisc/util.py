"""Shared plumbing: error types, the exactness gate for every number a caller
passes (`exact`), rationals as ints over one scale, serialization, seeded substreams."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import lcm


class ValidationError(ValueError):
    """An input violates a documented precondition or a file schema."""


class InternalCheckError(AssertionError):
    """A guaranteed bound or structural invariant failed at runtime.

    Reaching this indicates a bug in the library (or a falsified guarantee),
    never a user error.  The CLI maps it to exit code 2.
    """


def rat_to_str(x) -> str:
    """Serialize an exact rational as ``"num/den"`` (always with denominator)."""
    f = exact_fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        raise ValidationError(f"cannot write a rational this long: {exc}") from None


def rat_from_str(s) -> Fraction:
    """Parse a rational serialized by :func:`rat_to_str` (ints accepted, bools not)."""
    if type(s) is not str and type(s) is not int:
        raise ValidationError(f"expected rational string, got {type(s).__name__}")
    return exact_fraction(s)


def exact(x):
    """`x` itself if it is an int or a `Fraction`, or the `Fraction` a str spells.

    Anything else, a bool or a binary floating-point number among them, is a
    ValidationError that names the value: converting it would silently store
    its rounding error as an exact number.
    """
    kind = type(x)
    if kind is int or kind is Fraction:
        return x
    if kind is str:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {x!r}: {exc}") from None
    raise ValidationError(f"expected an int, a Fraction or a str, got {kind.__name__} {x!r}")


def exact_fraction(x) -> Fraction:
    """:func:`exact`, as a `Fraction`."""
    return x if type(x) is Fraction else Fraction(exact(x))


def common_scale(values) -> int:
    """The lcm of the rationals' (or ints') denominators, 1 for none."""
    return lcm(*{v.denominator for v in values})


def scaled(v, scale: int) -> int:
    """The rational ``v`` times ``scale``, which its denominator divides."""
    return v.numerator * (scale // v.denominator)


def scaled_list(values, scale: int) -> list:
    """``[scaled(v, scale) for v in values]``, with no call per value; a None
    (a forbidden machine's time) stays None."""
    return [None if v is None else v.numerator * (scale // v.denominator) for v in values]


def int_from_json(v) -> int:
    """Parse a JSON integer (bools, floats and strings are rejected)."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValidationError(f"expected integer, got {type(v).__name__} {v!r}")


def list_from_json(v, what: str) -> list:
    """`v` if it is a JSON list: a string or an object is not iterated."""
    if not isinstance(v, list):
        raise ValidationError(f"{what} must be a list, got {type(v).__name__}")
    return v


def substream_seed(seed: int, name: str) -> int:
    """Derive a stable 63-bit seed for a named random substream.

    Stable across processes and platforms (unlike ``hash``).
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
