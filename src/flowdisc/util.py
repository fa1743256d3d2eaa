"""Shared plumbing: error types, exact-rational serialization, seeded substreams."""

from __future__ import annotations

import hashlib
from fractions import Fraction


class ValidationError(ValueError):
    """An input violates a documented precondition or a file schema."""


class InternalCheckError(AssertionError):
    """A guaranteed bound or structural invariant failed at runtime.

    Reaching this indicates a bug in the library (or a falsified guarantee),
    never a user error.  The CLI maps it to exit code 2.
    """


def rat_to_str(x) -> str:
    """Serialize an exact rational as ``"num/den"`` (always with denominator)."""
    f = Fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        raise ValidationError(f"cannot write a rational this long: {exc}") from None


def rat_from_str(s) -> Fraction:
    """Parse a rational serialized by :func:`rat_to_str` (ints accepted, bools not)."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValidationError(f"expected rational string, got {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {s!r}: {exc}") from None


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
