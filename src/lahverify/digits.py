"""Decimal digits of long integers, in time far below ``str()``'s.

CPython 3.11 writes an ``int`` in decimal in time quadratic in its digits.
A ``decimal.Decimal`` holds base-10**19 limbs, so its string is linear in
its digits, and its multiply is subquadratic. The ``lah`` and
``stirling1`` commands write their long values through this module, which
only they import, and only for a long value.
"""

from __future__ import annotations

from decimal import Decimal

# write_int converts a part of at most this many bits by Decimal(part)
PART_BITS = 128


def write_int(value: int) -> str:
    """``str(value)`` by divide and conquer, as CPython 3.12's ``_pylong``
    writes long ints: a value below 2^w is hi 2^h + lo with h = w // 2,
    each half is written the same way, and the two are joined by one
    Decimal multiply and add, with every power 2^h made once. It runs in
    the current decimal context, which must hold every value exactly, as
    the one of ``cli._exact_decimal`` does; one that cannot raises,
    through its traps, or rounds."""
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        if w not in powers:
            powers[w] = Decimal(2) ** w if w <= PART_BITS else power(w // 2) * power(w - w // 2)
        return powers[w]

    def write(part: int, w: int) -> Decimal:
        if w <= PART_BITS:
            return Decimal(part)
        h = w // 2
        hi = part >> h
        return write(part - (hi << h), h) + write(hi, w - h) * power(h)

    digits = str(write(abs(value), value.bit_length()))
    return "-" + digits if value < 0 else digits
