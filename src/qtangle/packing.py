"""Kronecker packing: a Laurent polynomial's integer coefficients as one int.

The coefficients c_0, c_1, ... of q^base, q^(base+1), ... are packed as
P = sum_j c_j 2^(bits j).  The digits are balanced: every |c_j| is below
2^(bits-1), the top bit of a digit being headroom for its sign, so P
determines every c_j.  The product of two packed polynomials is then the
packed product, one big-int multiply done in C, as long as every
coefficient of the product stays below the same limit (Kronecker
substitution; D. Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 44, 2009).  A sum of packed
polynomials is likewise the packed sum.

``width`` is the rule that keeps the digits apart: given a bound on every
coefficient a computation can produce, it returns a digit width with room
for it, a multiple of WORD = 32 bits.  ``low_digit`` finds the lowest
nonzero digit, and ``pack`` and ``unpack`` convert to and from lists.  The
evaluator's slice maps are exact, so nothing here truncates.
"""

from __future__ import annotations

import struct

__all__ = ["WORD", "width", "pack", "unpack", "low_digit"]

# digit widths are multiples of 32 bits: wide enough that a slice's
# coefficients rarely outgrow one digit, narrow enough that the packed
# entries carry few zero bits.  On the colour-1 links and braid closures
# of the benchmark, best of 9 in one process, 64-bit digits took 5-9%
# longer and 16-bit ones, repacked far more often, about half as long again
WORD = 32

# the struct format of a digit one or two words wide
_FORMATS = {32: "I", 64: "Q"}


def width(bound: int) -> int:
    """The narrowest digit width, a multiple of WORD, whose balanced digits
    hold every coefficient of absolute value at most ``bound``: bound is
    below 2^(bits-1).  A bound that is not an int, as the L1 norm of
    Fraction coefficients is not, raises TypeError."""
    if type(bound) is not int:
        raise TypeError(f"only integer coefficients pack, not a bound of "
                        f"{bound!r}")
    return WORD * (bound.bit_length() // WORD + 1)


def pack(coeffs, bits: int) -> int:
    """The integers c_0, c_1, ... as one int with digits of ``bits`` bits.

    A coefficient that is not an int, such as a Fraction, raises TypeError.
    Long lists pack in halves, so that no shift moves more than half of
    the result at a time: one digit at a time would take time quadratic in
    the length.
    """
    if len(coeffs) > 32:
        half = len(coeffs) // 2
        return pack(coeffs[:half], bits) + \
            (pack(coeffs[half:], bits) << bits * half)
    p = 0
    for c in reversed(coeffs):
        if type(c) is not int:
            raise TypeError(f"only integer coefficients pack, not {c!r}")
        p = (p << bits) + c
    return p


def unpack(p: int, bits: int) -> list[int]:
    """The digits of p from digit 0 up to its highest nonzero one.

    Adding the digit bias 2^(bits-1) to every digit makes each one a
    nonnegative run of bytes, with nothing carried between them, so the
    digits are read straight off p's bytes: by struct for 32- and 64-bit
    digits, a slice at a time for wider ones.
    """
    if not p:
        return []
    step = bits // 8
    n = p.bit_length() // bits + 1
    bias = int.from_bytes((bytes(step - 1) + b"\x80") * n, "little")
    raw = (p + bias).to_bytes(step * n, "little")
    h = 1 << (bits - 1)
    fmt = _FORMATS.get(bits)
    if fmt:
        cs = [w - h for w in struct.unpack(f"<{n}{fmt}", raw)]
    else:
        cs = [int.from_bytes(raw[i:i + step], "little") - h
              for i in range(0, len(raw), step)]
    while not cs[-1]:
        cs.pop()
    return cs


def low_digit(p: int, bits: int) -> int:
    """The index of the lowest nonzero digit of p, which must be nonzero:
    the digits below it are zero, so p's trailing zero bits end in it."""
    return ((p & -p).bit_length() - 1) // bits
