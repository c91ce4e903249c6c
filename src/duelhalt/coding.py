"""Number codings used across the package.

Two primitives are fixed once and shared by every module:

* ``pair``/``unpair`` -- the Cantor pairing bijection on pairs of naturals,
  used for move codes and for the short tuples of the number channel
  (``triple``/``untriple`` are the nested forms).
* ``seq_encode``/``seq_decode`` -- a bijection between finite sequences of
  naturals and the naturals, with the empty sequence mapped to 0.  Nesting
  the Cantor pairing would blow up exponentially for long sequences, so
  sequences go through a self-delimiting binary code instead (each element's
  bits are doubled, elements are terminated by ``01``, and the resulting
  bit string is read back as a natural through the usual string bijection).
"""

from __future__ import annotations


def pair(x: int, y: int) -> int:
    """Cantor pairing of two naturals."""
    if x < 0 or y < 0:
        raise ValueError("pair is defined on naturals")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(n: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    if n < 0:
        raise ValueError("unpair is defined on naturals")
    # Largest s with s(s+1)/2 <= n, found exactly via isqrt.
    from math import isqrt

    s = (isqrt(8 * n + 1) - 1) // 2
    base = s * (s + 1) // 2
    y = n - base
    x = s - y
    return x, y


def triple(x: int, y: int, z: int) -> int:
    return pair(x, pair(y, z))


def untriple(n: int) -> tuple[int, int, int]:
    x, rest = unpair(n)
    y, z = unpair(rest)
    return x, y, z


# --- bijection between naturals and finite bit strings ---
#
# 0 <-> "", 1 <-> "0", 2 <-> "1", 3 <-> "00", ...  (binary of n+1 minus the
# leading 1).  This is the standard length-lexicographic enumeration.

def _nat_to_bits(n: int) -> str:
    if n < 0:
        raise ValueError("naturals only")
    return bin(n + 1)[3:]


# Read in base 4, a sequence code's bit pairs are its digits: 0 and 3 are an
# element's doubled 0 and 1 bits, 1 (the pair 01) ends an element, and 2
# (the pair 10) occurs in no code.
_QUADS = str.maketrans({f"{i:x}": f"{i >> 2}{i & 3}" for i in range(16)})  # hex -> base 4


def seq_encode(seq) -> int:
    """Encode a finite sequence of naturals as a natural; () -> 0."""
    vals = [int(v) + 1 for v in seq]
    if not vals:
        return 0
    if min(vals) < 1:
        raise ValueError("naturals only")
    # bin(v + 1) is 0b1 and then v's bits: each element's digits, after an end mark
    digits = "".join(map(bin, vals)).replace("1", "3").replace("0b3", "1")
    return int("1" + digits[1:] + "1", 4) - 1


def seq_decode(n: int) -> tuple[int, ...]:
    """Inverse of :func:`seq_encode`.

    Raises ValueError when the bit string is not a valid sequence code
    (a pair 10, an odd tail, an element with no end mark), naming the
    first fault reading left to right.
    """
    bits = _nat_to_bits(n)
    p = len(bits) // 2  # whole pairs; a leading hex 1 keeps their zeros
    quads = format(int("0" + bits[:2 * p], 2) + 16 ** p, "x").translate(_QUADS)[p + 2:]
    if "2" in quads:
        raise ValueError("invalid separator in sequence code")
    if len(bits) % 2:
        raise ValueError("truncated sequence code")
    *elements, rest = quads.split("1")
    if rest:
        raise ValueError("dangling element in sequence code")
    return tuple(int("1" + e.replace("3", "1"), 2) - 1 for e in elements)
