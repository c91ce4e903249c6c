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

Every record the package codes as a number -- configurations, their cards
and players, moves -- is a flat list of naturals under ``seq_encode``.  Its
layout is declared once, as (attribute, field) pairs built from the field
kinds below, and the one layout both writes and reads the list.  Reading is
strict: a list is accepted only in the form that writing produces, so a
decoded record re-encodes to the code it came from.  Faults are ValueErrors,
and MalformedCode at ``Field.decode``.  Each field kind's one writer,
``digits(value)``, returns its part of D: each element v as the base-4
digit 1, then the bits of v + 1 after its leading 1 (a 1 bit as 3), so
the list's code is exactly 4·int(D, 4).
"""

from __future__ import annotations

from functools import cache
from math import isqrt

from .errors import MalformedCode


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
    s = (isqrt(8 * n + 1) - 1) // 2  # the largest s with s(s+1)/2 <= n, exactly
    y = n - s * (s + 1) // 2
    return s - y, y


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

# Read in base 4, a sequence code's bit pairs are its digits: 0 and 3 are an
# element's doubled 0 and 1 bits, 1 (the pair 01) ends an element, and 2
# (the pair 10) occurs in no code.
_QUADS = str.maketrans({f"{i:x}": f"{i >> 2}{i & 3}" for i in range(16)})  # hex -> base 4


def _spell(n: int) -> str:  # the digits of the natural n
    return "1" + bin(n + 1)[3:].replace("1", "3")


@cache
def _table(shift: int) -> dict[int, str]:  # the digits of v + shift below 256, keyed by v
    return {v: _spell(v + shift) for v in range(-shift, 256 - shift)}


def seq_encode(seq) -> int:
    """Encode a finite sequence of naturals as a natural; () -> 0."""
    return 4 * int("".join(map(NAT.digits, seq)) or "0", 4)


def seq_decode(n: int) -> tuple[int, ...]:
    """Inverse of :func:`seq_encode`.

    Raises ValueError when the bit string is not a valid sequence code
    (a pair 10, an odd tail, an element with no end mark), naming the
    first fault reading left to right.
    """
    if n < 0:
        raise ValueError("naturals only")
    bits = bin(n + 1)[3:]
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


# --- flat record layouts ----------------------------------------------------


class Reader:
    """A strict cursor over a flat code: reading past its end, or stopping
    short of it, is a ValueError."""

    __slots__ = ("vals", "i")

    def __init__(self, vals):
        self.vals, self.i = vals, 0

    def take(self) -> int:
        i = self.i
        if i >= len(self.vals):
            raise ValueError("truncated code")
        self.i = i + 1
        return self.vals[i]

    def take_many(self, n: int) -> tuple[int, ...]:
        i = self.i
        if not 0 <= n <= len(self.vals) - i:
            raise ValueError("truncated code")
        self.i = i + n
        return tuple(self.vals[i:i + n])

    def done(self) -> None:
        if self.i != len(self.vals):
            raise ValueError("trailing data in code")


class Field:
    """A field kind: ``digits(value)`` writes a value as its elements'
    digits, and ``get(reader)`` reads back exactly the elements written."""

    def get_many(self, r: Reader, n: int) -> tuple:
        return tuple([self.get(r) for _ in range(n)])

    def read(self, vals):
        """The value whose elements are all of vals."""
        r = Reader(vals)
        value = self.get(r)
        r.done()
        return value

    def encode(self, value) -> int:
        return 4 * int(self.digits(value) or "0", 4)

    def decode(self, code: int):
        """The value whose flat list code is; a MalformedCode names any fault."""
        try:
            return self.read(seq_decode(code))
        except ValueError as exc:
            raise MalformedCode(str(exc)) from None


class Int(Field):
    """An integer in [lo, hi] (no upper bound when hi is None), written as
    value + shift so that the least value the field holds can be -shift,
    and read back through make when one is given (flags and enums)."""

    def __init__(self, shift: int = 0, lo: int | None = None, hi: int | None = None, make=None):
        self.shift, self.lo, self.hi, self.make = shift, -shift if lo is None else lo, hi, make
        self.table = _table(shift)

    def digits(self, value):
        d = self.table.get(value)
        if d is None and value + self.shift < 0:
            raise ValueError("naturals only")
        return d or _spell(value + self.shift)

    def get(self, r):
        v = r.take() - self.shift
        if v < self.lo or (self.hi is not None and v > self.hi):
            raise ValueError(f"value {v} out of range")
        return v if self.make is None else self.make(v)

    def get_many(self, r, n):  # piles of cards, in bulk
        vals = r.take_many(n)
        if self.shift:
            vals = tuple([v - self.shift for v in vals])
        if vals and (min(vals) < self.lo or (self.hi is not None and max(vals) > self.hi)):
            raise ValueError(f"value out of range {self.lo}..{self.hi}")
        return vals if self.make is None else tuple(map(self.make, vals))


class Text(Field):
    """An ASCII string: its length, then its bytes."""

    def digits(self, value):
        return NAT.digits(len(value)) + "".join(map(NAT.table.__getitem__, value.encode("ascii")))

    def get(self, r):
        return bytes(r.take_many(r.take())).decode("ascii")


class Seq(Field):
    """A tuple of any length: the length, then each value."""

    def __init__(self, field: Field):
        self.field = field

    def digits(self, value):
        if not value:
            return NAT.table[0]
        f = self.field
        if type(f) is Int:  # a pile, in one pass; a value the table lacks goes to f.digits
            try:
                return NAT.digits(len(value)) + "".join(map(f.table.__getitem__, value))
            except KeyError:
                pass
        return NAT.digits(len(value)) + "".join([f.digits(v) for v in value])

    def get(self, r):
        return self.field.get_many(r, r.take())


class Set(Seq):
    """A frozenset, written as a sequence in increasing order."""

    def digits(self, value):
        return Seq.digits(self, sorted(value))

    def get(self, r):
        vals = super().get(r)
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("set not in increasing order")
        return frozenset(vals)


class Maybe(Field):
    """None as 0, or 1 and then the value."""

    def __init__(self, field: Field):
        self.field = field

    def digits(self, value):
        return NAT.table[0] if value is None else NAT.table[1] + self.field.digits(value)

    def get(self, r):
        return self.field.get(r) if FLAG.get(r) else None


class Fixed(Field):
    """A tuple with one value of each field, in order."""

    def __init__(self, *fields: Field):
        self.fields = fields

    def digits(self, value):
        return "".join([f.digits(v) for f, v in zip(self.fields, value)])

    def get(self, r):
        return tuple([f.get(r) for f in self.fields])


class Record(Fixed):
    """An instance of cls, after its layout's version number if it has one.
    The layout names every field of cls, so reading fills them directly."""

    def __init__(self, cls, layout: list[tuple[str, Field]], version: int | None = None):
        self.cls, self.version, (self.attrs, self.fields) = cls, version, zip(*layout)
        self.layout, self.head = layout, "" if version is None else NAT.digits(version)

    def digits(self, value):
        return self.head + "".join([f.digits(getattr(value, a)) for a, f in self.layout])

    def get(self, r):
        if self.version is not None and r.take() != self.version:
            raise ValueError("unknown codec version")
        new = object.__new__(self.cls)
        new.__dict__.update(zip(self.attrs, super().get(r)))
        return new


NAT = Int()
FLAG = Int(hi=1, make=bool)
TEXT = Text()
LOC = Fixed(NAT, NAT, NAT)  # (player, zone kind, index)
