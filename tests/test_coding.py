import hashlib
import random

from hypothesis import given, strategies as st

from duelhalt.coding import pair, seq_decode, seq_encode, triple, unpair, untriple


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_pair_roundtrip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(0, 10**6))
def test_unpair_total(n):
    x, y = unpair(n)
    assert pair(x, y) == n


@given(st.lists(st.integers(0, 10**6), max_size=30))
def test_seq_roundtrip(xs):
    assert list(seq_decode(seq_encode(xs))) == xs


def test_empty_sequence_is_zero():
    assert seq_encode(()) == 0
    assert seq_decode(0) == ()


def test_seq_injective_small():
    seen = {}
    for xs in [(), (0,), (1,), (0, 0), (1, 0), (0, 1), (2,), (0, 0, 0)]:
        code = seq_encode(xs)
        assert code not in seen, (xs, seen[code])
        seen[code] = xs


@given(st.integers(0, 10**4), st.integers(0, 10**4), st.integers(0, 10**4))
def test_triple_roundtrip(a, b, c):
    assert untriple(triple(a, b, c)) == (a, b, c)


def test_not_every_natural_is_a_sequence_code():
    bad = 0
    for n in range(1, 2000):
        try:
            seq_decode(n)
        except ValueError:
            bad += 1
    assert bad > 1000


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_sequence_codes_are_pinned():
    # computed with the bit-at-a-time codec that the base-4 one replaced
    rng = random.Random(20261018)
    seqs = [tuple(rng.randrange(0, 2 ** rng.randrange(1, 70)) for _ in range(rng.randrange(0, 12)))
            for _ in range(400)]
    assert _digest([seq_encode(s) for s in seqs]) == \
        "f1da5b134163b9084cb5ac66f7b61c793c4d1e55a04847bdaa0a14a169ff5c0a"
    decoded = []
    for n in range(5000):
        try:
            decoded.append(seq_decode(n))
        except ValueError as exc:
            decoded.append(str(exc))
    assert _digest(decoded) == "2290d8d347ca97a600d34245b146c139710ae679b48734cab80f2a75ac85d84f"
