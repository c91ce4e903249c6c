"""The integer codings, with the writer that the base-4 digit strings
replaced kept here as the reference: one ``put`` per field kind onto a flat
list of naturals, and the bit-string ``seq_encode`` over that list."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from duelhalt.carddb import lookup
from duelhalt.coding import (
    Fixed, Int, Maybe, Record, Seq, Set, Text, pair, seq_decode, seq_encode, triple, unpair,
    untriple,
)
from duelhalt.engine import config, decode_configuration, encode_configuration, replay_witness
from duelhalt.engine.config import CardInstance, update_player
from duelhalt.engine.moves import _TAG_OF, encode_move
from duelhalt.reductions import reduce_halting
from duelhalt.scripts import set_counters
from duelhalt.strategy import WIN, Budget, check_winning
from duelhalt.tm import CURATED

# --- the reference: the flat-list writer as it stood before the digit strings


def ref_seq_encode(seq) -> int:
    vals = [int(v) + 1 for v in seq]
    if not vals:
        return 0
    if min(vals) < 1:
        raise ValueError("naturals only")
    digits = "".join(map(bin, vals)).replace("1", "3").replace("0b3", "1")
    return int("1" + digits[1:] + "1", 4) - 1


def put(field, out: list, value) -> None:
    if isinstance(field, Int):
        out.append(value + field.shift)
    elif isinstance(field, Text):
        out.extend((len(value), *value.encode("ascii")))
    elif isinstance(field, Seq):
        vals = sorted(value) if isinstance(field, Set) else value
        out.append(len(vals))
        for v in vals:
            put(field.field, out, v)
    elif isinstance(field, Maybe):
        out.append(0 if value is None else 1)
        if value is not None:
            put(field.field, out, value)
    elif isinstance(field, Record):
        if field.version is not None:
            out.append(field.version)
        for attr, f in zip(field.attrs, field.fields):
            put(f, out, getattr(value, attr))
    elif isinstance(field, Fixed):
        for f, v in zip(field.fields, value):
            put(f, out, v)
    else:
        raise TypeError(f"no reference writer for {type(field).__name__}")


def flat(field, value) -> list[int]:
    out: list[int] = []
    put(field, out, value)
    return out


def ref_encode_configuration(conf) -> int:
    return ref_seq_encode(flat(config._CONFIGURATION, conf))


def ref_encode_move(move) -> int:
    tag, record = _TAG_OF[type(move)]
    return pair(tag, ref_seq_encode(flat(record, move)))


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


@given(st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2 ** 70)), max_size=30))
def test_seq_encode_matches_the_reference(xs):
    assert seq_encode(xs) == ref_seq_encode(xs)


def _halting_slow_witness():
    out = reduce_halting(CURATED["slow"])
    verdict = check_winning(out.run, out.strategy, Budget(200, 6))
    assert verdict.kind == WIN
    return replay_witness(out.run, verdict.witness)


def test_codes_match_the_reference_writer(board_a, board_b):
    # every configuration and move of both set-up runs, a counter plan and
    # the halting `slow` witness, first in run order, as traces encode them
    runs = [board_a.run, board_b.run, set_counters(board_a.final, 480).run,
            _halting_slow_witness()]
    confs, codes = [], []
    for run in runs:
        for conf in run.configs:
            code = encode_configuration(conf)
            assert code == ref_encode_configuration(conf)
            confs.append(conf)
            codes.append(code)
        for mv in run.moves:
            assert encode_move(mv) == ref_encode_move(mv)
    # then in shuffled order, and as equal but distinct configurations
    # decoded from their codes, each dropped before the next is decoded, so
    # that new records take the ids of freed ones: reuse never answers with
    # another record's digits
    order = list(range(len(confs)))
    random.Random(20261019).shuffle(order)
    for i in order:
        assert encode_configuration(confs[i]) == codes[i]
    for i in order:
        assert encode_configuration(decode_configuration(codes[i])) == codes[i]


def _set_card(conf, **fields):
    sts = list(conf.players[0].spelltraps)
    sts[sts.index(None)] = CardInstance(lookup("Soul Drain").id, face_up=False, **fields)
    return update_player(conf, 0, spelltraps=tuple(sts))


@pytest.mark.parametrize("encode", [
    pytest.param(lambda board: seq_encode([-1]), id="sequence"),
    pytest.param(lambda board: encode_configuration(update_player(board.final, 1, lp=-1)),
                 id="their-lp"),
    pytest.param(lambda board: encode_configuration(_set_card(board.final, counters=-1)),
                 id="card-counters"),
    pytest.param(lambda board: encode_configuration(update_player(board.final, 0, hand=(3, -2))),
                 id="pile"),
])
def test_negative_values_are_refused(board_a, encode):
    # a negative value has no digits: the writer must raise, never take a
    # table entry counted from the end
    encode_configuration(board_a.final)  # its records are the ones kept
    with pytest.raises(ValueError):
        encode(board_a)
