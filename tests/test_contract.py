"""The input-boundary contract: every public parse and decode entry point,
the bounded machine runs and the bounded chain searches return or raise a
DuelhaltError, within a time bound, on any input (on small sizes, for the
searches, whose time grows exponentially with them)."""

import json
import signal
from contextlib import contextmanager
from itertools import islice

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from duelhalt.carddb import parse_decklist
from duelhalt.coding import pair, seq_decode, seq_encode
from duelhalt.engine import decode_configuration, encode_configuration
from duelhalt.engine.moves import decode_move, encode_move
from duelhalt.errors import DuelhaltError, MalformedCode
from duelhalt.reductions import (descending_chains, nis_membership_bounded, parse_order,
                                 reverse_omega, standard_omega)
from duelhalt.tm import (decode_tmconf, encode_tmconf, machine_from_index, oracle_converges,
                         parse_tm, run_bounded)
from duelhalt.trace import replay_trace, trace_lines

ALARM_S = 10  # whole seconds, as signal.alarm counts them


class Overran(Exception):
    pass


@contextmanager
def _alarm(seconds=ALARM_S):
    def ring(_signum, _frame):
        raise Overran(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def holds(fn, *args):
    """fn(*args) returns or raises a DuelhaltError; anything else (another
    exception, or the alarm) fails the contract."""
    with _alarm():
        try:
            fn(*args)
        except DuelhaltError:
            pass


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])
_INTS = st.one_of(st.integers(-2**70, 2**70), st.integers(-5, 300))
_WORDS = st.sampled_from(["start", "blank", "halt", "->", "L", "R", "S", "#", "0", "1", "-1",
                          "a", "h", "omega", "omega-reverse", "lex-pairs", "finite", "[main]", "[extra]",
                          "3\tPot of Desires", "x", "99999999999999999999", "\t", ""])
# free text, and lines of the formats' own keywords, numbers and separators
_TEXT = st.one_of(st.text(max_size=80), st.lists(
    st.lists(_WORDS, max_size=6).map(" ".join), max_size=6).map("\n".join))


def inverts(decode, encode, code):
    """holds(decode, code), and a code that decodes is the one its value
    encodes to: a decoder accepts a code only in the form the program writes."""
    with _alarm():
        try:
            value = decode(code)
        except DuelhaltError:
            return
    assert encode(value) == code


_RECORD_CODECS = ((decode_configuration, encode_configuration), (decode_move, encode_move))


@_SETTINGS
@given(_INTS)
@example(40_000 + seq_encode([0, 0, 0]))  # the blank machine configuration, overflow form
def test_decoders_on_any_integer(code):
    holds(machine_from_index, code)
    for decode, encode in _RECORD_CODECS + ((decode_tmconf, encode_tmconf),):
        inverts(decode, encode, code)


def _give_and_take_chain(run):
    return next(m for m in run.moves if getattr(m, "effect", None) == "give_and_take" and m.chain)


@_SETTINGS
@given(st.sampled_from(_RECORD_CODECS), st.lists(st.integers(0, 2**13), min_size=1, max_size=3))
@example(_RECORD_CODECS[0], [2014, 2015])  # draw_done's digit 0 -> 3: the flag reads 2
def test_decode_configuration_on_bit_flips(board_b, codec, bits):
    """Flip bits of set-up B's final configuration code, or of its chained
    Give and Take's move code."""
    decode, encode = codec
    code = encode(board_b.final if encode is encode_configuration
                  else _give_and_take_chain(board_b.run))
    for bit in bits:
        code ^= 1 << (bit % (code.bit_length() + 9))
    inverts(decode, encode, code)


def _with_attacked(board, attacked):
    flat = list(seq_decode(encode_configuration(board.final)))
    assert flat[13] == 0  # no attacker recorded yet
    return seq_encode(flat[:13] + [len(attacked), *attacked] + flat[14:])


_PROBES = {  # name -> board -> (decoder, a code no encoder writes)
    # FlipSummon(0, 2) and two values after its last field
    "trailing data": lambda board: (decode_move, pair(4, seq_encode([0, 2, 0, 7, 7]))),
    # a NormalSummon whose face-up flag is 5
    "flag 5": lambda board: (decode_move, pair(1, seq_encode([0, 3, 0, 5, 0]))),
    "duplicated set": lambda board: (decode_configuration, _with_attacked(board, [1, 1])),
    "unsorted set": lambda board: (decode_configuration, _with_attacked(board, [2, 1])),
}


@pytest.mark.parametrize("probe", list(_PROBES))
def test_non_canonical_codes_are_malformed(board_a, probe):
    decode, code = _PROBES[probe](board_a)
    with pytest.raises(MalformedCode):
        decode(code)


@_SETTINGS
@given(_TEXT)
def test_text_parsers_on_any_text(text):
    for parse in (parse_tm, parse_decklist, parse_order):
        holds(parse, text)


_FIELDS = st.one_of(st.none(), st.booleans(), _INTS, st.floats(), st.text(max_size=12),
                    st.lists(st.integers(), max_size=2))


@_SETTINGS
@given(st.lists(st.one_of(
    st.text(max_size=40),
    st.dictionaries(st.sampled_from(["move", "config", "turn"]), _FIELDS).map(json.dumps),
    st.sampled_from(["[" * 5000, "{}", "[1]", "nul", '{"move": 1e999, "config": "1"}']),
), max_size=3))
def test_replay_trace_on_any_lines(board_b, lines):
    good = list(islice(trace_lines(board_b.run), 2))  # two lines that replay
    holds(replay_trace, good + lines, board_b.run.configs[0])


@_SETTINGS
@given(_INTS, st.integers(-5, 10**6), st.integers(-5, 2000))
def test_run_bounded_on_any_integers(e, value, t):
    holds(run_bounded, e, value, t)


@_SETTINGS
@given(_INTS, st.one_of(st.integers(-5, 2**64), st.integers(-5, 300)), st.integers(-5, 10**6))
def test_oracle_converges_on_any_integers(z, s_code, n):
    holds(oracle_converges, z, s_code, n)


_SMALL = st.integers(-5, 12)


@_SETTINGS
@given(st.sampled_from([standard_omega(), reverse_omega()]), _SMALL, st.integers(-5, 6),
       st.one_of(st.none(), _SMALL))
def test_descending_chains_on_any_small_integers(x, first_max, length, bound):
    holds(descending_chains, x, first_max, length, bound)


@_SETTINGS
@given(st.integers(-5, 300), st.integers(-5, 6), st.integers(-5, 6), st.integers(-5, 60))
def test_nis_membership_bounded_on_any_small_integers(e, depth, bound, steps):
    holds(nis_membership_bounded, e, depth, bound, steps)


def test_the_alarm_rings():
    with pytest.raises(Overran), _alarm(1):
        while True:
            pass
