"""Bounded and oracle runs against a dict-tape interpreter written here.

Machines are built from rule rows and reach the program only through their
enumeration index, so every run goes through `machine_from_index` as well.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from duelhalt.coding import seq_encode
from duelhalt.tm import (
    AppendixMachine,
    Converged,
    STILL_RUNNING,
    _serialize,
    machine_from_index,
    oracle_converges,
    run_bounded,
)

_RAW_OFFSET, _TAG_PLAIN, _TAG_ORACLE = 10, 0, 1
_SHIFT = {0: -1, 1: 1, 2: 0}
INPUTS = (0, 1, 2, 5, 13, 200)
BUDGETS = (0, 1, 3, 17, 60)
PREFIXES = ([], [0], [1], [1, 1, 0, 1], [7, 7], [2, 0, 1], [1] * 30 + [0])


def reference(flat, oracle, x, t, bits):
    """The value of the tape the machine halts on within t steps, step i
    reading bits[i] (0 past the end), or None while it still runs."""
    n_states, n_symbols, blank, start, n_halt = flat[:5]
    halting = set(flat[5:5 + n_halt])
    width = 6 if oracle else 5
    body = flat[6 + n_halt:]
    delta = {}
    for k in range(flat[5 + n_halt]):
        row = body[width * k:width * (k + 1)]
        delta[row[:-3]] = row[-3:]
    tape = {p: 1 for p in range(x.bit_length()) if x >> p & 1 and blank != 1}
    head, q = 0, start

    def value():
        return sum(1 << p for p, a in tape.items() if a == 1 and p >= 0)

    for i in range(t + 1):
        a = tape.get(head, blank)
        keys = [(q, a, 0), (q, a, 1)] if oracle else [(q, a)]
        if q in halting or not any(k in delta for k in keys):
            return value()
        if i == t:
            return None
        bit = bits[i] if i < len(bits) else 0
        rule = delta.get((q, a, bit) if oracle else (q, a))
        if rule is None:  # a rule only for the other bit, or a bit above 1
            return value()
        q, a2, mv = rule
        if a2 == blank:
            tape.pop(head, None)
        else:
            tape[head] = a2
        head += _SHIFT[mv]


def check_index(e, flat, oracle):
    for x in INPUTS:
        for t in BUDGETS:
            out = reference(flat, oracle, x, t, ())
            assert run_bounded(e, x, t) == (STILL_RUNNING if out is None else Converged(out))
        for s in PREFIXES:
            ran = reference(flat, oracle, x, max(len(s) - 1, 0), s) is not None
            assert oracle_converges(e, seq_encode(s), x) is ran


@st.composite
def machines(draw):
    """A machine that passes `TMachine.check`, as its tag and serialized rows."""
    oracle = draw(st.booleans())
    n_states = draw(st.integers(1, 4))
    n_symbols = draw(st.integers(2, 3))
    blank = draw(st.integers(0, n_symbols - 1))
    start = draw(st.integers(0, n_states - 1))
    halting = sorted(draw(st.sets(st.integers(0, n_states - 1), max_size=n_states)))
    working = [q for q in range(n_states) if q not in halting]
    state, symbol = st.integers(0, n_states - 1), st.integers(0, n_symbols - 1)
    head = (st.tuples(st.sampled_from(working), symbol, st.integers(0, 1)) if oracle
            else st.tuples(st.sampled_from(working), symbol)) if working else st.nothing()
    rows = draw(st.lists(st.tuples(head, state, symbol, st.integers(0, 2))
                         .map(lambda r: r[0] + r[1:]), max_size=8 if working else 0))
    flat = (n_states, n_symbols, blank, start, len(halting), *halting, len(rows))
    return oracle, flat + tuple(v for row in rows for v in row)


@settings(max_examples=150, deadline=None)
@given(machines())
def test_generated_machines_match_the_reference(machine):
    oracle, flat = machine
    e = _RAW_OFFSET + seq_encode(((_TAG_ORACLE if oracle else _TAG_PLAIN),) + flat)
    assert _serialize(machine_from_index(e)) == flat
    check_index(e, flat, oracle)


def _indices():
    rng = random.Random(20)
    return (list(range(40)) + [rng.randrange(10**6) for _ in range(40)]
            + [rng.randrange(10**30) for _ in range(40)])


@pytest.mark.parametrize("e", _indices())
def test_indices_match_the_reference(e):
    m = machine_from_index(e)
    if isinstance(m, AppendixMachine):
        return
    check_index(e, _serialize(m), m.oracle)


def test_stuck_oracle_rules_and_plain_machines_under_a_prefix():
    # rules for oracle bit 1 only: the all-blank oracle, or a bit above 1,
    # leaves the machine stuck, which counts as halting
    stuck = (1, 2, 0, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 1, 1, 0, 1, 2)
    e = _RAW_OFFSET + seq_encode((_TAG_ORACLE,) + stuck)
    assert _serialize(machine_from_index(e)) == stuck
    assert run_bounded(e, 3, 5) == Converged(3)
    assert oracle_converges(e, seq_encode([1, 1, 1]), 3) is False
    assert oracle_converges(e, seq_encode([1, 7, 1]), 3) is True
    check_index(e, stuck, True)
    # a plain machine that spins in place ignores the prefix symbols
    spin = (1, 2, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 1, 0, 1, 2)
    e = _RAW_OFFSET + seq_encode((_TAG_PLAIN,) + spin)
    assert _serialize(machine_from_index(e)) == spin
    assert oracle_converges(e, seq_encode([7, 7]), 1) is False
    assert oracle_converges(e, seq_encode([2, 0, 1]), 0) is False
    check_index(e, spin, False)
