import signal

import pytest
from hypothesis import given, strategies as st

from duelhalt.coding import seq_encode
from duelhalt.errors import BadIndex, MalformedCode, TMParseError
from duelhalt.tm import (
    BUILTINS,
    CURATED,
    AppendixMachine,
    Converged,
    EMPTY_MACHINE,
    Halted,
    STILL_RUNNING,
    SUCC_MACHINE,
    TMConfiguration,
    decode_tmconf,
    encode_tmconf,
    format_tm,
    halted,
    initial_config,
    machine_from_index,
    machine_index,
    oracle_converges,
    parse_tm,
    run_bounded,
    step,
    step_n,
)


def test_empty_machine_halts_immediately():
    conf = initial_config(EMPTY_MACHINE, 9)
    assert isinstance(step(EMPTY_MACHINE, conf), Halted)


def test_successor_single_step_trace():
    # on input 1 ("1" at position 0) the first step clears the bit and moves
    conf = initial_config(SUCC_MACHINE, 1)
    nxt = step(SUCC_MACHINE, conf)
    assert not isinstance(nxt, Halted)
    assert nxt.head == 1 and nxt.tape == ()
    done = step(SUCC_MACHINE, nxt)
    assert not isinstance(done, Halted)
    assert done.value() == 2


def test_loop_machine_never_halts():
    m = BUILTINS[CURATED["loop"]]
    conf = initial_config(m, 3)
    for _ in range(500):
        nxt = step(m, conf)
        assert not isinstance(nxt, Halted)
        conf = nxt


@pytest.mark.parametrize("name,inp,expected", [
    ("empty", 5, 5),
    ("identity", 5, 5),
    ("successor", 5, 6),
    ("successor", 0, 1),
    ("decrement", 6, 5),
    ("bitclear", 12, 8),
    ("setlow", 4, 5),
    ("slow", 9, 9),
])
def test_curated_machines(name, inp, expected):
    r = run_bounded(CURATED[name], inp, 1000)
    assert r == Converged(expected)


def test_run_bounded_still_running():
    assert run_bounded(CURATED["loop"], 1, 10**4) == STILL_RUNNING
    assert run_bounded(CURATED["decrement"], 0, 10**4) == STILL_RUNNING


def test_run_bounded_zero_budget():
    assert run_bounded(CURATED["successor"], 3, 0) == STILL_RUNNING


def test_run_bounded_monotone():
    hits = []
    for t in range(0, 20):
        r = run_bounded(CURATED["successor"], 7, t)
        hits.append(isinstance(r, Converged))
    first = hits.index(True)
    assert all(hits[first:])


def test_run_bounded_bad_index():
    with pytest.raises(BadIndex):
        run_bounded(-1, 0, 10)


def test_enumeration_total_and_canonical():
    assert machine_from_index(0) == EMPTY_MACHINE
    for e in list(range(10)) + [11, 57, 4242, 99991]:
        m = machine_from_index(e)
        if isinstance(m, AppendixMachine):
            continue
        assert machine_from_index(machine_index(m)) == m


def test_index_of_builtins_is_identity():
    for e in range(10):
        assert machine_index(machine_from_index(e)) == e


def test_junk_codes_give_empty_machine():
    assert machine_from_index(10 + 1) in BUILTINS or machine_from_index(11) == EMPTY_MACHINE


def test_roundtrip_behavior_random_indices():
    for e in range(10, 200, 13):
        m = machine_from_index(e)
        if isinstance(m, AppendixMachine):
            continue
        e2 = machine_index(m)
        for x in (0, 1, 5):
            assert run_bounded(e2, x, 60) == _direct(m, x, 60)


def _direct(m, x, t):
    conf = initial_config(m, x)
    for _ in range(t):
        if halted(m, conf):
            return Converged(conf.value())
        nxt = step(m, conf)
        if isinstance(nxt, Halted):
            return Converged(nxt.config.value())
        conf = nxt
    if halted(m, conf):
        return Converged(conf.value())
    return STILL_RUNNING


def test_tmconf_codes_reserved_zero():
    with pytest.raises(MalformedCode):
        decode_tmconf(0)
    assert encode_tmconf(initial_config(EMPTY_MACHINE, 0)) >= 1


def test_tmconf_overflow_form_of_a_compact_configuration_is_malformed():
    # 40,000 + seq_encode([0, 0, 0]) spells the blank tape, head 0, state 0,
    # whose code is 1; an overflow code of a configuration that has no
    # compact code still decodes
    blank = TMConfiguration((), 0, 0)
    assert encode_tmconf(blank) == 1
    with pytest.raises(MalformedCode):
        decode_tmconf(40_000 + seq_encode([0, 0, 0]))
    wide = TMConfiguration(((9, 1),), 0, 0)
    assert decode_tmconf(encode_tmconf(wide)) == wide and encode_tmconf(wide) > 40_000


@given(st.lists(st.tuples(st.integers(-6, 12), st.integers(1, 3)),
                unique_by=lambda t: t[0], max_size=6),
       st.integers(-5, 11), st.integers(0, 40))
def test_tmconf_roundtrip(cells, head, state):
    conf = TMConfiguration(tuple(sorted(cells)), head, state)
    assert decode_tmconf(encode_tmconf(conf)) == conf


def test_tmconf_codes_injective_on_walk():
    # incrementing 7 carries through three ones: four distinct configurations
    m = SUCC_MACHINE
    conf = initial_config(m, 7)
    seen = set()
    for _ in range(10):
        code = encode_tmconf(conf)
        seen.add(code)
        conf = step_n(m, conf, 1)
    assert len(seen) >= 4


def test_oracle_search_zero():
    z = CURATED["oracle-searchzero"]
    assert oracle_converges(z, seq_encode([1, 0, 1]), 1) is True
    assert oracle_converges(z, seq_encode([1, 1, 1]), 1) is False
    # a length-two prefix buys one step, which only reads position zero
    assert oracle_converges(z, seq_encode([1, 0]), 1) is False
    assert oracle_converges(z, seq_encode([0]), 1) is False
    assert oracle_converges(z, seq_encode([0, 0]), 1) is True


def test_oracle_always_halts_even_on_empty_prefix():
    z = CURATED["oracle-always"]
    assert oracle_converges(z, 0, 3) is True
    assert oracle_converges(z, seq_encode([7, 7]), 0) is True


def test_oracle_prefix_monotone():
    z = CURATED["oracle-searchzero"]
    base = [1, 0, 0]
    code = seq_encode(base)
    assert oracle_converges(z, code, 2)
    for ext in ([0], [1], [5, 5]):
        assert oracle_converges(z, seq_encode(base + ext), 2)


def test_parse_format_roundtrip():
    text = format_tm(SUCC_MACHINE)
    assert parse_tm(text) == SUCC_MACHINE
    with pytest.raises(MalformedCode):
        format_tm(BUILTINS[CURATED["oracle-searchzero"]])


def test_parse_errors():
    with pytest.raises(TMParseError):
        parse_tm("blank 0\nq0 1 -> q1 0 R\n")  # no start
    with pytest.raises(TMParseError) as err:
        parse_tm("start a\na 1 > a 0 R\n")
    assert "line 2" in str(err.value)


def _appendix_index():
    return next(e for e in range(1000) if isinstance(machine_from_index(e), AppendixMachine))


@pytest.mark.parametrize("call", [
    lambda: run_bounded(2, -1, 5),
    lambda: run_bounded(_appendix_index(), -1, 5),
    lambda: oracle_converges(2, seq_encode([0, 1, 1]), -1),
    lambda: oracle_converges(_appendix_index(), seq_encode([0, 1, 1]), -1),
    lambda: initial_config(machine_from_index(2), -3),
], ids=["run_bounded", "run_bounded-appendix", "oracle_converges", "oracle_converges-appendix",
        "initial_config"])
def test_negative_input_is_a_bad_index(call):
    # the input's binary expansion never ended on a negative value, and an
    # appendix machine read it as a run that never converges
    def hang(_signum, _frame):
        raise TimeoutError("no answer within 5 s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(BadIndex):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
