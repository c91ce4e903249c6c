"""The records' memoized hashes, and the number of record copies one
transition makes."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from duelhalt.engine import config, decode_configuration, encode_configuration, rules
from duelhalt.engine.config import (CardInstance, Configuration, PlayerState, fast_replace,
                                   update_player)
from duelhalt.scripts import Line, play_cycles

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])


def fresh(record, **changes):
    """An equal record built by its constructor: no memo, nothing shared."""
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    fields.update(changes)
    return type(record)(**fields)


def _configs(board_a, board_b):
    return board_a.run.configs + board_b.run.configs


def _cards(conf):
    return [inst for _l, inst in conf.iter_monsters()] + \
           [inst for _l, inst in conf.iter_spelltraps()]


@_SETTINGS
@given(st.data())
def test_copies_hash_and_compare_as_fresh_records(board_a, board_b, data):
    configs = _configs(board_a, board_b)
    conf = configs[data.draw(st.integers(0, len(configs) - 1))]
    p = data.draw(st.integers(0, 1))
    lp = data.draw(st.integers(0, 20000))
    turn = data.draw(st.integers(0, 500))
    hash(conf)  # memoize along the whole record tree first
    ps = conf.players[p]
    for got, want in (
        (fast_replace(ps, lp=lp), fresh(ps, lp=lp)),
        (fast_replace(conf, turn=turn), fresh(conf, turn=turn)),
        (update_player(conf, p, lp=lp),
         fresh(conf, players=tuple(fresh(q, lp=lp) if i == p else q
                                   for i, q in enumerate(conf.players)))),
    ):
        assert got == want and hash(got) == hash(want)
    for inst in _cards(conf):
        counters = data.draw(st.integers(0, 50))
        got = fast_replace(inst, counters=counters)
        assert got == fresh(inst, counters=counters)
        assert hash(got) == hash(fresh(inst, counters=counters))


@_SETTINGS
@given(st.data())
def test_the_codec_keeps_the_hash(board_a, board_b, data):
    configs = _configs(board_a, board_b)
    conf = configs[data.draw(st.integers(0, len(configs) - 1))]
    back = decode_configuration(encode_configuration(conf))
    assert back == conf and hash(back) == hash(conf)


@_SETTINGS
@given(st.data())
def test_a_copy_never_carries_its_sources_memo(board_a, board_b, data):
    configs = _configs(board_a, board_b)
    conf = configs[data.draw(st.integers(0, len(configs) - 1))]
    hash(conf)
    records = [conf, *conf.players, *_cards(conf)]
    for record in records:
        assert "_hash" in vars(record)
        copy = fast_replace(record)
        assert "_hash" not in vars(copy)
        assert copy == record and hash(copy) == hash(record)
    p = data.draw(st.integers(0, 1))
    changed = update_player(conf, p, lp=conf.players[p].lp + 1)
    assert "_hash" not in vars(changed) and "_hash" not in vars(changed.players[p])
    assert changed.players[1 - p] is conf.players[1 - p]  # the unchanged side keeps its memo


def test_record_hashes_are_their_field_hashes():
    # the memo keeps the dataclass-made hash, so hash-ordered containers of
    # records iterate as they did before the memo
    inst = CardInstance(3, counters=2)
    ps = PlayerState(hand=(1, 2), monsters=(inst,) + (None,) * 4)
    conf = Configuration(players=(ps, PlayerState()))
    for record in (inst, ps, conf):
        assert hash(record) == hash(tuple(getattr(record, f.name)
                                          for f in dataclasses.fields(record)))


# --- record copies per transition -------------------------------------------------

# fast_replace calls made by applying every move of each run.  Before moves
# copied each player once where they could, they were 890 and 1,641 on the
# set-up runs (2.49 and 2.45 per move) and 157 and 174 on two increment
# cycles and a decrement cycle from each set-up's last board (15.7 and 17.4
# per move).
COPY_BUDGET = {"setup-a": 737, "setup-b": 1321, "cycles-a": 97, "cycles-b": 104}


@pytest.fixture
def copies(monkeypatch):
    """Counts fast_replace calls by record type while the test runs."""
    counts = Counter()
    real = config.fast_replace

    def counting(obj, **changes):
        counts[type(obj).__name__] += 1
        return real(obj, **changes)

    monkeypatch.setattr(config, "fast_replace", counting)
    monkeypatch.setattr(rules, "replace", counting)
    return counts


def _cycle_run(board):
    line = Line(board.final)
    play_cycles(line, 2, 1)
    return line.result().run


def test_transitions_stay_within_their_copy_budget(board_a, board_b, copies):
    runs = {"setup-a": board_a.run, "setup-b": board_b.run,
            "cycles-a": _cycle_run(board_a), "cycles-b": _cycle_run(board_b)}
    used = {}
    for name, run in runs.items():
        copies.clear()
        for conf, move, nxt in run.steps():
            assert rules.apply(conf, move) == nxt
        used[name] = sum(copies.values())
    assert all(used[name] <= COPY_BUDGET[name] for name in runs), used
