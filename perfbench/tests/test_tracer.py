"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _module(name, **functions):
    mod = types.ModuleType(name)
    vars(mod).update(functions)
    sys.modules[name] = mod
    return mod


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        mod.leaf()
        clock.advance(3.0)
        mod.leaf()

    def outer():
        clock.advance(0.5)
        mod.middle()
        clock.advance(0.25)

    def countdown(n):
        clock.advance(1.0)
        if n:
            mod.countdown(n - 1)

    mod = _module("tracer_test_layer", leaf=leaf, middle=middle, outer=outer,
                  countdown=countdown)
    tracer = Tracer(clock=clock, scopes=("middle",))
    try:
        for name in ("leaf", "middle", "outer", "countdown"):
            tracer.patch(mod, name, name)
        mod.outer()
        mod.countdown(3)
    finally:
        tracer.unpatch()
        del sys.modules["tracer_test_layer"]

    st = tracer.stats
    assert (st["leaf"].calls, st["leaf"].total, st["leaf"].self) == (2, 4.0, 4.0)
    assert (st["middle"].total, st["middle"].self) == (8.0, 4.0)
    assert (st["outer"].total, st["outer"].self) == (8.75, 0.75)
    assert tracer.scoped["middle"] == {"leaf": 2}
    # a recursive call is inside its caller's span: counted once inclusively
    assert (st["countdown"].calls, st["countdown"].total, st["countdown"].self) == (4, 4.0, 4.0)
    assert mod.leaf is leaf and mod.outer is outer


def test_generator_is_timed_over_its_resumptions():
    clock = FakeClock()

    def lines(n):
        for i in range(n):
            clock.advance(1.0)
            yield i

    mod = _module("tracer_test_gen", lines=lines)
    tracer = Tracer(clock=clock)
    try:
        tracer.patch(mod, "lines", "lines")
        for _ in mod.lines(3):
            clock.advance(10.0)  # the consumer's time is not the generator's
    finally:
        tracer.unpatch()
        del sys.modules["tracer_test_gen"]
    st = tracer.stats["lines"]
    assert (st.calls, st.items, st.total, st.self) == (1, 3, 3.0, 3.0)


def test_patch_reaches_names_imported_into_other_modules(tmp_path, capsys):
    from duelhalt import cli, engine, reductions, scripts, strategy
    from duelhalt.engine import rules

    original = rules.apply
    holders = [m for m in (engine, scripts, strategy) if vars(m).get("apply") is original]
    assert len(holders) == 3  # apply is bound by name in each of them

    # a stand-in on the defining module alone sees none of the set-up's applies
    seen = []
    rules.apply = lambda conf, move: seen.append(move) or original(conf, move)
    try:
        scripts.setup_run_a()
    finally:
        rules.apply = original
    assert seen == []

    tracer = Tracer(scopes=("strategy.check_winning", "reductions.reduce_halting"))
    try:
        tracer.patch(rules, "apply", "engine.apply")
        tracer.patch(strategy, "check_winning", "strategy.check_winning")
        tracer.patch(reductions, "reduce_halting", "reductions.reduce_halting")
        assert all(vars(m)["apply"] is not original for m in holders)

        board = scripts.setup_run_a()
        assert tracer.stats["engine.apply"].calls == len(board.run.moves)

        # check-win --witness replays the witness with an apply it looks up
        # from the engine package at call time, outside any traced span
        witness = tmp_path / "witness.jsonl"
        assert cli.main(["check-win", "--reduce", "halting", "--machine", "empty",
                         "--max-turns", "50", "--witness", str(witness)]) == 0
    finally:
        tracer.unpatch()
    assert rules.apply is original and all(vars(m)["apply"] is original for m in holders)
    assert "verdict=WIN" in capsys.readouterr().out

    # the witness trace holds the reduction's run, then the witness moves;
    # every apply is counted: the set-up's, the reduction's, the checker's
    # and the witness replay's
    reduced = len(reductions.reduce_halting(0).run.moves)
    witness_moves = len(witness.read_text().splitlines()) - reduced
    in_checker = tracer.scoped["strategy.check_winning"]["engine.apply"]
    in_reduction = tracer.scoped["reductions.reduce_halting"]["engine.apply"]
    assert in_checker > 0 and in_reduction > 0 and witness_moves > 0
    assert tracer.stats["engine.apply"].calls == \
        len(board.run.moves) + in_reduction + in_checker + witness_moves


def test_disabled_tracer_calls_through_and_records_nothing():
    clock = FakeClock()

    def leaf():
        clock.advance(1.0)
        return "leaf"

    def lines(n):
        yield from range(n)

    mod = _module("tracer_test_off", leaf=leaf, lines=lines)
    tracer = Tracer(clock=clock)
    try:
        tracer.patch(mod, "leaf", "leaf")
        tracer.patch(mod, "lines", "lines")
        tracer.enabled = False
        assert mod.leaf() == "leaf" and list(mod.lines(2)) == [0, 1]
        tracer.enabled = True
        mod.leaf()
    finally:
        tracer.unpatch()
        del sys.modules["tracer_test_off"]
    assert tracer.stats["leaf"].calls == 1 and tracer.stats["leaf"].total == 1.0
    assert "lines" not in tracer.stats
