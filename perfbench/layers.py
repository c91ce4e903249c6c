"""The per-layer metrics: which program functions the traced run wraps,
and how the aggregated spans turn into the metrics BENCHMARK.json names.

Layers are the program's modules.  Time metrics of leaf-level functions
(engine, coding, the increment cycle) are mean self time per call; time
metrics of the driving functions (check_winning, to_tree, reduce_halting,
run_bounded) are mean inclusive time per call.  Call and node counts are
per round, so they do not depend on how many rounds fit in a run.
"""

from __future__ import annotations

from tracer import Tracer

CHECKER = "strategy.check_winning"
BOUNDED = "tm.run_bounded"
SCOPES = (CHECKER, BOUNDED)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    from duelhalt import coding, reductions, scripts, strategy, tm, trace
    from duelhalt.engine import config, rules

    p = tracer.patch
    p(rules, "apply", "engine.apply")
    p(rules.Run, "extend", "engine.run_extend")
    p(rules, "legal_moves", "engine.legal_moves")
    p(rules, "transition_ok", "engine.transition_ok")
    p(config, "encode_configuration", "engine.encode_configuration")
    p(config, "decode_configuration", "engine.decode_configuration")
    p(strategy, "check_winning", CHECKER)
    p(strategy, "to_tree", "strategy.to_tree", count=lambda tree: tree.size())
    p(strategy.Strategy, "next_move", "strategy.next_move")
    for cls in list(_subclasses(strategy.Strategy)):
        if "_plan_turn" in vars(cls):
            p(cls, "_plan_turn", "strategy.plan_turn")
    p(scripts, "increment_cycle_moves", "scripts.increment_cycle_moves")
    p(scripts, "set_counters", "scripts.set_counters",
      count=lambda res: len(res.run.moves))
    p(reductions, "reduce_halting", "reductions.reduce_halting")
    p(tm, "run_bounded", BOUNDED)
    p(tm, "step", "tm.step")
    p(tm, "oracle_step", "tm.oracle_step")
    p(coding, "seq_encode", "coding.seq_encode")
    p(coding, "seq_decode", "coding.seq_decode")
    p(trace, "trace_lines", "trace.trace_lines")
    p(trace, "replay_trace", "trace.replay_trace", count=lambda run: len(run.moves))


# name in BENCHMARK.json -> unit
METRICS = {
    "engine.apply.calls": "count",
    "engine.apply.us": "us",
    "engine.run_extend.calls": "count",
    "engine.run_extend.us": "us",
    "engine.legal_moves.us": "us",
    "engine.transition_ok.us": "us",
    "engine.encode_configuration.us": "us",
    "engine.decode_configuration.us": "us",
    "strategy.check_winning.s": "s",
    "strategy.transitions_per_s": "1/s",
    "strategy.applies_per_transition": "ratio",
    "strategy.next_move.calls": "count",
    "strategy.plan_miss_ratio": "ratio",
    "strategy.to_tree.s": "s",
    "strategy.tree_nodes": "count",
    "scripts.increment_cycle_moves.us": "us",
    "scripts.set_counters.moves_per_s": "1/s",
    "reductions.reduce_halting.ms": "ms",
    "tm.run_bounded.calls": "count",
    "tm.run_bounded.ms": "ms",
    "tm.steps_per_s": "1/s",
    "coding.seq_encode.us": "us",
    "coding.seq_decode.us": "us",
    "trace.trace_lines.lines_per_s": "1/s",
    "trace.replay_trace.lines_per_s": "1/s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """The per-layer metrics of a traced run of the given number of rounds;
    a layer the workload never calls reads 0."""
    stats = tracer.stats

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_mean(name, scale):
        return _ratio(stats[name].self, stats[name].calls) * scale if name in stats else 0.0

    def incl_mean(name, scale):
        return _ratio(stats[name].total, stats[name].calls) * scale if name in stats else 0.0

    def rate(name):
        return _ratio(stats[name].items, stats[name].total) if name in stats else 0.0

    def inside(scope, name):
        return tracer.scoped.get(scope, {}).get(name, 0)

    checker_s = stats[CHECKER].total if CHECKER in stats else 0.0
    bounded_s = stats[BOUNDED].total if BOUNDED in stats else 0.0
    checker_extends = inside(CHECKER, "engine.run_extend")
    return {
        "engine.apply.calls": calls("engine.apply") / rounds,
        "engine.apply.us": self_mean("engine.apply", 1e6),
        "engine.run_extend.calls": calls("engine.run_extend") / rounds,
        "engine.run_extend.us": self_mean("engine.run_extend", 1e6),
        "engine.legal_moves.us": self_mean("engine.legal_moves", 1e6),
        "engine.transition_ok.us": self_mean("engine.transition_ok", 1e6),
        "engine.encode_configuration.us": self_mean("engine.encode_configuration", 1e6),
        "engine.decode_configuration.us": self_mean("engine.decode_configuration", 1e6),
        "strategy.check_winning.s": incl_mean(CHECKER, 1.0),
        "strategy.transitions_per_s": _ratio(checker_extends, checker_s),
        "strategy.applies_per_transition":
            _ratio(inside(CHECKER, "engine.apply"), checker_extends),
        "strategy.next_move.calls": calls("strategy.next_move") / rounds,
        "strategy.plan_miss_ratio":
            _ratio(calls("strategy.plan_turn"), calls("strategy.next_move")),
        "strategy.to_tree.s": incl_mean("strategy.to_tree", 1.0),
        "strategy.tree_nodes":
            (stats["strategy.to_tree"].items if "strategy.to_tree" in stats else 0) / rounds,
        "scripts.increment_cycle_moves.us": self_mean("scripts.increment_cycle_moves", 1e6),
        "scripts.set_counters.moves_per_s": rate("scripts.set_counters"),
        "reductions.reduce_halting.ms": incl_mean("reductions.reduce_halting", 1e3),
        "tm.run_bounded.calls": calls(BOUNDED) / rounds,
        "tm.run_bounded.ms": incl_mean(BOUNDED, 1e3),
        "tm.steps_per_s": _ratio(inside(BOUNDED, "tm.step") + inside(BOUNDED, "tm.oracle_step"),
                                 bounded_s),
        "coding.seq_encode.us": self_mean("coding.seq_encode", 1e6),
        "coding.seq_decode.us": self_mean("coding.seq_decode", 1e6),
        "trace.trace_lines.lines_per_s": rate("trace.trace_lines"),
        "trace.replay_trace.lines_per_s": rate("trace.replay_trace"),
    }
