"""Benchmark of the duelhalt referee: one workload, one JSON result line.

    python3 perfbench/run.py --workload halting --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The process pins PYTHONHASHSEED, and points PYTHONPYCACHEPREFIX at a
directory that holds no bytecode, re-executing itself once if needed, so
that dict and set layouts, import times and with them the timings repeat
between runs and checkouts.

The workload's operation list runs in whole rounds until the next round
would end past --seconds; a round's time is the sum of its operations' run
times, checks excluded.  Set-up (a fresh import plus both board replays)
is timed a few times after each round, so that its samples span the run
as the rounds' do, and reported as the median.
With --trace 0 the result carries the end-to-end metrics; with --trace 1
the program's functions are wrapped and it carries the per-layer metrics.
Every operation's output is checked; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # set-ups timed after each round

END_TO_END_UNITS = {"wall_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["halting", "adversary", "referee"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


# Hash seed pinned so dict and set layouts repeat.  Bytecode is looked up
# under a prefix that never holds any and never written, so every import
# compiles the source, whatever __pycache__ directories the checkout has.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONPYCACHEPREFIX": str(OUT / "no-bytecode"),
}


def _pin_environment(argv) -> None:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        sys.stdout.flush()
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], env)


def _program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "duelhalt" or n.startswith("duelhalt.")}


def _set_up():
    """Import the program afresh and replay both board set-ups.

    A copy of the program imported before is put back afterwards, so the
    workload (and the tracer's stand-ins) keep using that one copy."""
    kept = _program_modules()
    for name in kept:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("duelhalt.cli")  # the CLI pulls in every module
    scripts = importlib.import_module("duelhalt.scripts")
    a, b = scripts.setup_run_a(), scripts.setup_run_b()
    seconds = time.perf_counter() - start
    if kept:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(kept)
    return seconds, a, b


def _judge(op, result) -> tuple[bool, str, bool]:
    """(passed, reason, known): whether the result passes the op's check,
    and if not, why and whether it is exactly the op's known fault."""
    if isinstance(result, Exception):
        return False, f"raised {result!r}", False
    try:
        if op.check(result):
            return True, "", False
        reason = "wrong output"
    except Exception as exc:
        return False, f"check raised {exc!r}", False
    try:
        return False, reason, bool(op.known_fault) and bool(op.symptom(result))
    except Exception:
        return False, reason, False


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_rounds(ops, seconds: float, tracer):
    """Whole rounds of the operation list, each followed by SETUP_REPEATS
    set-ups, until the next would end past `seconds` (at least one).  The
    tracer, if any, is paused for checks.

    Peak memory is read when the first round ends, before any timed set-up:
    the fresh copies of the program that set-ups import leave memory behind,
    more with each set-up, and later rounds repeat the first one's work."""
    round_s, op_s, setup_s = [], [], []
    peak_rss_mb = 0.0
    failures: dict[str, tuple[str, bool]] = {}  # op name -> (reason, known fault)
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        round_ops = []
        for op in ops:
            o0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a program error fails the operation
                result = exc
            round_ops.append(time.perf_counter() - o0)
            if tracer is not None:
                tracer.enabled = False
            try:
                ok, reason, known = _judge(op, result)
            finally:
                if tracer is not None:
                    tracer.enabled = True
            result = None  # not alive while the next operation runs
            attempted += 1
            if not ok:
                failed += 1
                if failures.get(op.name, ("", True))[1]:  # keep the first unknown failure
                    failures[op.name] = (reason, known)
        op_s.extend(round_ops)
        round_s.append(sum(round_ops))
        if not setup_s:
            peak_rss_mb = _peak_rss_mb()
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the last fresh copy of the program is cyclic garbage
            setup_s.append(_set_up()[0])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(round_s) > seconds:
            return round_s, op_s, setup_s, peak_rss_mb, attempted, failed, failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "duelhalt" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    _pin_environment(argv)
    sys.path.insert(0, str(SRC))

    _seconds, a, b = _set_up()  # the copy the workload uses; lazy imports done
    gc.collect()

    import layers
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](
        random.Random(args.seed), workloads.Boards(a, b), str(OUT))

    tracer = None
    if args.trace:
        tracer = Tracer(scopes=layers.SCOPES)
        layers.install(tracer)
    try:
        round_s, op_s, setup_s, peak_rss_mb, attempted, failed, failures = \
            _run_rounds(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch()

    correct = True
    known_faults = {op.name: op.known_fault for op in ops}
    for name, (reason, known) in sorted(failures.items()):
        print(f"failed: {name}: {reason}"
              + (f" (known fault: {known_faults[name]})" if known else ""))
        correct = correct and known

    if tracer is not None:
        values = layers.metrics(tracer, len(round_s))
        units = layers.METRICS
    else:
        values = {
            "wall_s": statistics.median(round_s),
            "op_ms_p50": statistics.median(op_s) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }
        units = END_TO_END_UNITS
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(round_s)} ops_per_round={len(ops)} "
          f"attempted={attempted} failed={failed} "
          f"round_s_median={statistics.median(round_s):.6g}")
    if not args.trace:
        print(f"op_ms_p50 samples={len(op_s)} setup_s samples={len(setup_s)}")
    for name, value in values.items():
        print(f"{name}={value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
