"""Record interleaved benchmark pairs of the working tree against a git revision.

    python3 tools/bench_record.py --against HEAD --pairs 10

Run from anywhere inside a checkout.  The revision is extracted from the
local repository with ``git archive`` into a temporary directory, so no
network is needed and nothing is left registered in ``.git``.  For each
workload of ``BENCHMARK.json``, pair i runs ``perfbench/run.py --seed i
--trace 0`` once in each checkout, for --seconds (by default the
benchmark's ``run_seconds``), the working tree first in even pairs
and the revision first in odd ones, so that a drift in the machine's speed
falls on both sides alike.  One traced run per side (``--trace 1``,
``--seed 5``, one round) gives the one-round counts.

Each workload's results go to ``BENCH_<workload>.json`` in --out-dir, one
entry per commit, replaced when that commit is recorded again.  An entry
names its commit (the working tree's is ``HEAD``'s, marked ``-dirty`` when
it has changes), and holds per end-to-end metric the run values in pair
order with their median, quartiles and minimum; the working tree's entry
also counts the pairs it won against the revision, ties counting for
neither side.

    python3 tools/bench_record.py --check BENCH_halting.json

checks a written file against the schema and exits 1 when it does not fit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

TRACE_SEED = 5
COUNT_UNIT = "count"
STATS = ("median", "q1", "q3", "min")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(root: Path, rev: str, into: Path) -> str:
    """Unpack the revision's files into into; return its full commit id."""
    commit = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root,
                             check=True, capture_output=True).stdout
    (into / "tree").mkdir()
    subprocess.run(["tar", "-x", "-C", str(into / "tree")], input=archive, check=True)
    return commit


def tree_commit(root: Path) -> str:
    commit = git(root, "rev-parse", "HEAD")
    return commit + ("-dirty" if git(root, "status", "--porcelain", "--untracked-files=no")
                     else "")


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the checkout's benchmark: the JSON of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """The values in pair order, their median, quartiles and minimum."""
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values)}


def entry(commit: str, runs: list[dict], traced: dict, seconds: float) -> dict:
    names = list(runs[0]["metrics"])
    metrics = {}
    for name in names:
        metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         **summary([r["metrics"][name]["value"] for r in runs])}
    counts = {name: m["value"] for name, m in traced["metrics"].items()
              if m["unit"] == COUNT_UNIT}
    return {"commit": commit, "pairs": len(runs), "seconds": seconds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics, "one_round_counts": counts,
            "host": {"python": platform.python_version(), "cpus": os.cpu_count()}}


def won(ours: dict, theirs: dict, better: dict) -> dict:
    """Per metric, the pairs where ours reads better than theirs."""
    out = {}
    for name, m in ours["metrics"].items():
        sign = 1 if better.get(name, "lower") == "lower" else -1
        a, b = m["runs"], theirs["metrics"][name]["runs"]
        out[name] = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    return out


def update(path: Path, workload: str, entries: list[dict]) -> dict:
    """The file's document with these entries put in, each replacing an
    entry of the same commit."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    kept = [e for e in doc.get("entries", [])
            if e["commit"] not in {n["commit"] for n in entries}]
    doc = {"workload": workload,
           "command": f"python3 perfbench/run.py --workload {workload} --seed <pair> "
                      f"--seconds <seconds> --trace 0",
           "entries": kept + entries}
    check(doc)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def check(doc: dict) -> None:
    """Raise ValueError where the document does not fit the schema."""
    def need(cond, what):
        if not cond:
            raise ValueError(f"BENCH file: {what}")

    need(isinstance(doc, dict), "not a JSON object")
    need(isinstance(doc.get("workload"), str), "no workload")
    need(isinstance(doc.get("entries"), list) and doc["entries"], "no entries")
    for e in doc["entries"]:
        need(isinstance(e, dict), "an entry is not an object")
        need(isinstance(e.get("commit"), str) and e["commit"], "an entry names no commit")
        need(isinstance(e.get("pairs"), int) and e["pairs"] >= 1, f"{e['commit']}: no pairs")
        need(isinstance(e.get("metrics"), dict) and e["metrics"], f"{e['commit']}: no metrics")
        for name, m in e["metrics"].items():
            need(isinstance(m, dict), f"{e['commit']}: {name} is not an object")
            need(all(isinstance(m.get(k), (int, float)) for k in STATS),
                 f"{e['commit']}: {name} lacks one of {STATS}")
            need(isinstance(m.get("runs"), list) and len(m["runs"]) == e["pairs"],
                 f"{e['commit']}: {name} runs are not a list of one per pair")
            need(m["min"] <= m["q1"] <= m["median"] <= m["q3"],
                 f"{e['commit']}: {name} statistics out of order")
        need(isinstance(e.get("one_round_counts"), dict) and e["one_round_counts"],
             f"{e['commit']}: no one-round counts")
        need(isinstance(e.get("won_pairs", {}), dict), f"{e['commit']}: won_pairs is not an object")
        for name, won_in in e.get("won_pairs", {}).items():
            need(isinstance(won_in, int) and 0 <= won_in <= e["pairs"],
                 f"{e['commit']}: won_pairs[{name}] out of range")


def record(root: Path, rev: str, pairs: int, seconds: Optional[float], out_dir: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if seconds is None:
        seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    tmp = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        against = extract(root, rev, tmp)
        sides = {"tree": (root, tree_commit(root)), "rev": (tmp / "tree", against)}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"tree": [], "rev": []}
            for i in range(pairs):
                order = ("tree", "rev") if i % 2 == 0 else ("rev", "tree")
                for side in order:
                    runs[side].append(bench(sides[side][0], workload, i + 1, seconds, 0))
                print(f"{workload} pair {i + 1}/{pairs}: " + " ".join(
                    f"{side} wall_s={runs[side][-1]['metrics']['wall_s']['value']:.4g}"
                    for side in order), flush=True)
            made = {side: entry(commit, runs[side],
                                bench(checkout, workload, TRACE_SEED, 0, 1), seconds)
                    for side, (checkout, commit) in sides.items()}
            made["tree"]["against"] = against
            made["tree"]["won_pairs"] = won(made["tree"], made["rev"], better)
            path = out_dir / f"BENCH_{workload}.json"
            update(path, workload, [made["rev"], made["tree"]])
            print(f"wrote {path}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="the git revision to pair the working tree with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--out-dir", type=Path, help="default: the checkout's root")
    ap.add_argument("--check", type=Path, metavar="FILE", help="check a BENCH file and exit")
    args = ap.parse_args(argv)
    if args.check is not None:
        try:
            check(json.loads(args.check.read_text()))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{args.check}: ok")
        return 0
    if args.against is None or args.pairs < 1 or (args.seconds or 0) < 0:
        ap.error("--against is required, with --pairs >= 1 and --seconds >= 0")
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    # a stop by SIGTERM unwinds as an exit does: the running benchmark is
    # killed and the extracted revision removed
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    record(root, args.against, args.pairs, args.seconds,
           args.out_dir if args.out_dir is not None else root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
