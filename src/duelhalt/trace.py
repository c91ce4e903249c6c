"""Run trace format: one JSON line per transition, bit-exact replayable."""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .engine import Run, decode_configuration, encode_configuration, transition_ok
from .engine.moves import decode_move, encode_move, render_move
from .engine.rules import _link
from .errors import MalformedCode


def trace_lines(run: Run) -> Iterator[str]:
    for before, move, after in run.steps():
        yield json.dumps({
            "turn": before.turn,
            "phase": before.phase.name.lower(),
            "move": str(encode_move(move)),
            "text": render_move(move),
            "config": format(encode_configuration(after), "x"),
        }, separators=(",", ":"))


def write_trace(run: Run, path: str) -> None:
    with open(path, "w") as fh:
        for line in trace_lines(run):
            fh.write(line + "\n")


def replay_trace(lines: Iterable[str], initial) -> Run:
    """Rebuild and validate a run from its trace against the start config."""
    run = Run((initial,), ())
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            move = decode_move(int(rec["move"]))
            after = decode_configuration(int(rec["config"], 16))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
                MalformedCode) as exc:
            raise MalformedCode(f"trace line {n} is malformed: {exc}") from None
        if not transition_ok(run.last(), after, move):
            raise MalformedCode(f"trace line {n} does not replay")
        run = _link(run, after, move)
    return run
