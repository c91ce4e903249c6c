"""Run trace format: one JSON line per transition, bit-exact replayable."""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .engine import (Configuration, Move, Run, apply, decode_configuration, encode_configuration,
                     link)
from .engine.moves import decode_move, encode_move, render_move
from .errors import IllegalMove, MalformedCode

# what a code or record that is not in the written form raises on reading
_UNREADABLE = (KeyError, TypeError, ValueError, OverflowError, RecursionError, MalformedCode)


def _line(before: Configuration, move: Move, config: int) -> str:
    """The trace line of the transition from before by move to the
    configuration whose code is config."""
    return json.dumps({
        "turn": before.turn,
        "phase": before.phase.name.lower(),
        "move": str(encode_move(move)),
        "text": render_move(move),
        "config": format(config, "x"),
    }, separators=(",", ":"))


def trace_lines(run: Run) -> Iterator[str]:
    for before, move, after in run.steps():
        yield _line(before, move, encode_configuration(after))


def write_trace(run: Run, path: str) -> None:
    with open(path, "w") as fh:
        for line in trace_lines(run):
            fh.write(line + "\n")


def replay_trace(lines: Iterable[str], initial) -> Run:
    """Rebuild and validate a run from its trace against the start config.

    A line, less the newline that ends it in a file, replays only as
    ``trace_lines`` writes it for the transition it replays: the move is
    applied, its result's code must be the line's configuration code, and
    the whole line must be the one written for that transition.  The
    configuration code is decoded only when it differs, to tell a
    malformed code from one that does not replay.
    """
    run = Run((initial,), ())
    for n, text in enumerate(lines, start=1):
        text = text[:-1] if text.endswith("\n") else text
        try:
            rec = json.loads(text)
            move = decode_move(int(rec["move"]))
            code = int(rec["config"], 16)
        except _UNREADABLE as exc:
            raise MalformedCode(f"trace line {n} is malformed: {exc}") from None
        before = run.last()
        try:
            after = apply(before, move)
        except IllegalMove:
            after = None
        if after is None or encode_configuration(after) != code:
            try:
                decode_configuration(code)
            except _UNREADABLE as exc:
                raise MalformedCode(f"trace line {n} is malformed: {exc}") from None
            raise MalformedCode(f"trace line {n} does not replay")
        if text != _line(before, move, code):
            raise MalformedCode(f"trace line {n} is malformed: it is not the line "
                                f"written for its transition")
        run = link(run, after, move)
    return run
