"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Verdicts
always go to stdout with a machine-readable `verdict=...` final line.
"""

from __future__ import annotations

import argparse
import sys

from . import carddb, reductions, scripts, tm, trace
from .engine import is_winning_state, replay_witness, validate_run
from .engine.rules import spell_counters
from .errors import DuelhaltError, InvalidOrder, TMParseError
from .strategy import (Budget, NISStrategy, WELL_FOUNDED, check_winning, drive_to_choice,
                       has_channel, play_opponent_number, to_tree, well_founded_to_depth)


# a spoken number k is k equip pulls, and the checkers try 2k + 1 opponent
# turns at a decision point under a cap of k, so the bound keeps a round of
# duel to seconds of play and the checkers' choice lists to memory
MAX_DUEL_NUMBER = 10_000


def _int_at_least(low: int, most: float = float("inf")):
    """An argparse type: an integer no smaller than low and no larger than most."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if n > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {n}")
        return n
    return parse


def cmd_cards(args) -> int:
    if args.name:
        spec = carddb.lookup(args.name)
        print(f"{spec.name} [{spec.kind.value}] x{spec.copy_limit}")
        if spec.stats:
            print(f"  atk {spec.stats.atk} / def {spec.stats.def_} / level {spec.stats.level}")
        for eff in spec.effects:
            print(f"  effect: {eff}")
        return 0
    for deck_name, deck in (("deck a", carddb.deck_a()), ("deck b", carddb.deck_b())):
        total = len(deck.main) + len(deck.extra)
        print(f"{deck_name}: {len(deck.main)} main + {len(deck.extra)} extra = {total}")
    print(f"{len(carddb.CARDS)} card specs in the construction set")
    return 0


def cmd_setup(args) -> int:
    result = reductions.setup(args.deck)
    if args.trace:
        trace.write_trace(result.run, args.trace)
        print(f"trace written to {args.trace}")
    if args.verify:
        if not validate_run(result.run):
            print("a transition failed to replay")
            print("verdict=FAIL")
            return 1
        diffs = scripts.board_diff(result.final, args.deck)
        if diffs:
            for d in diffs:
                print(f"board mismatch - {d}")
            print("verdict=FAIL")
            return 1
        print(f"replayed {len(result.run.moves)} moves; the documented board "
              f"is reached on turn {result.final.turn}")
    print(f"counters={spell_counters(result.final)} "
          f"lp={result.final.lp[0]}/{result.final.lp[1]}")
    print("verdict=OK")
    return 0


def cmd_counters(args) -> int:
    base = reductions.setup(args.deck)
    result = scripts.set_counters(base.final, args.set)
    if args.trace:
        trace.write_trace(result.run, args.trace)
    print(f"counters={spell_counters(result.final)}")
    print("verdict=OK")
    return 0


def _named_machine(name: str) -> int:
    """The index of a curated machine or of a machine file."""
    if name in tm.CURATED:
        return tm.CURATED[name]
    with open(name) as fh:
        return tm.machine_index(tm.parse_tm(fh.read()))


def _load_machine(args) -> int:
    return _named_machine(args.machine) if args.machine else args.index


def cmd_compile_tm(args) -> int:
    with open(args.file) as fh:
        machine = tm.parse_tm(fh.read())
    e = tm.machine_index(machine)
    print(f"index={e}")
    out = reductions.reduce_halting(e)
    print(f"run of {len(out.run.moves)} moves; counters encode the machine's start")
    if args.trace:
        trace.write_trace(out.run, args.trace)
    print("verdict=OK")
    return 0


def _budget(args) -> Budget:
    return Budget(args.max_turns, args.max_number, args.exhaustive)


def _reduction(args):
    if args.reduce == "halting":
        return reductions.reduce_halting(_load_machine(args))
    if args.reduce == "nis":
        return reductions.reduce_nis(_load_machine(args))
    if args.reduce == "wo":
        if args.order_file:
            with open(args.order_file) as fh:
                order = reductions.parse_order(fh.read())
        else:
            order = reductions.parse_order(args.order)
        return reductions.reduce_wo(order)
    raise DuelhaltError(f"unknown reduction {args.reduce!r}")


def cmd_check_win(args) -> int:
    out = _reduction(args)
    verdict = check_winning(out.run, out.strategy, _budget(args))
    if args.witness and verdict.witness:
        trace.write_trace(replay_witness(out.run, verdict.witness), args.witness)
        print(f"witness trace written to {args.witness}")
    print(f"explored under budget turns={args.max_turns} numbers<={args.max_number}")
    print(f"verdict={verdict.kind.upper()}")
    return 0


def cmd_reduce(args) -> int:
    import json

    out = _reduction(args)
    ok = validate_run(out.run)
    print(f"run: {len(out.run.moves)} moves, valid={ok}")
    print(f"strategy: {out.strategy.descriptor}")
    if args.trace:
        trace.write_trace(out.run, args.trace)
    if args.strategy_out:
        kind, param = out.strategy.descriptor
        with open(args.strategy_out, "w") as fh:
            json.dump({"family": kind, "parameter": param,
                       "run_moves": len(out.run.moves)}, fh)
        print(f"strategy descriptor written to {args.strategy_out}")
    print(f"verdict={'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_tree(args) -> int:
    out = _reduction(args)
    tree = to_tree(out.strategy, out.run, args.depth, _budget(args))
    wf = well_founded_to_depth(tree, args.depth)
    print(f"tree size={tree.size()} depth<={args.depth}")
    if wf == WELL_FOUNDED:
        print("verdict=WELL-FOUNDED")
    else:
        print(f"open branch: {list(wf.path)}")
        print("verdict=OPEN")
    return 0


def cmd_duel(args) -> int:
    transcript = None
    if args.script:
        with open(args.script) as fh:
            transcript = [ln.strip() for ln in fh if ln.strip()]
    base = reductions.setup("b")
    machine = _named_machine(args.machine)
    strat = NISStrategy(machine, base.run)
    run = base.run
    print(f"second board ready; simulating phi_{machine} against your numbers")
    print("enter the LP gain in thousands each round; q resigns")
    rounds = 0
    while rounds < args.max_rounds:
        run = drive_to_choice(run, strat)
        if run is None:
            print("strategy undefined here; stopping")
            return 1
        conf = run.last()
        if is_winning_state(conf, 0):
            print(f"lp={conf.lp[0]}/{conf.lp[1]} counters={spell_counters(conf)}")
            print("verdict=WIN")
            return 0
        print(f"turn {conf.turn}: lp={conf.lp[0]}/{conf.lp[1]} "
              f"counters={spell_counters(conf)}")
        k = 0  # without the number channel they can only pass the turn out
        if has_channel(conf):
            if transcript is not None:
                if not transcript:
                    print("transcript exhausted")
                    return 0
                raw = transcript.pop(0)
                print(f"Player 2 gain (x1000): {raw}")
            else:
                try:
                    raw = input("Player 2 gain (x1000): ")
                except EOFError:
                    raw = "q"
            if raw.strip().lower() == "q":
                print("Player 2 resigns")
                return 0
            try:
                k = int(raw)
            except ValueError:
                k = -1
            if not 0 <= k <= MAX_DUEL_NUMBER:
                if transcript is not None:
                    print(f"error: script line {raw!r} is not a number from 0 to "
                          f"{MAX_DUEL_NUMBER} or q", file=sys.stderr)
                    return 2
                print(f"enter a number from 0 to {MAX_DUEL_NUMBER} or q")
                continue
        run = play_opponent_number(run, strat, k)
        if run is None:
            print("strategy undefined here; stopping")
            return 1
        rounds += 1
    print("round limit reached")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="duelhalt", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cards", help="deck sizes and card specs")
    p.add_argument("name", nargs="?", help="card name to look up")
    p.set_defaults(fn=cmd_cards)

    p = sub.add_parser("setup", help="replay a board setup script")
    p.add_argument("--deck", choices=["a", "b"], required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--trace")
    p.set_defaults(fn=cmd_setup)

    p = sub.add_parser("counters", help="drive the spell counter to a value")
    p.add_argument("--deck", choices=["a", "b"], default="a")
    p.add_argument("--set", type=int, required=True)
    p.add_argument("--trace")
    p.set_defaults(fn=cmd_counters)

    p = sub.add_parser("compile-tm", help="compile a machine file into a run")
    p.add_argument("file")
    p.add_argument("--trace")
    p.set_defaults(fn=cmd_compile_tm)

    def add_reduction_args(p):
        p.add_argument("--reduce", choices=["halting", "nis", "wo"], required=True)
        p.add_argument("--machine", help="curated name or program file")
        p.add_argument("--index", type=int, default=0, help="machine index")
        p.add_argument("--order", default="omega", help="order keyword/descriptor")
        p.add_argument("--order-file")

    def add_budget_args(p):
        p.add_argument("--max-turns", type=_int_at_least(1), default=100)
        p.add_argument("--max-number", type=_int_at_least(1, MAX_DUEL_NUMBER), default=6)
        p.add_argument("--exhaustive", action="store_true",
                       help="read the number cap as the whole choice space")

    p = sub.add_parser("check-win", help="run the budgeted winning checker")
    add_reduction_args(p)
    add_budget_args(p)
    p.add_argument("--witness", help="write the witness trace here")
    p.set_defaults(fn=cmd_check_win)

    p = sub.add_parser("reduce", help="emit a reduction's run and strategy")
    add_reduction_args(p)
    p.add_argument("--trace")
    p.add_argument("--strategy-out", help="write the strategy descriptor here")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("tree", help="localize a strategy as a tree")
    add_reduction_args(p)
    add_budget_args(p)
    p.add_argument("--depth", type=_int_at_least(0), default=6)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("duel", help="play Player 2's numbers interactively")
    p.add_argument("--script", help="transcript file of numbers")
    p.add_argument("--machine", default="successor")
    p.add_argument("--max-rounds", type=_int_at_least(1), default=50)
    p.set_defaults(fn=cmd_duel)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError, InvalidOrder, TMParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DuelhaltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
