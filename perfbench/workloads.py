"""The three workloads: fixed lists of operations through the functions the
CLI commands call, each with a check of its output.

An operation's `run` is timed; its `check` is not, and judges the result
against reference.py or against a property the method must have.  An
operation with `known_fault` set fails today because of a named fault in
the program.  Its `symptom` tells that fault's own failure from any other:
a failure it matches is counted without making the run incorrect; any
other failure of the same operation makes the run incorrect.

Every operation that runs a strategy builds its own; the two history-probe
operations each play two sequences through one strategy on purpose.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

from duelhalt import carddb, coding, reductions, scripts, strategy, tm, trace
from duelhalt.engine import ActivateEffect, Phase, decode_configuration, encode_configuration, rules
from duelhalt.engine.config import HAND
from duelhalt.errors import IllegalMove

import reference as ref


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: str = ""
    # given an output the check rejected: is that exactly the known fault?
    symptom: Callable[[object], bool] = lambda _result: False


@dataclass
class Boards:
    """The set-up boards: results of setup_run_a and setup_run_b."""
    a: object
    b: object


def _opponent_lost(conf) -> bool:
    """The opponent is at 0 LP while we are not, or must draw from an empty deck."""
    if conf.players[1].lp == 0:
        return conf.players[0].lp > 0
    return (conf.active == 1 and conf.turn >= 1 and conf.phase == Phase.DRAW
            and not conf.draw_done and not conf.players[1].deck)


def _replays_to_win(base_run, verdict) -> bool:
    """A WIN witness replays move by move from the base run to a lost opponent.

    Only the current configuration is kept, so the check adds little to the
    run's peak memory."""
    if not verdict.is_win:
        return False
    conf = base_run.last()
    for mv in verdict.witness:
        conf = rules.apply(conf, mv)
    return _opponent_lost(conf)


# --- halting: deck A, one long scripted line per machine ---------------------

HALTING_BUDGET = strategy.Budget(200, 4)


def _halting_op(name: str) -> Op:
    e = ref.MACHINES[name][0]

    def run():
        out = reductions.reduce_halting(tm.CURATED[name])
        return out, strategy.check_winning(out.run, out.strategy, HALTING_BUDGET)

    def check(res):
        out, verdict = res
        if rules.spell_counters(out.run.last()) != ref.start_counters(e):
            return False
        if name == "loop":
            return ref.diverges(name, e, 64) and verdict.kind == strategy.UNDETERMINED
        return ref.run(name, e, 10_000)[0] == ref.HALTS and _replays_to_win(out.run, verdict)

    return Op(f"halting:{name}", run, check)


def halting(rng: random.Random, boards: Boards, out_dir: str) -> list[Op]:
    # the curated machines are the whole input: nothing here is seeded
    return [_halting_op(name) for name in sorted(ref.MACHINES)]


# --- adversary: deck B, short lines branching on every number -----------------

def _tree_nodes(tree, depth):
    """Every node of the tree down to depth, with its depth."""
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        yield node, d
        if d < depth:
            stack.extend((child, d + 1) for _code, child in node.children)


def _tree_is_won(tree, depth) -> bool:
    """Every branch ends, within depth, at a leaf whose configuration
    decodes to the opponent at 0 LP."""
    for node, d in _tree_nodes(tree, depth):
        if node.winning is True:
            if decode_configuration(node.code).players[1].lp != 0:
                return False
        elif node.winning is False or not node.children or d == depth:
            return False
    return True


def _verdict_op(name, reduce, budget, expect_win: bool, agrees=lambda: True) -> Op:
    def run():
        out = reduce()
        return out, strategy.check_winning(out.run, out.strategy, budget)

    def check(res):
        out, verdict = res
        if not agrees():
            return False
        if expect_win:
            return _replays_to_win(out.run, verdict)
        return verdict.kind == strategy.UNDETERMINED

    return Op(f"{name}:verdict", run, check)


def _tree_op(name, reduce, depth, budget, expect_won: bool, agrees=lambda: True) -> Op:
    def run():
        out = reduce()
        tree = strategy.to_tree(out.strategy, out.run, depth, budget)
        return tree, strategy.well_founded_to_depth(tree, depth)

    def check(res):
        tree, wf = res
        if not agrees():
            return False
        if expect_won:
            return wf == strategy.WELL_FOUNDED and _tree_is_won(tree, depth)
        return wf != strategy.WELL_FOUNDED and not _tree_is_won(tree, depth)

    return Op(f"{name}:tree", run, check)


_PLAN_CACHE_FAULT = ("Strategy.next_move keys its plan cache on the configuration "
                     "alone, but the wait/Raigeki choice depends on the history")


def _play_probe(out, seq):
    """Speak the numbers, let the strategy take its next turn, and report
    whether it cast Raigeki (None when the line strands)."""
    r = out.run
    for n in seq:
        r = strategy.play_opponent_number(r, out.strategy, n)
        if r is None:
            return None
    r = strategy.drive_to_choice(r, out.strategy)
    if r is None:
        return None
    return any(isinstance(m, ActivateEffect) and m.effect == "raigeki_wipe"
               for m in r.moves[len(out.run.moves):])


def _probe_family_op(family, make, holds, sequences, fault: str) -> Op:
    """Sequences played one after another through one strategy, made fresh
    each round.  After each sequence the strategy must cast Raigeki exactly
    when the reference judge says the chain broke.

    The known fault's symptom: the first sequence is judged right, and a
    later one waits (the cached plan) where it must cast.  Any other wrong
    answer, a stranded line or an exception is not that fault."""
    want = [not holds(seq) for seq in sequences]

    def run():
        out = make()
        return [_play_probe(out, seq) for seq in sequences]

    def check(casts):
        return casts == want

    def symptom(casts):
        return casts[0] == want[0] and \
            all(cast == w or (cast is False and w) for cast, w in zip(casts[1:], want[1:]))

    name = f"probe:{family}:" + "/".join(",".join(map(str, seq)) for seq in sequences)
    return Op(name, run, check, fault, symptom)


def _fresh_probes_op(probes) -> Op:
    """Probe sequences each played on a strategy of its own."""
    def run():
        return [_play_probe(make(), seq) for (_family, make, _holds), seq in probes]

    def check(casts):
        return all(cast is not None and cast == (not holds(seq))
                   for ((_f, _m, holds), seq), cast in zip(probes, casts))

    return Op("probe:seeded", run, check)


def _omega_less(m, n):
    return m < n


def _reverse_less(m, n):
    return m > n


def adversary(rng: random.Random, boards: Boards, out_dir: str) -> list[Op]:
    succ, ident = tm.CURATED["successor"], tm.CURATED["identity"]
    omega, reverse = reductions.standard_omega(), reductions.reverse_omega()
    size = 5
    finite = reductions.standard_finite(size)

    def own_finite(m, n):
        return m < n < size

    def finite_agrees():
        return all(finite.less(m, n) == own_finite(m, n)
                   for m in range(size + 2) for n in range(size + 2))

    # Expected verdicts, from the reference side: an infinite chain of
    # preimages within 0..8 exists exactly when the preimage graph has a
    # cycle; a finite order (no descending chain longer than its size) and
    # omega are well orders, so WIN; in reversed omega 0, 1, 2, ... descends
    # forever.
    nis_succ_wins = not ref.preimage_graph_has_cycle("successor", 8, 60)
    nis_ident_wins = not ref.preimage_graph_has_cycle("identity", 8, 60)
    reverse_wins = not ref.wo_chain_holds(_reverse_less,
                                          [ref.pair(1, 0)] + list(range(2, 50)))

    exhaustive = strategy.Budget(150, 8, cap_exhaustive=True)
    finite_budget = strategy.Budget(60, 8, cap_exhaustive=True)
    omega_budget = strategy.Budget(80, 10, cap_exhaustive=True)
    reverse_budget = strategy.Budget(16, 3)

    ops = [
        _verdict_op("nis-successor", lambda: reductions.reduce_nis(succ), exhaustive,
                    nis_succ_wins),
        _verdict_op("nis-identity", lambda: reductions.reduce_nis(ident),
                    strategy.Budget(10, 8, cap_exhaustive=True), nis_ident_wins),
        _verdict_op(f"wo-finite-{size}", lambda: reductions.reduce_wo(finite),
                    finite_budget, True, finite_agrees),
        _tree_op(f"wo-finite-{size}", lambda: reductions.reduce_wo(finite), size + 3,
                 finite_budget, True, finite_agrees),
        _verdict_op("wo-omega", lambda: reductions.reduce_wo(omega), omega_budget, True),
        _tree_op("wo-omega", lambda: reductions.reduce_wo(omega), 6, omega_budget, True),
        _verdict_op("wo-omega-reverse", lambda: reductions.reduce_wo(reverse),
                    reverse_budget, reverse_wins),
        _tree_op("wo-omega-reverse", lambda: reductions.reduce_wo(reverse), 5,
                 reverse_budget, reverse_wins),
    ]
    nis = ("nis-identity", lambda: reductions.reduce_nis(ident),
           lambda seq: ref.nis_chain_holds("identity", seq))
    wo = ("wo-omega", lambda: reductions.reduce_wo(omega),
          lambda seq: ref.wo_chain_holds(_omega_less, seq))
    # seeded numbers, each sequence on a fresh strategy
    seeded = [(family, tuple(rng.randrange(1, 16) for _ in range(3)))
              for family in (nis, wo) for _ in range(2)]
    ops.append(_fresh_probes_op(seeded))
    # equal LP totals: (5,5,5)/(5,2,8) and (72,3)/(61,14) reach the same board
    ops.append(_probe_family_op(*nis, [(5, 5, 5), (5, 2, 8)], _PLAN_CACHE_FAULT))
    ops.append(_probe_family_op(*wo, [(72, 3), (61, 14)], _PLAN_CACHE_FAULT))
    return ops


# --- referee: the verifying side, no strategy search --------------------------

def _setup_op(deck: str, board) -> Op:
    build = scripts.setup_run_a if deck == "a" else scripts.setup_run_b

    def run():
        res = build()
        return res, rules.validate_run(res.run), scripts.board_diff(res.final, deck)

    def check(res):
        result, valid, diffs = res
        return valid and not diffs and result.final == board.final

    return Op(f"setup-{deck}", run, check)


def _counters_op(board, n: int) -> Op:
    def run():
        return scripts.set_counters(board.final, n)

    def check(res):
        return rules.spell_counters(res.final) == n and res.run.configs[0] == board.final

    return Op(f"set-counters:{n}", run, check)


def _trace_op(label: str, run_obj, path: str) -> Op:
    def run():
        trace.write_trace(run_obj, path)
        with open(path) as fh:
            return trace.replay_trace(fh, run_obj.configs[0])

    def check(replayed):
        return replayed.moves == run_obj.moves and replayed.configs == run_obj.configs

    return Op(f"trace:{label}", run, check)


_ZONE_FULL_FAULT = ("legal_moves offers continuous and equip spells from the hand when "
                    "every spell/trap zone is full, and apply then raises IllegalMove")
_ZONE_SPELLS = (carddb.Kind.CONTINUOUS_SPELL, carddb.Kind.EQUIP_SPELL)


def _zone_full_offer(conf, mv) -> bool:
    """A continuous or equip spell activated from the hand while every
    spell/trap zone of its player is full: it has nowhere to go."""
    return (isinstance(mv, ActivateEffect) and mv.source[1] == HAND
            and carddb.by_id(mv.source[2]).kind in _ZONE_SPELLS
            and None not in conf.players[mv.player].spelltraps)


def _step(conf, mv):
    """(conf, move, next configuration or the IllegalMove's message, transition_ok)."""
    try:
        nxt = rules.apply(conf, mv)
    except IllegalMove as exc:
        return conf, mv, str(exc), False
    return conf, mv, nxt, rules.transition_ok(conf, nxt, mv)


def _consistent(steps) -> bool:
    """Each move applied, passed transition_ok and kept the card census;
    every 25th applies again to the same board, and transition_ok rejects
    its start configuration as its own successor."""
    for i, (conf, mv, nxt, ok) in enumerate(steps):
        if isinstance(nxt, str) or not ok or nxt.card_census() != conf.card_census():
            return False
        if i % 25 == 0:
            if rules.apply(conf, mv) != nxt:
                return False
            if nxt != conf and rules.transition_ok(conf, conf, mv):
                return False
    return True


def _legal_moves_op(boards: Boards) -> Op:
    """Every move legal_moves offers along both set-up lines must apply,
    the zone-full offers aside (see _zone_full_op)."""
    configs = boards.a.run.configs + boards.b.run.configs

    def run():
        return [_step(conf, mv) for conf in configs
                for mv in rules.legal_moves(conf, conf.priority)
                if not _zone_full_offer(conf, mv)]

    def check(steps):
        return len(steps) > 0 and _consistent(steps)

    return Op("legal-moves:setup-lines", run, check)


def _zone_full_op(boards: Boards) -> Op:
    """The zone-full offers along both set-up lines: the fault is mended
    when none is offered, or when each applies consistently."""
    configs = [conf for conf in boards.a.run.configs + boards.b.run.configs
               if None not in conf.players[conf.priority].spelltraps]

    def run():
        return [_step(conf, mv) for conf in configs
                for mv in rules.legal_moves(conf, conf.priority)
                if _zone_full_offer(conf, mv)]

    def symptom(steps):
        rejected = [s for s in steps if isinstance(s[2], str)]
        return bool(rejected) and \
            all(nxt == "no free spell/trap zone" for _c, _m, nxt, _ok in rejected) and \
            _consistent([s for s in steps if not isinstance(s[2], str)])

    return Op("legal-moves:zone-full", run, _consistent, _ZONE_FULL_FAULT, symptom)


WALK_STEPS = 1500
WALK_MAX_TURN = 60


def _walk(seed: int, steps: int):
    """A seeded random walk from deck A against the filler deck: at each
    step one of the moves legal_moves offers, zone-full offers aside (they
    are counted by _zone_full_op).  A new game, with a new shuffle of deck
    A, starts when nothing is offered or past turn WALK_MAX_TURN."""
    rng = random.Random(seed)
    deck, filler = carddb.deck_a(), carddb.filler_deck()
    filler_order = rules.identity_order(filler)

    def new_game():
        order = list(range(len(deck.main)))
        rng.shuffle(order)
        return rules.initial_configuration(deck, filler, tuple(order), filler_order)

    out, conf = [], new_game()
    while len(out) < steps:
        moves = [mv for mv in rules.legal_moves(conf, conf.priority)
                 if not _zone_full_offer(conf, mv)]
        if not moves or conf.turn > WALK_MAX_TURN:
            conf = new_game()
            continue
        step = _step(conf, rng.choice(moves))
        out.append(step)
        if isinstance(step[2], str):
            break
        conf = step[2]
    return out


def _walk_op(seed: int) -> Op:
    def run():
        return _walk(seed, WALK_STEPS)

    def check(steps):
        # deterministic: the same seed walks the same moves to the same boards
        again = _walk(seed, WALK_STEPS)
        return len(steps) == WALK_STEPS and _consistent(steps) and \
            [(mv, nxt) for _c, mv, nxt, _ok in again] == [(mv, nxt) for _c, mv, nxt, _ok in steps]

    return Op(f"walk:{seed}", run, check)


def _bounded_op(label: str, cases) -> Op:
    """run_bounded on (machine, input, steps) cases, against the reference interpreter."""
    def run():
        return [tm.run_bounded(tm.CURATED[name], v, t) for name, v, t in cases]

    def check(results):
        for (name, v, t), got in zip(cases, results):
            status, out, _ = ref.run(name, v, t)
            if got != (tm.Converged(out) if status == ref.HALTS else tm.STILL_RUNNING):
                return False
        return True

    return Op(f"run-bounded:{label}", run, check)


def _seq_op(seqs) -> Op:
    def run():
        codes = [coding.seq_encode(s) for s in seqs]
        return codes, [coding.seq_decode(c) for c in codes]

    def check(res):
        codes, decoded = res
        return decoded == [tuple(s) for s in seqs] and \
            len(set(codes)) == len({tuple(s) for s in seqs})

    return Op("seq-codec", run, check)


def _config_codec_op(configs) -> Op:
    def run():
        return [decode_configuration(encode_configuration(c)) for c in configs]

    def check(decoded):
        return decoded == configs

    return Op("config-codec", run, check)


def referee(rng: random.Random, boards: Boards, out_dir: str) -> list[Op]:
    # two targets with a fixed sum, so a round's work does not depend on the seed
    low = rng.randrange(350, 650)
    targets = (low, 1000 - low)

    cases = [(name, rng.randrange(1, 1 << 10), rng.randrange(4, 40))
             for name in sorted(ref.MACHINES) for _ in range(6)]
    loop_input = rng.randrange(1 << 10)
    seqs = [[rng.randrange(1 << 16) for _ in range(24)] for _ in range(200)]
    pool = boards.a.run.configs + boards.b.run.configs
    configs = [pool[i] for i in sorted(rng.sample(range(len(pool)), 60))]
    walk_seeds = [rng.randrange(1 << 30) for _ in range(2)]

    return [
        _setup_op("a", boards.a),
        _setup_op("b", boards.b),
        *(_counters_op(boards.a, n) for n in targets),
        _trace_op("setup-a", boards.a.run, os.path.join(out_dir, "setup-a.jsonl")),
        _trace_op("setup-b", boards.b.run, os.path.join(out_dir, "setup-b.jsonl")),
        *(_trace_op(f"counters-{n}", scripts.set_counters(boards.a.final, n).run,
                    os.path.join(out_dir, f"counters-{i}.jsonl"))
          for i, n in enumerate(targets)),
        _legal_moves_op(boards),
        _zone_full_op(boards),
        *(_walk_op(seed) for seed in walk_seeds),
        _bounded_op("decrement:0:1000", [("decrement", 0, 1000)]),
        _bounded_op("decrement:0:3000", [("decrement", 0, 3000)]),
        _bounded_op(f"loop:{loop_input}:3000", [("loop", loop_input, 3000)]),
        _bounded_op("seeded", cases),
        _seq_op(seqs),
        _config_codec_op(configs),
    ]


WORKLOADS = {"halting": halting, "adversary": adversary, "referee": referee}
