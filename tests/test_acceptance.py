"""The acceptance gate: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them)."""

import os
import random
from collections import Counter

from duelhalt.carddb import card_name, deck_a, deck_b, filler_deck
from duelhalt.coding import pair, seq_decode, seq_encode, triple
from duelhalt.engine import (
    apply,
    encode_configuration,
    initial_configuration,
    legal_moves,
    replay_witness,
    transition_ok,
    validate_run,
)
from duelhalt.engine.rules import identity_order, spell_counters
from duelhalt.reductions import (
    ChainWitness,
    NO_CHAIN,
    appendix_f,
    appendix_g,
    descending_chains,
    nis_membership_bounded,
    reduce_halting,
    reduce_nis,
    reduce_wo,
    reverse_omega,
    standard_finite,
    standard_omega,
)
from duelhalt.scripts import (
    decrement_cycle,
    increment_cycle,
    set_counters,
    turn_tick,
)
from duelhalt.strategy import (
    Budget,
    UNDETERMINED,
    WELL_FOUNDED,
    WIN,
    check_winning,
    drive_to_choice,
    play_opponent_number,
    to_tree,
    well_founded_to_depth,
)
from duelhalt.tm import (
    CURATED,
    Converged,
    STILL_RUNNING,
    encode_tmconf,
    initial_config,
    machine_from_index,
    run_bounded,
    step_n,
)


def report(n, name, ok):
    print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({name}) failed"


# 1 ---------------------------------------------------------------------------

def test_acceptance_1_deck_legality():
    a, b = deck_a(), deck_b()
    ok = (
        len(a.main) == 43 and len(a.extra) == 0
        and len(b.main) == 46 and len(b.extra) == 2
        and len(b.main) + len(b.extra) == 48
    )
    a.validate()
    b.validate()
    report(1, "deck legality", ok)


# 2 ---------------------------------------------------------------------------

def _board_summary(conf, player):
    ps = conf.players[player]
    return {
        "monsters": sorted(
            (m.name, m.face_up) for m in ps.monsters if m is not None
        ),
        "extra": ps.extra_zone and (ps.extra_zone.name, ps.extra_zone.face_up),
        "st": sorted((s.name, s.face_up) for s in ps.spelltraps if s is not None),
        "field": ps.field_zone and (ps.field_zone.name, ps.field_zone.counters),
        "hand": sorted(card_name(c) for c in ps.hand),
        "deck": len(ps.deck),
        "extra_deck": len(ps.extra_deck),
    }


HAND_A = sorted(["Yata-Garasu", "Bait Doll", "Upstart Goblin",
                 "Book of Eclipse", "Desert Sunlight"])

TARGET_A_P1 = {
    "monsters": sorted([("Magician of Faith", True), ("Magician of Faith", True),
                        ("Mask of Darkness", True), ("Vanity's Ruler", True)]),
    "extra": None,
    "st": sorted([("Temple of the Kings", True), ("Localized Tornado", False)]),
    "field": ("Magical Citadel of Endymion", 0),
    "hand": HAND_A,
    "deck": 0,
    "extra_deck": 0,
}

# the opponent also holds the boost trap pointed at the ruler: the
# construction's own decrement loop requires it (see the decisions ledger)
TARGET_A_P2_ST = sorted([("Massivemorph", True), ("Pole Position", True)])


def test_acceptance_2_setup_replays(board_a, board_b):
    ok = validate_run(board_a.run) and validate_run(board_b.run)

    got = _board_summary(board_a.final, 0)
    ok = ok and got == TARGET_A_P1
    p2 = _board_summary(board_a.final, 1)
    ok = ok and p2["st"] == TARGET_A_P2_ST and p2["monsters"] == [] \
        and p2["hand"] == []
    ok = ok and board_a.final.players[1].gy == () \
        and board_a.final.players[1].banished == ()

    got_b = _board_summary(board_b.final, 0)
    ok = ok and got_b["monsters"] == TARGET_A_P1["monsters"]
    ok = ok and got_b["extra"] == ("Starving Venemy Dragon", True)
    ok = ok and got_b["field"] == ("Magical Citadel of Endymion", 0)
    ok = ok and got_b["hand"] == sorted(HAND_A + ["Raigeki"])
    ok = ok and got_b["deck"] == 0 and got_b["extra_deck"] == 0
    ok = ok and ("Attraffic Control", True) in got_b["st"]

    p2b = _board_summary(board_b.final, 1)
    ok = ok and Counter(n for n, _f in p2b["monsters"]) == Counter({
        "Flint Lock": 2, "Protector of the Sanctuary": 1,
        "Clara & Rushka, the Ventriloduo": 1})
    ok = ok and p2b["st"] == sorted([
        ("Flint", True), ("Massivemorph", True), ("Mist Body", True),
        ("Morale Boost", True), ("Pole Position", True)])
    ok = ok and p2b["hand"] == []
    prot = next(m for m in board_b.final.players[1].monsters
                if m is not None and m.name == "Protector of the Sanctuary")
    ok = ok and prot.negated
    report(2, "setup replay", ok)


# 3 ---------------------------------------------------------------------------

def test_acceptance_3_counter_arithmetic(board_a):
    conf = board_a.final
    ok = spell_counters(increment_cycle(conf).final) == 3
    six = set_counters(conf, 6).final
    dec = decrement_cycle(six)
    ok = ok and spell_counters(dec.final) == 1 and dec.final.skip_draw[0]
    tick = turn_tick(conf)
    ok = ok and spell_counters(tick.final) == 1
    for n in range(1, 101):
        got = spell_counters(set_counters(conf, n).final)
        ok = ok and got == n
        if not ok:
            break
    report(3, "counter arithmetic", ok)


# 4 ---------------------------------------------------------------------------

def test_acceptance_4_tm_lockstep():
    ok = True
    for name, e in CURATED.items():
        out = reduce_halting(e)
        machine = machine_from_index(e)
        init = initial_config(machine, e)
        run = out.run
        for k in range(1, 51):
            run = drive_to_choice(run, out.strategy)
            if run is None:
                ok = False
                break
            if run.last().players[1].lp == 0:
                break  # the attack phase won mid-turn; the duel is over
            expected = encode_tmconf(step_n(machine, init, k))
            if spell_counters(run.last()) != expected:
                print(f"\n  lockstep broke: {name} k={k}")
                ok = False
                break
            nxt = play_opponent_number(run, out.strategy, 0)
            if nxt is None:
                ok = False
                break
            run = nxt
        if not ok:
            break
    report(4, "tm lockstep", ok)


# 5 ---------------------------------------------------------------------------

def test_acceptance_5_halting_reduction():
    ok = True
    halting = ["empty", "identity", "successor", "decrement", "bitclear",
               "setlow", "slow", "oracle-always", "oracle-searchzero"]
    for name in halting:
        out = reduce_halting(CURATED[name])
        v = check_winning(out.run, out.strategy, Budget(200, 4))
        if v.kind != WIN:
            print(f"\n  {name}: expected win, got {v.kind}")
            ok = False
    out = reduce_halting(CURATED["loop"])
    for turns in (50, 200, 1000):
        v = check_winning(out.run, out.strategy, Budget(turns, 4))
        if v.kind != UNDETERMINED:
            print(f"\n  loop@{turns}: {v.kind}")
            ok = False
    report(5, "halting reduction behavior", ok)


# 6 ---------------------------------------------------------------------------

def test_acceptance_6_nis_reduction():
    ok = True
    # successor: a bounded-exhaustive adversary cannot outlast the strategy
    out = reduce_nis(CURATED["successor"])
    v = check_winning(out.run, out.strategy,
                      Budget(max_turns=150, max_opponent_number=8,
                             cap_exhaustive=True))
    ok = ok and v.kind == WIN
    agree = nis_membership_bounded(CURATED["successor"], 20, 8, 60)
    ok = ok and agree == NO_CHAIN  # no deep chain <=> win

    # identity: the constant chain survives; exhibit it to depth 20
    out = reduce_nis(CURATED["identity"])
    run = out.run
    numbers = [triple(0, 0, 1)] + [pair(0, 1)] * 19
    for n in numbers:
        run = play_opponent_number(run, out.strategy, n)
        if run is None or run.last().players[1].lp == 0:
            ok = False
            break
    ok = ok and run is not None and validate_run(run)
    witness = nis_membership_bounded(CURATED["identity"], 20, 8, 60)
    ok = ok and isinstance(witness, ChainWitness)  # chain <=> not a win
    v = check_winning(out.run, out.strategy,
                      Budget(max_turns=24, max_opponent_number=8,
                             cap_exhaustive=True))
    ok = ok and v.kind != WIN
    report(6, "nis reduction behavior", ok)


# 7 ---------------------------------------------------------------------------

def test_acceptance_7_wo_reduction():
    ok = True
    for size in (3, 5, 8):
        x = standard_finite(size)
        out = reduce_wo(x)
        budget = Budget(max_turns=60, max_opponent_number=8, cap_exhaustive=True)
        v = check_winning(out.run, out.strategy, budget)
        ok = ok and v.kind == WIN
        # the independent enumerator: no descending chain outlives the size
        ok = ok and descending_chains(x, size, size + 1) is None
        tree = to_tree(out.strategy, out.run, depth=size + 3, budget=budget)
        ok = ok and well_founded_to_depth(tree, size + 3) == WELL_FOUNDED

    out = reduce_wo(standard_omega())
    budget = Budget(max_turns=80, max_opponent_number=10, cap_exhaustive=True)
    v = check_winning(out.run, out.strategy, budget)
    ok = ok and v.kind == WIN
    tree = to_tree(out.strategy, out.run, depth=6, budget=budget)
    ok = ok and well_founded_to_depth(tree, 6) == WELL_FOUNDED

    # reverse omega: exhibit the surviving ascending chain 0,1,2,...,49
    out = reduce_wo(reverse_omega())
    run = out.run
    chain = [pair(1, 0)] + list(range(2, 50))
    for n in chain:
        run = play_opponent_number(run, out.strategy, n)
        if run is None or run.last().players[1].lp == 0:
            ok = False
            break
    ok = ok and run is not None
    budget = Budget(max_turns=16, max_opponent_number=3)
    v = check_winning(out.run, out.strategy, budget)
    ok = ok and v.kind == UNDETERMINED
    tree = to_tree(out.strategy, out.run, depth=5, budget=budget)
    ok = ok and well_founded_to_depth(tree, 5) != WELL_FOUNDED
    report(7, "wo reduction behavior", ok)


# 8 ---------------------------------------------------------------------------

def test_acceptance_8_appendix_machinery():
    ok = True
    z_always = CURATED["oracle-always"]
    z_search = CURATED["oracle-searchzero"]
    for code in range(1, 10_001):
        try:
            s = seq_decode(code)
        except ValueError:
            continue
        if not s:
            continue
        for n in (1, 5, 10):
            if appendix_f(n, code, z_always) is not None:
                ok = False
                break
    ones = [1] * 22
    for n in (1, 2, 7):
        for m in range(20, -1, -1):
            if appendix_f(n, seq_encode(ones[: m + 2]), z_search) != \
                    seq_encode(ones[: m + 1]):
                ok = False
                break
    rng = random.Random(5)
    g = appendix_g(3, z_search)
    checked = 0
    for _ in range(120):
        s = tuple(rng.choice([0, 1, 2]) for _ in range(rng.randrange(0, 5)))
        code = seq_encode(s)
        expected = appendix_f(3, code, z_search)
        got = run_bounded(g, code, 10**4)
        want = STILL_RUNNING if expected is None else Converged(expected)
        if got != want:
            ok = False
            break
        checked += 1
    ok = ok and checked >= 100
    report(8, "appendix machinery", ok)


# 9 ---------------------------------------------------------------------------

def test_acceptance_9_flintlock_gadget():
    out = reduce_nis(CURATED["identity"])
    run = drive_to_choice(out.run, out.strategy)
    base_lp = run.last().players[1].lp
    ok = True
    for k in range(0, 21):
        after = play_opponent_number(run, out.strategy, k).last()
        ok = ok and after.players[1].lp - base_lp == 1000 * k
        flint = next(s for s in after.players[1].spelltraps
                     if s is not None and s.name == "Flint")
        ok = ok and after.instance_at(flint.equipped_to).name == \
            "Clara & Rushka, the Ventriloduo"
    # the eclipse cycles of our next turn must not destroy the parked equip
    after = play_opponent_number(run, out.strategy, 3).last()
    ticked = turn_tick(after)
    flint_alive = any(
        s is not None and s.name == "Flint"
        for s in ticked.final.players[1].spelltraps
    )
    ok = ok and flint_alive
    report(9, "flint lock gadget", ok)


# 10 --------------------------------------------------------------------------

def test_acceptance_10_engine_property_suite():
    seed = int(os.environ.get("DUELHALT_SEED", "0"))
    rng = random.Random(seed)
    a, f = deck_a(), filler_deck()

    def fresh_walk_start():
        order = list(range(len(a.main)))
        rng.shuffle(order)
        return initial_configuration(a, f, tuple(order), identity_order(f))

    conf = fresh_walk_start()
    census = conf.card_census()
    transitions = 0
    violations = 0
    while transitions < 10_000:
        moves = legal_moves(conf, conf.priority)
        if not moves or conf.turn > 60:
            conf = fresh_walk_start()
            census = conf.card_census()
            continue
        if len(moves) > 10_000:
            violations += 1
        mv = rng.choice(moves)
        nxt = apply(conf, mv)
        if apply(conf, mv) != nxt:
            violations += 1
        if not transition_ok(conf, nxt, mv):
            violations += 1
        if nxt.card_census() != census:
            violations += 1
        if transitions % 250 == 0:
            again = apply(conf, mv)
            if encode_configuration(again) != encode_configuration(nxt):
                violations += 1
        conf = nxt
        transitions += 1

    # budget monotonicity: growing budgets only resolve undetermined
    out = reduce_halting(CURATED["slow"])
    kinds = [check_winning(out.run, out.strategy, Budget(t, 4)).kind
             for t in (5, 80, 200)]
    seen_win = False
    for k in kinds:
        if seen_win and k != WIN:
            violations += 1
        seen_win = seen_win or k == WIN
    if kinds[-1] != WIN:
        violations += 1
    report(10, "engine property suite", violations == 0)
