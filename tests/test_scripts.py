from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from duelhalt.carddb import lookup
from duelhalt.engine import ActivateEffect, Phase, apply, validate_run
from duelhalt.engine.config import GY
from duelhalt.engine.config import fast_replace, update_player
from duelhalt.engine.rules import is_legal, spell_counters, transport
from duelhalt.errors import IllegalMove, InsufficientCounters, NotLoopReady, ZeroTarget
from duelhalt import scripts
from duelhalt.reductions import (
    reduce_halting,
    reduce_nis,
    reduce_wo,
    reverse_omega,
    standard_finite,
    standard_omega,
)
from duelhalt.scripts import (
    Line,
    cycle_plan,
    decrement_cycle,
    increment_cycle,
    increment_cycle_moves,
    play_cycles,
    set_counters,
    turn_tick,
)
from duelhalt.strategy import UNDETERMINED, WIN, Budget, check_winning
from duelhalt.tm import CURATED


def _cid(name):
    return lookup(name).id


def names(cards):
    return sorted(lookup_name(c) for c in cards)


def lookup_name(cid):
    from duelhalt.carddb import card_name
    return card_name(cid)


HAND_A = sorted([
    "Yata-Garasu", "Bait Doll", "Upstart Goblin", "Book of Eclipse",
    "Desert Sunlight",
])


class TestSetupA:
    def test_validates(self, board_a):
        assert validate_run(board_a.run)

    def test_final_hand(self, board_a):
        assert names(board_a.final.players[0].hand) == HAND_A

    def test_decks_empty(self, board_a):
        p1 = board_a.final.players[0]
        assert p1.deck == () and p1.extra_deck == ()

    def test_field(self, board_a):
        p1 = board_a.final.players[0]
        monsters = sorted(m.name for m in p1.monsters if m is not None)
        assert monsters == ["Magician of Faith", "Magician of Faith",
                            "Mask of Darkness", "Vanity's Ruler"]
        assert all(m.face_up for m in p1.monsters if m is not None)
        assert p1.field_zone.name == "Magical Citadel of Endymion"
        assert p1.field_zone.counters == 0 and p1.field_zone.face_up
        sts = {(s.name, s.face_up) for s in p1.spelltraps if s is not None}
        assert sts == {("Temple of the Kings", True), ("Localized Tornado", False)}

    def test_graveyard_parks_the_loop_pair(self, board_a):
        gy = board_a.final.players[0].gy
        assert _cid("Endymion, the Master Magician") in gy
        assert _cid("Offerings to the Doomed") in gy

    def test_opponent_side(self, board_a):
        p2 = board_a.final.players[1]
        assert p2.hand == () and p2.gy == () and p2.banished == ()
        assert all(m is None for m in p2.monsters)
        sts = sorted(s.name for s in p2.spelltraps if s is not None)
        assert sts == ["Massivemorph", "Pole Position"]
        morph = next(s for s in p2.spelltraps if s is not None and s.name == "Massivemorph")
        target = board_a.final.instance_at(morph.equipped_to)
        assert target.name == "Vanity's Ruler"

    def test_conservation(self, board_a):
        first = board_a.run.configs[0].card_census()
        last = board_a.final.card_census()
        assert first == last


class TestSetupB:
    def test_validates(self, board_b):
        assert validate_run(board_b.run)

    def test_final_hand_adds_raigeki(self, board_b):
        assert names(board_b.final.players[0].hand) == sorted(HAND_A + ["Raigeki"])

    def test_extra_zone_dragon(self, board_b):
        ez = board_b.final.players[0].extra_zone
        assert ez is not None and ez.name == "Starving Venemy Dragon" and ez.face_up

    def test_attraffic_active(self, board_b):
        sts = [s.name for s in board_b.final.players[0].spelltraps if s is not None and s.face_up]
        assert "Attraffic Control" in sts

    def test_opponent_board(self, board_b):
        p2 = board_b.final.players[1]
        monsters = Counter(m.name for m in p2.monsters if m is not None)
        assert monsters == Counter({
            "Flint Lock": 2,
            "Protector of the Sanctuary": 1,
            "Clara & Rushka, the Ventriloduo": 1,
        })
        assert p2.extra_zone is None  # the pair sits in a main zone
        prot = next(m for m in p2.monsters if m is not None
                    and m.name == "Protector of the Sanctuary")
        assert prot.negated
        sts = sorted(s.name for s in p2.spelltraps if s is not None)
        assert sts == ["Flint", "Massivemorph", "Mist Body", "Morale Boost",
                       "Pole Position"]
        flint = next(s for s in p2.spelltraps if s is not None and s.name == "Flint")
        assert board_b.final.instance_at(flint.equipped_to).name == \
            "Clara & Rushka, the Ventriloduo"
        morph = next(s for s in p2.spelltraps if s is not None and s.name == "Massivemorph")
        assert board_b.final.instance_at(morph.equipped_to).name == \
            "Starving Venemy Dragon"
        assert p2.hand == () and p2.gy == () and p2.banished == ()

    def test_conservation(self, board_b):
        first = board_b.run.configs[0].card_census()
        last = board_b.final.card_census()
        assert first == last


class TestLoops:
    def test_increment_delta(self, board_a):
        res = increment_cycle(board_a.final)
        assert spell_counters(res.final) == 3
        res2 = increment_cycle(res.final)
        assert spell_counters(res2.final) == 6

    def test_two_cycles_same_non_counter_board(self, board_a):
        one = increment_cycle(increment_cycle(board_a.final).final).final
        two = increment_cycle(one).final
        assert names(one.players[0].hand) == names(two.players[0].hand)
        assert [m and m.name for m in one.players[0].monsters] == \
            [m and m.name for m in two.players[0].monsters]
        assert spell_counters(two) - spell_counters(one) == 3

    def test_decrement(self, board_a):
        six = set_counters(board_a.final, 6).final
        res = decrement_cycle(six)
        assert spell_counters(res.final) == 1
        assert res.final.skip_draw[0]

    def test_decrement_needs_six(self, board_a):
        five = set_counters(board_a.final, 5).final
        with pytest.raises(InsufficientCounters):
            decrement_cycle(five)

    def test_decrement_from_eleven(self, board_a):
        res = decrement_cycle(set_counters(board_a.final, 11).final)
        assert spell_counters(res.final) == 6

    def test_set_counters_exact(self, board_a):
        for n in (1, 2, 7, 17, 40):
            assert spell_counters(set_counters(board_a.final, n).final) == n

    def test_set_counters_zero_target(self, board_a):
        with pytest.raises(ZeroTarget):
            set_counters(board_a.final, 0)

    def test_set_counters_not_loop_ready(self, board_a):
        with pytest.raises(NotLoopReady):
            set_counters(board_a.run.configs[0], 3)

    def test_loop_fragment_transitions_validate(self, board_a):
        from duelhalt.engine.rules import transition_ok

        res = set_counters(board_a.final, 9)
        for i, mv in enumerate(res.run.moves):
            assert transition_ok(res.run.configs[i], res.run.configs[i + 1], mv)


class TestTurnTick:
    def test_counters_and_skip(self, board_a):
        res = turn_tick(board_a.final)
        assert spell_counters(res.final) == 1
        assert res.final.active == 0 and res.final.phase == Phase.MAIN1

    def test_opponent_never_draws(self, board_a):
        res = turn_tick(board_a.final)
        res2 = turn_tick(res.final)
        for conf in res2.run.configs:
            assert len(conf.players[1].hand) == 0
        assert spell_counters(res2.final) == 2

    def test_tick_on_second_board(self, board_b):
        res = turn_tick(board_b.final)
        assert spell_counters(res.final) == 1
        res2 = turn_tick(res.final)
        assert spell_counters(res2.final) == 2


class TestFlintlock:
    def test_gain_exact(self):
        from duelhalt.reductions import reduce_nis
        from duelhalt.strategy import drive_to_choice, play_opponent_number
        from duelhalt.tm import CURATED

        out = reduce_nis(CURATED["identity"])
        run = drive_to_choice(out.run, out.strategy)
        assert run is not None
        base_lp = run.last().players[1].lp
        for k in (0, 1, 3, 7):
            after = play_opponent_number(run, out.strategy, k).last()
            assert after.players[1].lp - base_lp == 1000 * k
            flint = next(s for s in after.players[1].spelltraps
                         if s is not None and s.name == "Flint")
            target = after.instance_at(flint.equipped_to)
            assert target.name == "Clara & Rushka, the Ventriloduo"


@given(st.integers(-3000, 3000), st.integers(0, 3))
def test_cycle_plan_is_the_least_composition(delta, min_decrements):
    a, b = cycle_plan(delta, min_decrements)
    assert 3 * a - 5 * b == delta and a >= 0 and b >= min_decrements
    # three fewer decrements would be the next composition down
    assert b - 3 < min_decrements or a < 5


def test_cycle_plan_bound():
    assert cycle_plan(-50_000) == (0, 10_000)
    with pytest.raises(NotLoopReady, match=r"3 increment and 10002 decrement cycles "
                                           r"\(20016 moves\)"):
        cycle_plan(-50_001)


def test_cycle_plan_bounds_the_increment_cycles():
    assert cycle_plan(60_000) == (20_000, 0)
    with pytest.raises(NotLoopReady, match=r"20001 increment and 0 decrement cycles "
                                           r"\(80004 moves\)"):
        cycle_plan(60_003)


# --- the shift lemma and the shifted increment cycles --------------------------


def _applied_cycles(start, n):
    """n increment cycles from start, each move through apply: the reference
    the shifted cycles are compared with."""
    line = Line(start)
    for _ in range(n):
        increment_cycle_moves(line)
    return line.run


@pytest.fixture(scope="module")
def first_six_cycles(board_a, board_b):
    """The steps of the first six increment cycles from set-up A's final
    board, from 40 counters, and from set-up B's board after one sustaining
    turn, four to a cycle."""
    cycles = []
    for start in (board_a.final, set_counters(board_a.final, 40).final,
                  turn_tick(board_b.final).final):
        steps = list(_applied_cycles(start, 6).steps())
        cycles += [steps[i:i + 4] for i in range(0, 24, 4)]
    assert len(cycles) == 18
    return cycles


def _outcome(conf, move):
    try:
        return apply(conf, move)
    except IllegalMove:
        return None


def _shifted(conf, dc, dl):
    """conf with dc more counters on our Citadel and dl more LP for the
    opponent, built field by field: the reference for transport's shift."""
    fz = conf.players[0].field_zone
    conf = update_player(conf, 0, field_zone=fast_replace(fz, counters=fz.counters + dc))
    return update_player(conf, 1, lp=conf.players[1].lp + dl)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(0, 10**9))
def test_apply_commutes_with_the_counter_shift(first_six_cycles, dc, dl):
    """transport's lemma for the numeric frame on every configuration of the
    cycles: each of its cycle's four moves is legal at c exactly when it is
    legal at the shifted c, and then leads to the result moved onto it."""
    for cycle in first_six_cycles:
        moves = [move for _c, move, _n in cycle]
        for conf, _m, _n in cycle:
            shifted = _shifted(conf, dc, dl)
            assert spell_counters(shifted) == spell_counters(conf) + dc
            assert shifted.players[1].lp == conf.players[1].lp + dl
            for move in moves:
                after = _outcome(conf, move)
                want = None if after is None else transport([after], conf, shifted)[0]
                if want is not None:
                    assert want == _shifted(after, dc, dl)
                    assert transport([after], conf, shifted, numeric=True) == [want]
                assert _outcome(shifted, move) == want


def test_the_shift_lemma_is_only_for_the_cycle_moves(board_a):
    # Endymion's summon reads a threshold: shifting 5 counters up by 3
    # makes it legal, so it does not commute with the shift
    five = set_counters(board_a.final, 5).final
    gy = five.players[0].gy
    summon = ActivateEffect(0, "endymion_counter_summon",
                            (0, GY, gy.index(_cid("Endymion, the Master Magician"))),
                            extras=(five.players[0].monsters.index(None), 0))
    assert not is_legal(five, summon)
    assert is_legal(_shifted(five, 3, 0), summon)


@pytest.mark.parametrize("start", ["final", "tick"])
def test_shifted_cycles_equal_the_applied_cycles(board_a, start):
    board = board_a.final if start == "final" else turn_tick(board_a.final).final
    applied = _applied_cycles(board, 12)
    for a in range(1, 13):
        line = Line(board)
        play_cycles(line, a, 0)
        assert line.run.configs == applied.configs[:4 * a + 1]
        assert line.run.moves == applied.moves[:4 * a]


@pytest.mark.parametrize("name", sorted(CURATED))
def test_halting_runs_validate(name):
    assert validate_run(reduce_halting(CURATED[name]).run)


# each reduction with a budget it is explored at and the verdict there:
# halting at Budget(200, 4), and the channel reductions at the benchmark's
# budgets
_EXPLORED = {
    "halting-identity": (lambda: reduce_halting(CURATED["identity"]), Budget(200, 4), WIN),
    "nis-successor": (lambda: reduce_nis(CURATED["successor"]),
                      Budget(150, 8, cap_exhaustive=True), WIN),
    "nis-identity": (lambda: reduce_nis(CURATED["identity"]),
                     Budget(10, 8, cap_exhaustive=True), UNDETERMINED),
    "wo-finite-5": (lambda: reduce_wo(standard_finite(5)),
                    Budget(60, 8, cap_exhaustive=True), WIN),
    "wo-omega": (lambda: reduce_wo(standard_omega()), Budget(80, 10, cap_exhaustive=True), WIN),
    "wo-omega-reverse": (lambda: reduce_wo(reverse_omega()), Budget(16, 3), UNDETERMINED),
}


def test_planned_steps_are_applied_steps():
    # cycles linked from the strategy's cycle table included: every
    # plan-cache entry is what apply gives
    for name, (reduce, budget, kind) in _EXPLORED.items():
        out = reduce()
        assert check_winning(out.run, out.strategy, budget).kind == kind, name
        plan = out.strategy._plan
        assert plan, name
        for (conf, _mode), (move, nxt) in plan.items():
            assert apply(conf, move) == nxt, name


def _cycle_from(plan, conf, mode):
    """The four planned steps from a cycle's start, (move, configuration)."""
    steps = []
    for _ in range(4):
        move, conf = plan[conf, mode]
        steps.append((move, conf))
    return steps


@pytest.mark.parametrize("name", ["nis-successor", "wo-omega-reverse"])
def test_linked_cycles_are_the_cycles_the_engine_plays(name, monkeypatch):
    # every planned increment cycle, linked from the table or not, has the
    # moves increment_cycle_moves picks at its start and the configurations
    # they lead to
    reduce, budget, _kind = _EXPLORED[name]
    out = reduce()
    played = []
    engine_cycle = scripts.increment_cycle_moves

    def counted(line):
        played.append(line.conf)
        engine_cycle(line)

    monkeypatch.setattr(scripts, "increment_cycle_moves", counted)
    check_winning(out.run, out.strategy, budget)
    monkeypatch.undo()
    plan = out.strategy._plan
    starts = [key for key, (move, _n) in plan.items()
              if getattr(move, "effect", None) == "boe_flip_all"]
    linked = [key for key in starts if key[0] not in played]
    assert len(linked) > len(starts) // 2
    for conf, mode in linked:
        line = Line(conf)
        increment_cycle_moves(line)
        assert _cycle_from(plan, conf, mode) == [(m, n) for _c, m, n in line.run.steps()]


def test_the_cycle_table_links_only_upward_shifts(board_b, monkeypatch):
    # a recorded cycle is linked from a start it shifts onto by (x, y) >= 0
    # (counters, opponent LP); from a start below it in either, the cycle
    # goes through the engine, and either way the line is the applied one
    start = turn_tick(board_b.final).final
    table = {}
    play_cycles(Line(start, table), 1, 0)
    assert len(table) == 1
    played = []
    engine_cycle = scripts.increment_cycle_moves
    monkeypatch.setattr(scripts, "increment_cycle_moves",
                        lambda line: (played.append(line.conf), engine_cycle(line)))
    for dc, dl, linked in [(0, 0, True), (3, 0, True), (0, 1000, True), (30, 7000, True),
                           (-1, 0, False), (0, -1000, False), (-1, 1000, False),
                           (3, -1000, False)]:
        shifted = _shifted(start, dc, dl)
        line = Line(shifted, dict(table))
        played.clear()
        play_cycles(line, 1, 0)
        assert played == ([] if linked else [shifted]), (dc, dl)
        want = _applied_cycles(shifted, 1)
        assert (line.run.configs, line.run.moves) == (want.configs, want.moves), (dc, dl)
