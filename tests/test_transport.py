"""Transported turns: a strategy's recorded turn, moved by ``rules.transport``
onto a start that differs from its own only in the frame, is the turn the
strategy plans from there; and each guard of the lemma refuses what it must."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from duelhalt import strategy
from duelhalt.engine import apply
from duelhalt.engine.config import fast_replace
from duelhalt.engine.rules import line_frame, transport, unframed
from duelhalt.errors import IllegalMove
from duelhalt.reductions import (
    reduce_halting,
    reduce_nis,
    reduce_wo,
    reverse_omega,
    standard_finite,
    standard_omega,
)
from duelhalt.strategy import Budget, check_winning
from duelhalt.tm import CURATED

_EXHAUSTIVE = dict(cap_exhaustive=True)

# the ten curated halting machines, and the channel reductions at the
# benchmark's budgets
_CHECKS = {f"halting-{name}": (lambda name=name: reduce_halting(CURATED[name]), Budget(200, 4))
           for name in sorted(CURATED)}
_CHECKS.update({
    "nis-successor": (lambda: reduce_nis(CURATED["successor"]), Budget(150, 8, **_EXHAUSTIVE)),
    "nis-identity": (lambda: reduce_nis(CURATED["identity"]), Budget(10, 8, **_EXHAUSTIVE)),
    "wo-finite-5": (lambda: reduce_wo(standard_finite(5)), Budget(60, 8, **_EXHAUSTIVE)),
    "wo-omega": (lambda: reduce_wo(standard_omega()), Budget(80, 10, **_EXHAUSTIVE)),
    "wo-omega-reverse": (lambda: reduce_wo(reverse_omega()), Budget(16, 3)),
})


def _moved_turns(out, budget, monkeypatch):
    """check_winning's verdict, and each turn the strategy moved onto a
    start there as (start, mode, steps)."""
    moved, found = [], strategy.Strategy._transported

    def spy(self, conf, key):
        steps = found(self, conf, key)
        if steps is not None:
            moved.append((conf, key[1], steps))
        return steps

    monkeypatch.setattr(strategy.Strategy, "_transported", spy)
    verdict = check_winning(out.run, out.strategy, budget)
    monkeypatch.undo()
    return verdict, moved


@pytest.mark.parametrize("name", sorted(_CHECKS))
def test_moved_turns_are_the_planned_turns(name, monkeypatch):
    # every transported turn, moves and configurations, is the line the
    # planner makes from its start with empty tables
    reduce, budget = _CHECKS[name]
    _verdict, moved = _moved_turns(reduce(), budget, monkeypatch)
    planner = reduce().strategy
    for conf, mode, steps in moved:
        planner._cycles = {}
        line = planner._plan_turn(conf, mode)
        assert line is not None and list(line.run.steps()) == steps, name


def test_most_turns_are_moved_not_planned(monkeypatch):
    # a halting check plans the turns whose starts differ beyond the frame
    # and moves every other one
    out = reduce_halting(CURATED["slow"])
    planned = []
    plan_turn = strategy.TMStrategy._plan_turn
    monkeypatch.setattr(strategy.TMStrategy, "_plan_turn",
                        lambda s, conf, mode: planned.append(conf) or plan_turn(s, conf, mode))
    verdict, moved = _moved_turns(out, Budget(200, 4), monkeypatch)
    assert verdict.is_win
    assert len(moved) > 2 * len(planned) > 0


# --- the lemma by property ------------------------------------------------------

_STAMPS = ("set_turn", "face_since", "summoned_turn")


def _reframe(start, turn, lp, piles, past):
    """start moved onto another frame field by field, the reference for
    transport: the turn and the stamps at or after start's turn moved to
    turn, every past stamp read from past() (kept when past is None), the
    opponent's LP and piles replaced."""
    dt = turn - start.turn

    def card(inst):
        if inst is None:
            return None
        changes = {}
        for f in _STAMPS:
            v = getattr(inst, f)
            if v >= start.turn:
                changes[f] = v + dt
            elif v >= 0 and past is not None:
                changes[f] = past()
        return fast_replace(inst, **changes)

    players = []
    for p, ps in enumerate(start.players):
        changes = dict(monsters=tuple(map(card, ps.monsters)),
                       spelltraps=tuple(map(card, ps.spelltraps)),
                       extra_zone=card(ps.extra_zone), field_zone=card(ps.field_zone))
        if p:
            changes.update(lp=lp, **piles)
        players.append(fast_replace(ps, **changes))
    return fast_replace(start, turn=turn, players=tuple(players))


def _piles(ps):
    return dict(deck=ps.deck, hand=ps.hand, gy=ps.gy)


@pytest.fixture(scope="module")
def recorded_turns():
    """The turns strategies recorded in a halting check (set-up A's board)
    and a channel check (set-up B's)."""
    turns = []
    for reduce, budget in (_CHECKS["halting-identity"], _CHECKS["wo-omega-reverse"]):
        out = reduce()
        check_winning(out.run, out.strategy, budget)
        recorded = [t for ts in out.strategy._turns.values() for t in ts]
        assert recorded
        turns += recorded
    return turns


@pytest.fixture(scope="module")
def their_boards(board_a, board_b):
    """The opponent's side in every configuration of both set-ups."""
    return [c.players[1] for board in (board_a, board_b) for c in board.run.configs]


def _outcome(conf, move):
    try:
        return apply(conf, move)
    except IllegalMove:
        return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_apply_commutes_with_the_transport(recorded_turns, their_boards, data):
    """transport's lemma on recorded turns of both set-ups, over random
    frames: a turn number of the start's parity, an opponent's LP the guard
    allows, the opponent's piles from a set-up board with the key's empty
    deck and hand, and any past stamps.  Every step of the turn moved onto
    the new start is what apply gives there, and a move of the turn at one
    of its configurations is legal exactly where it is legal at the moved
    one, with the moved result."""
    turn = data.draw(st.sampled_from(recorded_turns))
    start = turn.start
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    new_turn = start.turn % 2 + 2 * data.draw(st.integers(1, 10**4))
    lp = start.players[1].lp
    if turn.low >= 1000:
        lp = data.draw(st.integers(lp - turn.low + 1000, 10**8))
    piles = _piles(start.players[1])
    if turn.piles:
        keyed = [ps for ps in their_boards if (bool(ps.deck), bool(ps.hand))
                 == (bool(start.players[1].deck), bool(start.players[1].hand))]
        piles = _piles(data.draw(st.sampled_from(keyed)))
    onto = _reframe(start, new_turn, lp, piles, lambda: rng.randrange(new_turn))
    assert unframed(onto) == unframed(start)
    moved = transport(turn.confs, start, onto)
    confs = (start,) + turn.confs
    for before, move, after in zip((onto, *moved), turn.moves, moved):
        assert apply(before, move) == after
    i = data.draw(st.integers(0, len(turn.moves) - 1))
    move = data.draw(st.sampled_from(turn.moves))
    after = _outcome(confs[i], move)
    if after is None:
        assert _outcome(([onto] + moved)[i], move) is None
    elif line_frame([(confs[i], move, after)]) is not None and \
            (lp == start.players[1].lp or after.players[1].lp >= 1000) and \
            (not turn.piles or _piles(after.players[1]) == _piles(start.players[1])):
        prefix = transport(confs[1:i + 1] + (after,), start, onto)
        assert _outcome(([onto] + prefix)[i], move) == prefix[-1]


# --- each guard refuses -----------------------------------------------------------


def _recorded(name, pick):
    """The strategy of name after its check, with the first recorded turn
    that pick accepts as the only one in its table, its mode and the turn."""
    reduce, budget = _CHECKS[name]
    out = reduce()
    check_winning(out.run, out.strategy, budget)
    s = out.strategy
    for (key, mode), turns in s._turns.items():
        for turn in turns:
            if pick(turn):
                s._turns = {(key, mode): [turn]}
                return s, mode, turn
    raise AssertionError(f"no recorded turn of {name} fits")


def _refused(s, onto, mode):
    """The strategy moves no recorded turn onto onto, and the turn it plans
    there is not the recorded one moved anyway."""
    assert s._transported(onto, (unframed(onto), mode)) is None
    return list(s._plan_turn(onto, mode).run.steps())


def test_the_lp_guard_refuses_a_low_turn_moved_by_a_nonzero_difference():
    # a turn that brings the opponent to 0 LP, moved onto 1000 LP more:
    # the clamp and the terminal test would read the difference
    s, mode, turn = _recorded("nis-successor", lambda t: t.low == 0)
    start = turn.start
    onto = _reframe(start, start.turn, start.players[1].lp + 1000,
                    _piles(start.players[1]), None)
    moved = transport(turn.confs, start, onto)
    assert moved[-1].players[1].lp == 1000
    assert _refused(s, onto, mode) != list(zip([onto, *moved], turn.moves, moved))
    # with a zero difference the same turn moves, by an even number of turns
    later = _reframe(start, start.turn + 2, start.players[1].lp, _piles(start.players[1]),
                     None)
    assert s._transported(later, (unframed(later), mode)) is not None


def test_the_pile_guard_refuses_a_turn_that_changes_them_onto_other_piles():
    # a turn that sends the opponent's cards to their graveyard moves only
    # onto their piles as they were; here their graveyard holds one more card
    s, mode, turn = _recorded(
        "wo-omega-reverse", lambda t: not t.piles and t.low >= 1000
        and t.confs[-1].players[1].gy != t.start.players[1].gy)
    start = turn.start
    p2 = start.players[1]
    onto = _reframe(start, start.turn, p2.lp, dict(_piles(p2), gy=p2.gy + p2.deck[:1]), None)
    moved = transport(turn.confs, start, onto)
    assert _refused(s, onto, mode) != list(zip([onto, *moved], turn.moves, moved))


def test_the_turn_guard_refuses_a_start_before_turn_2(monkeypatch):
    # a battle turn moved onto turn 1 attacks where the starting player may
    # not, and the planner strands there instead; no turn from before turn
    # 2 is looked up or recorded
    s, mode, turn = _recorded(
        "halting-identity", lambda t: any(type(m).__name__ == "DeclareAttack" for m in t.moves))
    start = turn.start
    onto = _reframe(start, 1, start.players[1].lp, _piles(start.players[1]),
                    lambda: 0)
    images = transport(turn.confs, start, onto)
    assert s._plan_turn(onto, mode) is None
    assert line_frame(list(zip([onto, *images], turn.moves, images))) is None
    monkeypatch.setattr(strategy, "transport", None)  # a lookup would fail
    tables = {k: list(v) for k, v in s._turns.items()}
    assert s.next_move(onto, None) is None
    assert s._turns == tables
