"""Moved lines: a strategy's recorded turn, moved by ``frame.transport`` onto
a start that differs from its own only in the frame, is the turn the
strategy plans from there; the recorded lines, turns and increment cycles,
moved onto random frames are what ``apply`` gives; each guard of the
lemma, as ``frame.LineTable`` checks it, refuses what it must; and a moved
turn's configurations are built only when something reads them."""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from duelhalt import strategy
from duelhalt.engine import (ActivateEffect, Configuration, Run, apply, is_winning_state,
                             replay_witness, validate_run)
from duelhalt.engine.config import fast_replace
from duelhalt.engine.frame import LineTable, MovedLine, line_frame, transport, unframed
from duelhalt.engine.rules import spell_counters
from duelhalt.errors import IllegalMove
from duelhalt.reductions import (
    reduce_halting,
    reduce_nis,
    reduce_wo,
    reverse_omega,
    standard_finite,
    standard_omega,
)
from duelhalt.scripts import CYCLE
from duelhalt.strategy import Budget, check_winning, play_opponent_number
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


class Recorded(NamedTuple):
    """A line as a ``LineTable`` holds it."""
    start: Configuration
    steps: tuple  # (move, configuration it leads to)
    frame: tuple  # line_frame's: the lowest LP, whether the piles may move, reads counters


def _moved_turns(out, budget, monkeypatch):
    """check_winning's verdict, and each turn the strategy moved onto a
    start there as (start, mode, steps), the steps (move, configuration)."""
    moved, answer = [], LineTable.line

    def spy(self, conf, tag, play):
        played = []
        steps = answer(self, conf, tag, lambda: played.append(conf) or play())
        if not played and tag != CYCLE:
            moved.append((conf, tag[0], steps))
        return steps

    monkeypatch.setattr(LineTable, "line", spy)
    verdict = check_winning(out.run, out.strategy, budget)
    monkeypatch.undo()
    return verdict, moved


@pytest.mark.parametrize("name", sorted(_CHECKS))
def test_moved_turns_are_the_planned_turns(name, monkeypatch):
    # every moved turn, moves and configurations, is the line the planner
    # makes from its start with an empty table; every check but the empty
    # machine's, which wins on its first turn, moves some
    reduce, budget = _CHECKS[name]
    _verdict, moved = _moved_turns(reduce(), budget, monkeypatch)
    assert moved or name == "halting-empty"
    planner = reduce().strategy
    for conf, mode, steps in moved:
        planner.lines = LineTable()
        line = planner._plan_turn(conf, mode)
        assert line is not None and _pairs(line) == steps, name


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


def _reframe(start, turn, lp, piles, past, dc=0):
    """start moved onto another frame field by field, the reference for
    transport: the turn and the stamps at or after start's turn moved to
    turn, every past stamp read from past() (kept when past is None), the
    opponent's LP and piles replaced, and dc more counters on our face-up
    Citadel."""
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
        elif dc:
            fz = changes["field_zone"]
            changes["field_zone"] = fast_replace(fz, counters=fz.counters + dc)
        players.append(fast_replace(ps, **changes))
    return fast_replace(start, turn=turn, players=tuple(players))


def _piles(ps):
    return dict(deck=ps.deck, hand=ps.hand, gy=ps.gy)


def _pairs(line):
    """A planned line's steps as a turn holds them: (move, configuration)."""
    return tuple((mv, nxt) for _c, mv, nxt in line.run.steps())


def _split(line):
    """A recorded line's moves and the configurations after them."""
    return tuple(mv for mv, _n in line.steps), tuple(nxt for _m, nxt in line.steps)


def _triples(line, start):
    """A recorded line moved onto start, as the (before, move, after) steps
    a record takes."""
    moves, after_each = _split(line)
    moved = transport(after_each, line.start, start)
    return list(zip([start, *moved], moves, moved))


@pytest.fixture(scope="module")
def recorded_lines():
    """The turns and the increment cycles strategies recorded in a halting
    check (set-up A's board) and a channel check (set-up B's)."""
    lines = []
    for reduce, budget in (_CHECKS["halting-identity"], _CHECKS["wo-omega-reverse"]):
        out = reduce()
        check_winning(out.run, out.strategy, budget)
        tags = [tag for _k, tag in out.strategy.lines.recorded]
        assert CYCLE in tags and any(tag != CYCLE for tag in tags)
        lines += [Recorded(*line) for ls in out.strategy.lines.recorded.values() for line in ls]
    return lines


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
def test_apply_commutes_with_the_transport(recorded_lines, their_boards, data):
    """transport's lemma on recorded turns and cycles of both set-ups, over
    random frames: a turn number of the start's parity, an opponent's LP
    the guard allows, the opponent's piles from a set-up board with the
    key's empty deck and hand, any past stamps and, for a line that reads
    no counters, any count.  Every step of the line moved onto the new
    start is what apply gives there and is terminal, and won by the same
    player, exactly where the recorded one is, and the recorded line has no
    terminal before its end; and a move of the line at one of its
    configurations is legal exactly where it is legal at the moved one,
    with the moved result."""
    line = data.draw(st.sampled_from(recorded_lines))
    start, (low, free, counts) = line.start, line.frame
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    new_turn = start.turn % 2 + 2 * data.draw(st.integers(1, 10**4))
    lp = start.players[1].lp
    if low >= 1000:
        lp = data.draw(st.integers(lp - low + 1000, 10**8))
    piles = _piles(start.players[1])
    if free:
        keyed = [ps for ps in their_boards if (bool(ps.deck), bool(ps.hand))
                 == (bool(start.players[1].deck), bool(start.players[1].hand))]
        piles = _piles(data.draw(st.sampled_from(keyed)))
    dc = 0 if counts else data.draw(st.integers(-spell_counters(start), 10**4))
    onto = _reframe(start, new_turn, lp, piles, lambda: rng.randrange(new_turn), dc)
    assert unframed(onto) == unframed(start)
    moves, after_each = _split(line)
    moved = transport(after_each, start, onto)
    confs = (start,) + after_each
    for before, move, after in zip((onto, *moved), moves, moved):
        assert apply(before, move) == after
    for recorded, image in zip(confs, (onto, *moved)):
        assert [is_winning_state(image, p) for p in (0, 1)] \
            == [is_winning_state(recorded, p) for p in (0, 1)]
    assert not any(is_winning_state(c, p) for c in confs[:-1] for p in (0, 1))
    i = data.draw(st.integers(0, len(moves) - 1))
    move = data.draw(st.sampled_from(moves))
    after = _outcome(confs[i], move)
    frame = None if after is None else line_frame([(confs[i], move, after)])
    if after is None:
        assert _outcome(([onto] + moved)[i], move) is None
    elif frame is not None and \
            (lp == start.players[1].lp or after.players[1].lp >= 1000) and \
            (not free or _piles(after.players[1]) == _piles(start.players[1])) and \
            (dc == 0 or not frame[2]):
        prefix = transport(confs[1:i + 1] + (after,), start, onto)
        assert _outcome(([onto] + prefix)[i], move) == prefix[-1]


# --- each guard refuses -----------------------------------------------------------


def _recorded(name, pick):
    """The strategy of name after its check, with the first recorded turn
    that pick accepts as the only line in its table, its tag and the turn."""
    reduce, budget = _CHECKS[name]
    out = reduce()
    check_winning(out.run, out.strategy, budget)
    s = out.strategy
    for (key, tag), turns in s.lines.recorded.items():
        for turn in map(Recorded._make, turns):
            if tag != CYCLE and pick(turn):
                s.lines.recorded = {(key, tag): [turn]}
                return s, tag, turn
    raise AssertionError(f"no recorded turn of {name} fits")


def _refuse():
    raise AssertionError("the line table played a line it should have moved")


def _refused(s, onto, tag):
    """The strategy's table moves no recorded turn onto onto but plays it:
    the turn the strategy plans there, which is not the recorded one moved
    anyway."""
    played = []

    def play():
        played.append(onto)
        return list(s._plan_turn(onto, tag[0]).run.steps())

    steps = s.lines.line(onto, tag, play)
    assert played
    return steps


def test_the_lp_guard_refuses_a_low_turn_moved_by_a_nonzero_difference():
    # a turn that brings the opponent to 0 LP, moved onto 1000 LP more:
    # the clamp and the terminal test would read the difference
    s, tag, turn = _recorded("nis-successor", lambda t: t.frame[0] == 0)
    start = turn.start
    onto = _reframe(start, start.turn, start.players[1].lp + 1000,
                    _piles(start.players[1]), None)
    moves, after_each = _split(turn)
    moved = transport(after_each, start, onto)
    assert moved[-1].players[1].lp == 1000
    assert _refused(s, onto, tag) != tuple(zip(moves, moved))
    # with a zero difference the same turn moves, by an even number of turns
    later = _reframe(start, start.turn + 2, start.players[1].lp, _piles(start.players[1]),
                     None)
    assert s.lines.line(later, tag, _refuse)


def test_the_pile_guard_refuses_a_turn_that_changes_them_onto_other_piles():
    # a turn that sends the opponent's cards to their graveyard moves only
    # onto their piles as they were; here their graveyard holds one more card
    s, tag, turn = _recorded(
        "wo-omega-reverse", lambda t: not t.frame[1] and t.frame[0] >= 1000
        and t.steps[-1][1].players[1].gy != t.start.players[1].gy)
    start = turn.start
    p2 = start.players[1]
    onto = _reframe(start, start.turn, p2.lp, dict(_piles(p2), gy=p2.gy + p2.deck[:1]), None)
    moves, after_each = _split(turn)
    moved = transport(after_each, start, onto)
    assert _refused(s, onto, tag) != tuple(zip(moves, moved))


def test_the_counter_guard_refuses_a_line_that_summons_endymion_onto_other_counters():
    # Endymion's summon from a recorded turn, moved onto 5 counters: its
    # 6-counter check would read the difference
    _s, _tag, turn = _recorded("halting-identity", lambda t: t.frame[2])
    i = next(i for i, (m, _n) in enumerate(turn.steps)
             if isinstance(m, ActivateEffect) and m.effect == "endymion_counter_summon")
    start = turn.steps[i - 1][1]
    summon = [(start, *turn.steps[i])]
    lp, piles = start.players[1].lp, _piles(start.players[1])
    onto = _reframe(start, start.turn + 2, lp, piles, None, 5 - spell_counters(start))
    assert unframed(onto) == unframed(start)
    assert _outcome(onto, summon[0][1]) is None
    table, played = LineTable(), []
    assert table.line(start, "summon", lambda: summon) == (summon[0][1:],)
    assert table.line(onto, "summon", lambda: played.append(onto) or ()) == ()
    assert played == [onto]
    # with the counters as they were it moves
    assert table.line(_reframe(start, start.turn + 2, lp, piles, None), "summon", _refuse)


def test_the_turn_guard_refuses_a_start_before_turn_2(monkeypatch):
    # a battle turn moved onto turn 1 attacks where the starting player may
    # not, and the planner strands there instead; no turn from before turn
    # 2 is looked up or recorded
    s, tag, turn = _recorded(
        "halting-identity",
        lambda t: any(type(m).__name__ == "DeclareAttack" for m, _n in t.steps))
    start = turn.start
    onto = _reframe(start, 1, start.players[1].lp, _piles(start.players[1]),
                    lambda: 0)
    assert s._plan_turn(onto, tag[0]) is None
    assert line_frame(_triples(turn, onto)) is None
    monkeypatch.setattr("duelhalt.engine.frame.unframed", None)  # a lookup or a record would fail
    tables = {k: list(v) for k, v in s.lines.recorded.items()}
    assert s.next_move(onto, None) is None
    assert s.lines.recorded == tables


def test_the_stamp_guard_refuses_a_line_that_plays_creature_swap(board_b):
    # the swapped monsters keep their stamps in their new slots, which the
    # lemma does not cover; the move after it on the same turn is covered
    i = next(i for i, m in enumerate(board_b.run.moves)
             if isinstance(m, ActivateEffect) and m.effect == "creature_swap")
    steps = list(board_b.run.steps(i))
    assert steps[0][0].turn >= 2 and steps[0][0].active == steps[1][0].active == 0
    assert line_frame(steps[:1]) is None and line_frame(steps[:2]) is None
    assert line_frame(steps[1:2]) is not None


def test_the_turn_player_guard_refuses_a_move_of_the_opponents_turn(board_a):
    # the lemma covers moves made while we are the turn player: a line with
    # a move of the opponent's turn is neither covered nor recorded
    steps = next([step] for step in board_a.run.steps()
                 if step[0].active == 1 and step[0].turn >= 2)
    assert line_frame(steps) is None
    table = LineTable()
    assert table.line(steps[0][0], "theirs", lambda: steps) == (steps[0][1:],)
    assert table.recorded == {}


# --- moved turns built only when read ---------------------------------------------


def _counted_transport(monkeypatch):
    """The configurations frame.transport builds from now on, as a list
    that grows by the length of each answer."""
    built, build = [], transport

    def spy(confs, start, onto):
        out = build(confs, start, onto)
        built.append(len(out))
        return out

    monkeypatch.setattr("duelhalt.engine.frame.transport", spy)
    return built


def test_halting_checks_build_only_the_ends_of_moved_turns(monkeypatch):
    # a moved turn costs one transport of its end: the eight halting checks
    # that read no oracle build at most a fifth of the 10,980 configurations
    # that moving every step built, and no witness reads one
    built = _counted_transport(monkeypatch)
    for name in sorted(CURATED):
        if not name.startswith("oracle"):
            out = reduce_halting(CURATED[name])
            kind = check_winning(out.run, out.strategy, Budget(200, 4)).kind
            assert kind == ("undetermined" if name == "loop" else "win"), name
    assert 0 < sum(built) <= 2196


def test_a_lazily_driven_run_validates_when_read_back(monkeypatch):
    # slow's line past several moved turns: its moves read back without
    # building anything, its steps build each moved turn's configurations
    # before its end, and the run read back is valid and is its moves
    # applied from the start
    out = reduce_halting(CURATED["slow"])
    turns, line = [], LineTable.line

    def spy(self, conf, tag, play):
        steps = line(self, conf, tag, play)
        if isinstance(steps, MovedLine) and tag != CYCLE:
            turns.append(steps)
        return steps

    monkeypatch.setattr(LineTable, "line", spy)
    run = out.run
    for _ in range(40):
        if len(turns) >= 5:
            break
        run = play_opponent_number(run, out.strategy, 0)
    monkeypatch.undo()
    assert len(turns) >= 5
    built = _counted_transport(monkeypatch)
    moves = run.moves
    assert not built
    assert validate_run(run)
    assert sum(built) == sum(len(turn) - 1 for turn in turns)
    assert replay_witness(Run(run.configs[:1], ()), moves).configs == run.configs


def test_a_witness_is_read_off_the_moves_alone(monkeypatch):
    # successor's check moves turns but no cycle: every configuration
    # transport builds is a moved turn's end, as the witness reads the
    # nodes' moves alone, and applied from the base run it wins
    out = reduce_halting(CURATED["successor"])
    built = _counted_transport(monkeypatch)
    verdict = check_winning(out.run, out.strategy, Budget(200, 4))
    assert verdict.is_win and 0 < sum(built) == len(built)
    assert is_winning_state(replay_witness(out.run, verdict.witness).last(), 0)
