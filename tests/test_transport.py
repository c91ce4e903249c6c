"""Moved lines: a strategy's recorded turn, moved by ``frame.transport`` onto
a start that differs from its own only in the frame, is the turn the
strategy plans from there, and a repeating round moved onto a later start
is the round played there; the recorded turns and increment cycles and the
played rounds, moved onto random frames, are what ``apply`` gives; each
guard of the lemma, as ``frame.LineTable`` checks it, refuses what it must;
and a moved line's configurations are built only when something reads
them."""

import copy
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from duelhalt import strategy
from duelhalt.carddb import FILLER, TORNADO, UPSTART
from duelhalt.engine import (ActivateEffect, Configuration, DrawCard, Phase, Run, apply,
                             is_winning_state, replay_witness, validate_run)
from duelhalt.engine.config import HAND_LIMIT, CardInstance, fast_replace, update_player
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
from duelhalt.scripts import CYCLE, Line, increment_cycle_moves
from duelhalt.strategy import Budget, check_winning, play_opponent_number
from duelhalt.tm import CURATED

_EXHAUSTIVE = dict(cap_exhaustive=True)

# the ten curated halting machines, and the channel reductions at the
# benchmark's budgets
_CHECKS = {f"halting-{name}": (lambda name=name: reduce_halting(CURATED[name]), Budget(200, 4))
           for name in sorted(CURATED)}
_CHECKS.update({
    # slow's rounds moved up to the last turn, not cut by a guard
    "halting-slow-100": (lambda: reduce_halting(CURATED["slow"]), Budget(100, 4)),
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
    # line_frame's: the lowest LP, whether the piles may move as they are,
    # reads counters, and the lowest deck when the piles are counts
    frame: tuple


def _moved_lines(out, budget, monkeypatch):
    """check_winning's verdict, each turn the strategy moved onto a start
    there as (start, mode, steps), the steps (move, configuration), and each
    round a record moved, as (start, heard state, the moved line)."""
    moved, rounds, answer, round_, onto = [], [], LineTable.line, strategy._Dag._round, \
        MovedLine.onto
    reading_state = [None]  # the heard state of the round last read: only _round moves one

    def spy(self, conf, tag, play):
        played = []
        steps = answer(self, conf, tag, lambda: played.append(conf) or play())
        if not played and tag != CYCLE:
            moved.append((conf, tag[0], steps))
        return steps

    def reading(self, run, state, record):
        reading_state[0] = state
        return round_(self, run, state, record)

    def moving(self, conf):
        got = onto(self, conf)
        if got is not None:
            rounds.append((conf, reading_state[0], got))
        return got

    monkeypatch.setattr(LineTable, "line", spy)
    monkeypatch.setattr(strategy._Dag, "_round", reading)
    monkeypatch.setattr(MovedLine, "onto", moving)
    verdict = check_winning(out.run, out.strategy, budget)
    monkeypatch.undo()
    return verdict, moved, rounds


def _moved_turns(out, budget, monkeypatch):
    """check_winning's verdict, and each turn the strategy moved onto a
    start there, a moved round's included: it moves the turn of ours
    inside it."""
    verdict, moved, rounds = _moved_lines(out, budget, monkeypatch)
    return verdict, moved + rounds


@pytest.mark.parametrize("name", sorted(_CHECKS))
def test_moved_turns_are_the_planned_turns(name, monkeypatch):
    # every moved turn, moves and configurations, is the line the planner
    # makes from its start with an empty table; every check but the empty
    # machine's, which wins on its first turn, moves some turns or rounds,
    # and a round moves its turn of ours inside it (checked below)
    reduce, budget = _CHECKS[name]
    _verdict, moved, rounds = _moved_lines(reduce(), budget, monkeypatch)
    assert moved or rounds or name == "halting-empty"
    planner = reduce().strategy
    for conf, mode, steps in moved:
        planner.lines = LineTable()
        line = planner._plan_turn(conf, mode)
        assert line is not None and _pairs(line) == steps, name


@pytest.mark.parametrize("name", sorted(_CHECKS))
def test_moved_rounds_are_the_played_rounds(name, monkeypatch):
    # every round a record moved, its moves, every configuration, the
    # number the opponent speaks in it and the heard state after it, is the
    # round played from its start by the strategy with a fresh table: the
    # opponent's one turn, then the drive to their next decision point,
    # which stops there, before the check's last turn, with nothing judged.
    # Every halting check but the empty machine's moves some; no channel
    # check does, as our turns there move the counters
    reduce, budget = _CHECKS[name]
    out = reduce()
    _verdict, _moved, rounds = _moved_lines(out, budget, monkeypatch)
    assert bool(rounds) == (name.startswith("halting-") and name != "halting-empty")
    last_turn = out.run.last().turn + budget.max_turns
    for conf, state, line in rounds:
        fresh = copy.copy(out.strategy)
        fresh.lines = LineTable()
        (_choice, child), = strategy._p2_turns(Run((conf,), ()), state, [(0, True)], fresh)
        end, kind = strategy._drive(*child, fresh)
        played = list(end.steps())
        confs = line.confs()
        assert kind is None and end.last().turn <= last_turn, name
        assert [(mv, nxt) for _c, mv, nxt in played] == list(zip([mv for mv, _n in line], confs))
        assert [c for c, _mv, _n in played] == [conf, *confs[:-1]]
        theirs = len(child[0])  # the opponent's moves, then the drive's
        assert all(c.active == 1 for c, _mv, _n in played[:theirs])
        assert confs[theirs - 1] == child[0].last() and confs[theirs - 1].active == 0
        spoken = sum(strategy._spoke(c, n) for c, _mv, n in played[:theirs])
        moved_spoken = sum(strategy._spoke(c, n) for c, n in zip([conf, *confs], confs[:theirs]))
        assert moved_spoken == spoken and child[1] == fresh.hear(state, spoken) == state


def test_most_turns_are_moved_not_planned(monkeypatch):
    # a halting check plans the turns whose starts differ beyond the frame
    # and moves every other one, a round a record moved, linked with no
    # lookup, counted as a moved one
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
    check (set-up A's board) and a channel check (set-up B's), and apart
    the rounds those checks read, each played again from its start to the
    opponent's next decision point: moves of both players' turns, the
    halting check's on counted piles."""
    lines, rounds, round_ = [], [], strategy._Dag._round
    for reduce, budget in (_CHECKS["halting-identity"], _CHECKS["wo-omega-reverse"]):
        out, starts = reduce(), []

        def reading(self, run, state, record):
            starts.append((run.last(), state))
            return round_(self, run, state, record)

        strategy._Dag._round = reading
        try:
            check_winning(out.run, out.strategy, budget)
        finally:
            strategy._Dag._round = round_
        tags = [tag for _k, tag in out.strategy.lines.recorded]
        assert CYCLE in tags and any(tag != CYCLE for tag in tags)
        for ls in out.strategy.lines.recorded.values():
            lines.extend(map(Recorded._make, ls))
        for conf, state in starts:
            (_choice, child), = strategy._p2_turns(Run((conf,), ()), state, [(0, True)],
                                                   out.strategy)
            end, kind = strategy._drive(*child, out.strategy)
            made = list(end.steps())
            frame = line_frame(made) if kind is None else None
            if frame is not None:
                rounds.append(Recorded(conf, tuple((mv, n) for _c, mv, n in made), frame))
    assert sum(line.frame[3] is not None and not line.frame[1] for line in rounds) >= 5
    return lines, rounds


@pytest.fixture(scope="module")
def their_boards(board_a, board_b):
    """The opponent's side in every configuration of both set-ups."""
    return [c.players[1] for board in (board_a, board_b) for c in board.run.configs]


def _outcome(conf, move):
    try:
        return apply(conf, move)
    except IllegalMove:
        return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_apply_commutes_with_the_transport(recorded_lines, their_boards, data):
    """transport's lemma on recorded turns, rounds (moves of both players'
    turns) and cycles of both set-ups, over random frames: a turn number of
    the start's parity, an opponent's LP the guard allows, the opponent's
    piles from a set-up board with the key's empty deck and hand or, for a
    line on counted piles, FILLER piles of the same hand length and a deck
    the guard allows, any past stamps and, for a line that reads no
    counters, any count.  Every step of the line moved onto the new start
    is what apply gives there and is terminal, and won by the same player,
    exactly where the recorded one is, and the recorded line has no
    terminal before its end; and a move of the line at one of its
    configurations is legal exactly where it is legal at the moved one,
    with the moved result."""
    line = data.draw(st.sampled_from(data.draw(st.sampled_from(recorded_lines))))
    start, (low, free, counts, deck) = line.start, line.frame
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    new_turn = start.turn % 2 + 2 * data.draw(st.integers(1, 10**4))
    lp = start.players[1].lp
    if low >= 1000:
        lp = data.draw(st.integers(lp - low + 1000, 10**8))
    p2 = start.players[1]
    piles, dd = _piles(p2), 0
    if free:
        keyed = [ps for ps in their_boards if (bool(ps.deck), bool(ps.hand))
                 == (bool(p2.deck), bool(p2.hand))]
        piles = _piles(data.draw(st.sampled_from(keyed)))
    elif deck is not None:
        dd = data.draw(st.integers(1 - deck, 40)) if deck >= 1 else 0
        piles = dict(deck=(FILLER,) * (len(p2.deck) + dd), hand=p2.hand,
                     gy=(FILLER,) * data.draw(st.integers(0, 40)))
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
            (frame[1] if free else frame[3] is not None and (dd == 0 or frame[3] + dd >= 1)
             if deck is not None else True) and \
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


def test_the_set_card_guard_refuses_a_line_that_meets_a_set_card_of_theirs(board_a):
    # an increment cycle on set-up A's board, made while the opponent has a
    # set card, whose checks may read their piles (a Localized Tornado's
    # targets are its own graveyard), moves only onto their piles as they
    # are: not onto another graveyard, nor, as counts, onto a shorter deck;
    # with no set card of theirs the same cycle moves onto both
    conf = board_a.final
    spelltraps = list(conf.players[1].spelltraps)
    spelltraps[spelltraps.index(None)] = CardInstance(TORNADO, face_up=False,
                                                      set_turn=conf.turn - 1)
    for start, moves in ((update_player(conf, 1, spelltraps=tuple(spelltraps)), False),
                         (conf, True)):
        line = Line(start)
        increment_cycle_moves(line)
        steps = list(line.run.steps())
        p2 = start.players[1]
        assert line_frame(steps)[1::2] == ((True, len(p2.deck)) if moves else (False, None))
        table = LineTable()
        table.line(start, CYCLE, lambda: steps)
        for piles in (dict(gy=p2.gy + (FILLER,)), dict(deck=p2.deck[1:])):
            onto, played = update_player(start, 1, **piles), []
            assert unframed(onto) == unframed(start)
            got = table.line(onto, CYCLE, lambda: played.append(onto) or ())
            if moves:
                applied = replay_witness(Run((onto,), ()), [mv for _c, mv, _n in steps])
                assert not played
                assert tuple(got) == tuple((mv, nxt) for _c, mv, nxt in applied.steps())
            else:
                assert played == [onto] and got == ()


def test_the_turn_player_guard_refuses_a_move_of_the_opponents_turn(board_a):
    # a move of the opponent's turn reads their piles: their draw the deck,
    # the hand limit the hand.  A line with one is covered, but moves onto
    # other piles only as counts: set-up A's first draw of theirs moves onto
    # a shorter FILLER deck that a card is left in, not onto one it empties,
    # a longer hand or a deck with a card that is not FILLER
    steps = next([step] for step in board_a.run.steps()
                 if step[0].active == 1 and step[0].turn >= 2)
    start, (_before, draw, _after) = steps[0][0], steps[0]
    assert isinstance(draw, DrawCard) and line_frame(steps)[1:] == (False, False, 34)
    table = LineTable()
    assert table.line(start, "theirs", lambda: steps) == (steps[0][1:],)
    p2 = start.players[1]

    def onto(**piles):
        return _reframe(start, start.turn + 2, p2.lp, dict(_piles(p2), **piles), None)

    shorter = onto(deck=p2.deck[1:])
    assert list(table.line(shorter, "theirs", _refuse)) == [(draw, apply(shorter, draw))]
    for other in (onto(deck=p2.deck[:1]), onto(hand=p2.hand + (FILLER,)),
                  onto(deck=(UPSTART,) + p2.deck[1:])):
        assert unframed(other) == unframed(start)
        played = []
        assert table.line(other, "theirs", lambda: played.append(other) or ()) == ()
        assert played == [other]
    # their pass in their End Phase reads the hand against the limit, so a
    # line of their turn that leaves the piles alone still moves only onto
    # a hand as long: onto one over the limit, the pass is not legal
    end = next(step for step in board_a.run.steps()
               if step[0].active == 1 and step[0].turn >= 2 and step[0].phase == Phase.END)
    three = update_player(end[0], 1, hand=(FILLER,) * 3)
    table.line(three, "pass", lambda: [(three, end[1], apply(three, end[1]))])
    over = update_player(three, 1, hand=(FILLER,) * (HAND_LIMIT + 1))
    assert unframed(over) == unframed(three) and _outcome(over, end[1]) is None
    played = []
    assert table.line(over, "pass", lambda: played.append(over) or ()) == ()
    assert played == [over]


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
    # successor's check moves turns and rounds but no cycle: every
    # configuration transport builds is built alone, a moved turn's end or
    # a moved round's start of our turn or end, as the witness reads the
    # nodes' moves alone, but for the turn of ours inside a played round
    # with the heard state, the counters and the opponent's hand size
    # unchanged, built when its steps are read for frame.repeating, one per
    # such round at most; applied from the base run the witness wins
    out = reduce_halting(CURATED["successor"])
    built, steps, reads = _counted_transport(monkeypatch), Run.steps, []
    repeated, repeating = [], strategy.repeating

    def reading(self, n=0):
        reads.append(len(built))
        got = list(steps(self, n))
        reads[-1] = built[reads[-1]:]
        del built[len(built) - len(reads[-1]):]
        return iter(got)

    monkeypatch.setattr(Run, "steps", reading)
    monkeypatch.setattr(strategy, "repeating",
                        lambda made: repeated.append(made) or repeating(made))
    verdict = check_winning(out.run, out.strategy, Budget(200, 4))
    assert verdict.is_win and 0 < sum(built) == len(built)
    assert 0 < sum(map(len, reads)) <= len(repeated)
    assert is_winning_state(replay_witness(out.run, verdict.witness).last(), 0)
