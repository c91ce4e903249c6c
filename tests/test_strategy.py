import gc
import hashlib
import random

import pytest

from duelhalt import strategy
from duelhalt.carddb import FLINT, FLINT_LOCK
from duelhalt.coding import pair, triple
from duelhalt.engine import (ActivateEffect, Pass, Phase, Run, apply, is_winning_state,
                             replay_witness, validate_run)
from duelhalt.engine.config import MZONE, update_player
from duelhalt.engine import frame
from duelhalt.engine.frame import LineTable, MovedLine, unframed
from duelhalt.engine.rules import spell_counters
from duelhalt.errors import ScriptBroken, StrategyUndefinedAtRoot
from duelhalt.reductions import (
    reduce_halting,
    reduce_nis,
    reduce_wo,
    reverse_omega,
    standard_finite,
    standard_omega,
)
from duelhalt.scripts import CYCLE
from duelhalt.strategy import (
    Budget,
    LOSS,
    OpenBranch,
    StrategyTree,
    TMStrategy,
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
    encode_tmconf,
    initial_config,
    machine_from_index,
    run_bounded,
    step_n,
)


def macro_turn_counters(out, turns):
    """Drive the compiled strategy; counters at the end of each of our turns."""
    run = out.run
    values = []
    for _ in range(turns):
        run = drive_to_choice(run, out.strategy)
        assert run is not None, "strategy stranded"
        values.append(spell_counters(run.last()))
        if run.last().players[1].lp == 0:
            break
        nxt = play_opponent_number(run, out.strategy, 0)
        if nxt is None or nxt is run:
            break
        run = nxt
    return values, run


class TestTMStrategy:
    def test_lockstep_loop_machine(self):
        e = CURATED["loop"]
        out = reduce_halting(e)
        machine = machine_from_index(e)
        init = initial_config(machine, e)
        values, _ = macro_turn_counters(out, 10)
        expected = [encode_tmconf(step_n(machine, init, k + 1)) for k in range(10)]
        assert values == expected

    def test_lockstep_successor(self):
        e = CURATED["successor"]
        out = reduce_halting(e)
        machine = machine_from_index(e)
        init = initial_config(machine, e)
        values, _ = macro_turn_counters(out, 8)
        expected = [encode_tmconf(step_n(machine, init, k + 1)) for k in range(8)]
        assert values == expected

    def test_halting_machine_attacks_to_win(self):
        out = reduce_halting(CURATED["empty"])
        _values, run = macro_turn_counters(out, 30)
        assert run.last().players[1].lp == 0

    def test_partiality_off_script(self, board_b):
        s = TMStrategy(CURATED["empty"])
        # a run the strategy does not recognize: the second construction
        run = Run((board_b.final,), ())
        assert s.next_move(run.last(), s.observe(run)) is None


class TestCheckWinning:
    def test_halting_win(self):
        out = reduce_halting(CURATED["identity"])
        v = check_winning(out.run, out.strategy, Budget(200, 4))
        assert v.kind == WIN
        full = replay_witness(out.run, v.witness)
        assert validate_run(full)
        assert full.last().players[1].lp == 0

    def test_loop_never_resolves(self):
        out = reduce_halting(CURATED["loop"])
        for turns in (50, 120):
            v = check_winning(out.run, out.strategy, Budget(turns, 4))
            assert v.kind == UNDETERMINED

    def test_depth_does_not_need_recursion(self, shallow_recursion):
        # one opponent turn per branch point: 240 turns would need far more
        # than 100 frames if the checker recursed once per turn
        out = reduce_halting(CURATED["loop"])
        assert check_winning(out.run, out.strategy, Budget(240, 4)).kind == UNDETERMINED

    @pytest.mark.parametrize("k", [3, 6])
    def test_turn_cut(self, k):
        # the budget's turn cut stops a line at the first configuration of
        # turn start + k + 1
        out = reduce_halting(CURATED["loop"])
        start = out.run.last().turn
        v = check_winning(out.run, out.strategy, Budget(k, 4))
        assert v.kind == UNDETERMINED
        full = replay_witness(out.run, v.witness)
        assert full.last().turn == start + k + 1
        assert full.configs[-2].turn == start + k

    def test_budget_monotone(self):
        out = reduce_halting(CURATED["slow"])
        kinds = []
        for turns in (3, 40, 200):
            kinds.append(check_winning(out.run, out.strategy, Budget(turns, 4)).kind)
        assert WIN not in kinds or kinds[-1] == WIN
        seen_win = False
        for k in kinds:
            if seen_win:
                assert k == WIN
            seen_win = seen_win or k == WIN

    def test_undefined_at_root(self, board_b):
        s = TMStrategy(CURATED["empty"])
        with pytest.raises(StrategyUndefinedAtRoot):
            check_winning(Run((board_b.final,), ()), s, Budget(10, 2))

    def test_a_root_already_won_has_its_verdict(self):
        # halting identity's witness replayed to its won end: the checker
        # gives WIN with nothing to play, as the tree gives a winning leaf,
        # and asks no turn of a finished game
        out = reduce_halting(CURATED["identity"])
        won = replay_witness(out.run, check_winning(out.run, out.strategy, Budget(200, 4)).witness)
        assert is_winning_state(won.last(), 0)
        v = check_winning(won, TMStrategy(CURATED["identity"]), Budget(5, 2))
        assert (v.kind, v.witness) == (WIN, ())
        tree = to_tree(TMStrategy(CURATED["identity"]), won, 3, Budget(5, 2))
        assert tree.winning is True and not tree.children

    @pytest.mark.parametrize("reduce, budget", [
        (lambda: reduce_halting(CURATED["identity"]), Budget(200, 4)),
        (lambda: reduce_nis(CURATED["successor"]), Budget(10, 8, cap_exhaustive=True)),
    ])
    def test_the_root_turn_is_looked_up_once(self, reduce, budget, monkeypatch):
        # the first drive's own answer is the only lookup of the root's
        # turn: no separate question checks that the strategy is defined there
        out = reduce()
        root, lookups, line = out.run.last(), [], LineTable.line

        def spy(self, conf, tag, play):
            if conf is root and tag != CYCLE:
                lookups.append(tag)
            return line(self, conf, tag, play)

        monkeypatch.setattr(LineTable, "line", spy)
        assert check_winning(out.run, out.strategy, budget).is_win
        assert len(lookups) == 1

    def test_loss_when_strategy_strands(self):
        # a strategy defined for the turn from the root but not afterwards:
        # the line plays that turn and the opponent's, then strands
        out = reduce_halting(CURATED["empty"])
        root = out.run.last()

        class OneTurn(type(out.strategy)):
            def next_move(self, conf, state):
                return super().next_move(conf, state) if conf == root else None

        first = out.strategy.next_move(root, None)
        v = check_winning(out.run, OneTurn(out.strategy.e), Budget(50, 2))
        assert v.kind == LOSS
        assert v.witness[:len(first)] == tuple(mv for mv, _n in first)
        after = replay_witness(out.run, v.witness).last()
        assert after.turn == first[-1][1].turn + 1 and after.active == 0


class TestNumberChannel:
    def test_identity_chain_survives(self):
        out = reduce_nis(CURATED["identity"])
        run = out.run
        # the constant chain: triple (0,0,1) then pairs (0,1) forever
        numbers = [triple(0, 0, 1)] + [pair(0, 1)] * 9
        for n in numbers:
            run = play_opponent_number(run, out.strategy, n)
            assert run is not None
            assert run.last().players[1].lp > 0, "the chain should survive"
        run = drive_to_choice(run, out.strategy)
        assert run.last().players[1].lp > 0

    def test_identity_bad_number_gets_punished(self):
        out = reduce_nis(CURATED["identity"])
        # code 1 reads as the triple (1, 0, 0): zero steps never converge
        run = play_opponent_number(out.run, out.strategy, 1)
        assert run is not None
        # our next turns finish them off
        for _ in range(12):
            run = drive_to_choice(run, out.strategy)
            if run.last().players[1].lp == 0:
                break
            run = play_opponent_number(run, out.strategy, 0)
        assert run.last().players[1].lp == 0

    def test_zero_number_is_the_failure_value(self):
        out = reduce_nis(CURATED["identity"])
        run = play_opponent_number(out.run, out.strategy, 0)
        for _ in range(12):
            run = drive_to_choice(run, out.strategy)
            if run.last().players[1].lp == 0:
                break
            run = play_opponent_number(run, out.strategy, 0)
        assert run.last().players[1].lp == 0

    def test_wo_reverse_omega_survives_depth(self):
        out = reduce_wo(reverse_omega())
        run = out.run
        numbers = [pair(1, 0)] + list(range(2, 12))
        for n in numbers:
            run = play_opponent_number(run, out.strategy, n)
            assert run is not None
            assert run.last().players[1].lp > 0


def test_channel_strategy_needs_the_run_history(board_b):
    # handing over just the final configuration severs the number channel
    from duelhalt.reductions import reduce_nis
    from duelhalt.tm import CURATED as _C

    out = reduce_nis(_C["identity"])
    s = out.strategy
    final_only = Run((out.run.configs[-1],), ())
    assert s.next_move(final_only.last(), s.observe(final_only)) is None
    with pytest.raises(TypeError):
        s.observe(out.run.configs[-1])


def _casts_raigeki(out, numbers):
    """Speak the numbers from the reduction's run, then let the strategy
    take its turn: the board the numbers reach, and whether it cast Raigeki."""
    run = out.run
    for n in numbers:
        run = play_opponent_number(run, out.strategy, n)
    board = run.last()
    run = drive_to_choice(run, out.strategy)
    return board, any(isinstance(m, ActivateEffect) and m.effect == "raigeki_wipe"
                      for m in run.moves[len(out.run.moves):])


@pytest.mark.parametrize("reduce, holds, breaks", [
    (lambda: reduce_nis(CURATED["identity"]), (5, 5, 5), (5, 2, 8)),
    (lambda: reduce_wo(standard_omega()), (72, 3), (61, 14)),
], ids=["nis-identity", "wo-omega"])
def test_one_strategy_answers_each_history(reduce, holds, breaks):
    # equal LP totals: both sequences reach the same board, but only the
    # first keeps the chain, so only the second must be answered by Raigeki
    out = reduce()
    board, cast = _casts_raigeki(out, holds)
    assert not cast
    board2, cast2 = _casts_raigeki(out, breaks)
    assert board2 == board and cast2


def test_verdicts_do_not_depend_on_what_the_plan_cache_holds():
    # one strategy object that has already planned a tree and a probe line
    budget = Budget(16, 3)
    fresh = reduce_wo(reverse_omega())
    want = check_winning(fresh.run, fresh.strategy, budget)
    out = reduce_wo(reverse_omega())
    to_tree(out.strategy, out.run, 5, budget)
    _casts_raigeki(out, (pair(1, 0), 2, 1))
    assert check_winning(out.run, out.strategy, budget) == want


@pytest.mark.parametrize("reduce, budget", [
    (lambda: reduce_halting(CURATED["identity"]), Budget(200, 4)),
    (lambda: reduce_nis(CURATED["successor"]), Budget(10, 8, cap_exhaustive=True)),
    (lambda: reduce_wo(reverse_omega()), Budget(16, 3)),
], ids=["halting-identity", "nis-successor", "wo-reverse-omega"])
def test_a_warm_strategy_checks_as_a_fresh_one(reduce, budget, monkeypatch):
    # the second check runs on the line table the first one left, every
    # answer a recorded turn moved from the table, and answers with the
    # fresh strategy's verdict and witness
    fresh = reduce()
    want = check_winning(fresh.run, fresh.strategy, budget)
    out = reduce()
    first = check_winning(out.run, out.strategy, budget)
    assert out.strategy.lines.recorded

    def refuse(self, *args):
        raise AssertionError("a warm check made a turn of its own")

    planner = next(c for c in type(out.strategy).__mro__ if "_plan_turn" in vars(c))
    monkeypatch.setattr(planner, "_plan_turn", refuse)
    assert first == want and check_winning(out.run, out.strategy, budget) == want


def test_answers_do_not_depend_on_what_the_strategy_has_cached():
    # at every witness configuration where we hold priority, a strategy
    # that has checked the tree answers with the turn a fresh one plans
    out = reduce_nis(CURATED["successor"])
    s = out.strategy
    v = check_winning(out.run, s, Budget(10, 8, cap_exhaustive=True))
    run, asked = replay_witness(out.run, v.witness), 0
    for i in range(len(out.run), len(run) + 1):
        conf = run.configs[i]
        if conf.active == 0 and conf.priority == 0:
            state = s.observe(Run(run.configs[:i + 1], run.moves[:i]))
            fresh = strategy.NISStrategy(s.e, s.base_run)
            assert s.next_move(conf, state) == fresh.next_move(conf, state), i
            asked += 1
    assert asked > 30


# the kinds the natural exploration order gives, as the acceptance tests have them
_ORDER_CASES = {
    "nis-successor": (lambda: reduce_nis(CURATED["successor"]),
                      Budget(150, 8, cap_exhaustive=True), WIN),
    "wo-finite-3": (lambda: reduce_wo(standard_finite(3)), Budget(60, 8, cap_exhaustive=True), WIN),
    "wo-finite-5": (lambda: reduce_wo(standard_finite(5)), Budget(60, 8, cap_exhaustive=True), WIN),
    "wo-omega": (lambda: reduce_wo(standard_omega()), Budget(80, 10, cap_exhaustive=True), WIN),
    "wo-omega-reverse": (lambda: reduce_wo(reverse_omega()), Budget(16, 3), UNDETERMINED),
    "nis-identity": (lambda: reduce_nis(CURATED["identity"]),
                     Budget(24, 8, cap_exhaustive=True), UNDETERMINED),
}
_ORDERS = {"reversed": None, "shuffled-1": 1, "shuffled-2": 2}  # order -> shuffle seed


@pytest.mark.parametrize("case, order", [
    (case, order) for case in _ORDER_CASES for order in _ORDERS
    if case != "nis-identity" or order == "reversed"])  # 1.8 s an order
def test_the_verdict_kind_does_not_depend_on_the_exploration_order(case, order, monkeypatch):
    # the opponent's canonical turns at each decision point, explored
    # reversed or shuffled, give the kind of the natural order, and a WIN's
    # witness in that order still plays out to a won configuration
    reduce, budget, kind = _ORDER_CASES[case]
    seed, choices = _ORDERS[order], strategy._p2_turn_choices
    rng = random.Random(seed)

    def reordered(conf, budget):
        out = choices(conf, budget)[::-1]
        if seed is not None:
            rng.shuffle(out)
        return out

    monkeypatch.setattr(strategy, "_p2_turn_choices", reordered)
    out = reduce()
    v = check_winning(out.run, out.strategy, budget)
    assert v.kind == kind
    if kind == WIN:
        assert is_winning_state(replay_witness(out.run, v.witness).last(), 0)


def _turn_alone(run, state, choice, s):
    """The canonical opponent turn as one line of its own, speaking its
    number in their main phase: the reference for the shared turns."""
    k, park = choice

    def speak(line):
        for pull in [True] * k + [False] * (park and k > 0):
            mv = strategy._retarget(line.conf.players[1], pull)
            if mv is None:
                return
            line.do(mv)

    line = strategy.Line(run.last())
    try:
        strategy._p2_turn(line, [speak])
    except ScriptBroken:
        return None
    spoken = sum(strategy._spoke(c, nxt) for c, _m, nxt in line.run.steps())
    return list(line.run.steps()), s.hear(state, spoken)


def _shared_turns(run, state, budget, s):
    """Each canonical turn of the shared walk, as the steps past run and the
    heard state, and the number of transitions the walk made."""
    choices = strategy._p2_turn_choices(run.last(), budget)
    turns, nodes = [], set()
    for choice, played in strategy._p2_turns(run, state, choices, s):
        assert choice == choices[len(turns)]
        if played is None:
            turns.append(None)
            continue
        node = played[0]
        while node is not run:
            nodes.add(id(node))
            node = node._parent
        turns.append((list(played[0].steps(len(run))), played[1]))
    return choices, turns, len(nodes)


def _head(steps):
    """How many of a turn's steps reach the opponent's main phase."""
    return 1 + next(i for i, (_c, _m, nxt) in enumerate(steps) if nxt.phase == Phase.MAIN1)


def _decision_points():
    """Opponent decision points of the channel reductions, the first and
    those after a few spoken numbers, with the strategy."""
    # each number keeps the chain: 2 = succ(1) within 2 steps, then 1 =
    # succ(0); and 2 below 3, then 1
    for out, numbers in ((reduce_nis(CURATED["successor"]), (triple(2, 1, 2), pair(0, 1))),
                         (reduce_wo(standard_omega()), (pair(2, 3), 1))):
        run = drive_to_choice(out.run, out.strategy)
        yield run, out.strategy
        for n in numbers:
            run = drive_to_choice(play_opponent_number(run, out.strategy, n), out.strategy)
            yield run, out.strategy


def test_opponent_turns_share_their_prefixes():
    budget, points = Budget(10, 8), 0
    for run, s in _decision_points():
        points += 1
        state = s.observe(run)
        choices, turns, made = _shared_turns(run, state, budget, s)
        assert len(choices) == 17
        assert turns == [_turn_alone(run, state, c, s) for c in choices]
        # the draw and walk to the main phase once, each pull once, and per
        # choice only the park and the rest of the turn
        head = _head(turns[0][0])
        own = [len(steps) - head - k for (k, _park), (steps, _state) in zip(choices, turns)]
        assert made == head + 8 + sum(own)
        assert made < sum(len(steps) for steps, _state in turns)
    assert points == 6


def test_a_silent_channel_ends_longer_speeches_unparked():
    # with one Flint Lock left, the first pull puts Flint on it and no
    # second pull can be said: every longer speech ends after that pull,
    # unparked, sharing the (1, False) turn
    run, s = next(_decision_points())
    state, conf = s.observe(run), run.last()
    p2 = conf.players[1]
    flint = next(st for st in p2.spelltraps if st is not None and st.card == FLINT)
    locks = [i for i, m in enumerate(p2.monsters) if m is not None and m.card == FLINT_LOCK]
    assert len(locks) == 2 and flint.equipped_to not in [(1, MZONE, i) for i in locks]
    one_lock = update_player(conf, 1, monsters=tuple(
        None if i == locks[1] else m for i, m in enumerate(p2.monsters)))
    run = Run((one_lock,), ())
    choices, turns, made = _shared_turns(run, state, Budget(10, 3), s)
    assert turns == [_turn_alone(run, state, c, s) for c in choices]
    assert choices[:3] == [(0, True), (1, True), (1, False)]
    assert len(turns) == 7 and all(t == turns[2] for t in turns[3:])
    head = _head(turns[0][0])
    zero, parked, pulled = (len(steps) for steps, _state in turns[:3])
    assert made == head + 1 + (zero - head) + (parked - head - 1) + (pulled - head - 1)


@pytest.mark.parametrize("reduce, budget", [
    (lambda: reduce_halting(CURATED["identity"]), Budget(200, 4)),
    (lambda: reduce_nis(CURATED["successor"]), Budget(10, 8, cap_exhaustive=True)),
], ids=["halting-identity", "nis-successor"])
def test_planned_steps_are_what_apply_gives(reduce, budget):
    # the drivers extend the run with the configurations of the turn the
    # strategy answers and do not apply our moves again, so each step of
    # every answered turn must be apply's own from the step before it
    out = reduce()
    s, steps = out.strategy, []
    planned = s.next_move

    def next_move(conf, state):
        turn = planned(conf, state)
        before = conf
        for mv, nxt in turn or ():
            steps.append((before, mv, nxt))
            before = nxt
        return turn

    s.next_move = next_move
    check_winning(out.run, s, budget)
    assert len(steps) > 100
    for conf, mv, nxt in steps:
        assert apply(conf, mv) == nxt


def test_play_applies_no_move_outside_the_plans(monkeypatch):
    # both players' turns are planned lines, so with the strategy module's
    # apply refused the checker, the trees and the play functions still run
    # and answer as before
    budget = Budget(10, 8, cap_exhaustive=True)

    def answers():
        out = reduce_nis(CURATED["successor"])
        run = out.run
        for n in (5, 2, 0):
            run = drive_to_choice(play_opponent_number(run, out.strategy, n), out.strategy)
        return (check_winning(out.run, out.strategy, budget),
                _tree_codes(to_tree(out.strategy, out.run, 3, budget)), run.moves)

    want = answers()

    def refuse(conf, move):
        raise AssertionError(f"{move!r} was applied outside a planned line")

    monkeypatch.setattr(strategy, "apply", refuse)
    assert answers() == want


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _tree_codes(tree):
    return tree.code, tree.winning, tuple((c, _tree_codes(t)) for c, t in tree.children)


# witnesses, verdicts and tree codes computed before the drivers reused the
# planned configurations, when every move of ours was applied twice
@pytest.mark.parametrize("reduce, budget, kind, length, sha", [
    (lambda: reduce_halting(CURATED["empty"]), Budget(200, 4), WIN, 178,
     "23ff5f7eb306af24274beaf6ce0cfa6b14dc7f3ece7ad9c3361363bc2f03c270"),
    (lambda: reduce_halting(CURATED["identity"]), Budget(200, 4), WIN, 921,
     "1ad660674b2363b40e071cd1d4aa2109cfcbe7f0f187f761ef4f90d9df2daa7c"),
    (lambda: reduce_halting(CURATED["decrement"]), Budget(200, 4), WIN, 2039,
     "264cf48df45fcd5ca54e80878d3a24fec5ee1c2960c6a27a5cd1d07352d7d1f4"),
    (lambda: reduce_halting(CURATED["loop"]), Budget(20, 4), UNDETERMINED, 492,
     "5f210dc302586335a96638d1d5f5134bc8b6e52bd193f7e23319558b565cd6cb"),
    (lambda: reduce_nis(CURATED["identity"]), Budget(10, 8, cap_exhaustive=True),
     UNDETERMINED, 205, "23c6958b5dfc648cb2ede4799cfb4bb550eb1990efb86fa508145f61c8c67102"),
    (lambda: reduce_nis(CURATED["successor"]), Budget(10, 8, cap_exhaustive=True), WIN, 50,
     "47fe65eb8ed68132b49cb3eb84d77aef96a0d456b9ba30ae448e612e6669fcaf"),
    # the channel's turns played through the opponent's turn planner
    (lambda: reduce_wo(reverse_omega()), Budget(16, 3), UNDETERMINED, 86,
     "cce4aa2c38072e149481cdf39b6f8aecfc98eb4166f12e5926fc92cded5a63ae"),
    # computed before rounds were linked in batches: slow's batch stops at
    # the deck guard, before the deck-out round, and loop's at the last turn
    (lambda: reduce_halting(CURATED["slow"]), Budget(200, 4), WIN, 2429,
     "966fbb52ab1a4af68f597b76210c2c70bb8330d1be4c589e8d2a0b9942e03fb9"),
    (lambda: reduce_halting(CURATED["loop"]), Budget(200, 4), UNDETERMINED, 4632,
     "24278358f90afa522e95b9e8537a42d30138b6a671695eec0d48d9b70ba153ea"),
], ids=["halting-empty", "halting-identity", "halting-decrement", "halting-loop",
        "nis-identity", "nis-successor", "wo-reverse-omega", "halting-slow-200",
        "halting-loop-200"])
def test_witnesses_are_pinned(reduce, budget, kind, length, sha):
    out = reduce()
    v = check_winning(out.run, out.strategy, budget)
    assert (v.kind, len(v.witness), _digest(v.witness)) == (kind, length, sha)


def test_finite_5_wins_at_a_cap_that_speaks_its_longest_chain():
    # the longest chain of finite(5), 4 > 3 > 2 > 1, opens with the number
    # pair(3, 4) = 32, so at cap 32 the opponent can speak every chain the
    # order holds, and the win must still follow
    out = reduce_wo(standard_finite(5))
    s, state = out.strategy, None
    assert pair(3, 4) == 32
    for n in (32, 2, 1):
        state = s.hear(state, n)
    assert state == 1
    v = check_winning(out.run, s, Budget(60, 32, cap_exhaustive=True))
    assert v.is_win
    assert is_winning_state(replay_witness(out.run, v.witness).last(), 0)


# each tree's reduction, depth, budget and the well_founded_to_depth answer
_TREES = {
    "identity": (lambda: reduce_nis(CURATED["identity"]), 4, Budget(36, 8),
                 OpenBranch((22, 7, 4, 2))),
    "successor": (lambda: reduce_nis(CURATED["successor"]), 4, Budget(36, 8), WELL_FOUNDED),
    "wo-reverse-omega": (lambda: reduce_wo(reverse_omega()), 5, Budget(16, 3),
                         OpenBranch((4, 7, 11, 2, 2))),
}


@pytest.mark.parametrize("machine, size, sha", [
    ("identity", 198, "3cbd15a094949cdcf7c2cacf6c12fb9d897fec57749ced5328fa13efe5379447"),
    ("successor", 74, "f6f082f0ce01a2c821bfdc4092ab07e6528433b59e3dbe68349c05fec835cc92"),
    ("wo-reverse-omega", 96, "1fdf76c36d3d41f46239c61aa7f2d8fb99190eb6c95e46e65d7b2377ff79cb03"),
])
def test_nis_trees_are_pinned(machine, size, sha):
    reduce, depth, budget, answer = _TREES[machine]
    out = reduce()
    tree = to_tree(out.strategy, out.run, depth, budget)
    assert (tree.size(), _digest(_tree_codes(tree))) == (size, sha)
    assert well_founded_to_depth(tree, depth) == answer


def test_a_halting_tree_through_batches_is_pinned():
    # slow's tree at depth 60, computed before rounds were linked in
    # batches: a decision point a batch passes is a tree node of its own
    out = reduce_halting(CURATED["slow"])
    tree = to_tree(out.strategy, out.run, 60, Budget(200, 4))
    assert (tree.size(), _digest(_tree_codes(tree))) == \
        (53, "e688b2e94dc840853f06e5624b216589b2549ed16482eb1d2e24061c33857aae")
    assert well_founded_to_depth(tree, 60) == WELL_FOUNDED


@pytest.mark.parametrize("reduce, depth, budget, drives, size, sha", [
    (lambda: reduce_wo(standard_omega()), 6, Budget(80, 10, cap_exhaustive=True), 140, 268,
     "6d1b3bb41cceccc2498bf04f0424ba71c8d052ed12eea986e68127244bebe725"),
    (lambda: reduce_wo(standard_finite(5)), 8, Budget(60, 8, cap_exhaustive=True), 104, 152,
     "dd32e7bc4d874248af5ac6537c4ea26da1cacc4148a171f61c36a6603f58291c"),
], ids=["wo-omega", "wo-finite-5"])
def test_a_tree_drives_each_line_once(reduce, depth, budget, drives, size, sha, monkeypatch):
    # lines that two branches reach share one (configuration, heard state)
    # start, and the tree makes each start's line once, by a drive or, after
    # a decision point with one choice, as a moved round (none on these
    # channel decks): a line per tree node would make as many as the tree
    # has nodes
    starts, made, drive, node = [], [], strategy._drive, strategy._Dag.node

    def counted(run, state, s, last_turn=None):
        starts.append((run.last(), state))
        return drive(run, state, s, last_turn)

    def making(self, run, state, driven=None):
        if (run.last(), state) not in self.nodes:
            made.append((run.last(), state))
        return node(self, run, state, driven)

    monkeypatch.setattr(strategy, "_drive", counted)
    monkeypatch.setattr(strategy._Dag, "node", making)
    out = reduce()
    tree = to_tree(out.strategy, out.run, depth, budget)
    assert (len(made), len(set(made))) == (drives, drives)
    assert len(set(starts)) == len(starts) and set(starts) <= set(made)
    assert (tree.size(), _digest(_tree_codes(tree))) == (size, sha)
    assert well_founded_to_depth(tree, depth) == WELL_FOUNDED


def test_nothing_keeps_an_explored_dag_alive(monkeypatch):
    # no node refers back to its DAG, so the nodes go with the DAG by
    # reference counting alone, runs and opponent turns included; a node
    # whose turns closed over the DAG would wait for the cycle collector
    out = reduce_wo(standard_omega())
    budget = Budget(80, 10, cap_exhaustive=True)
    dags, init = [], strategy._Dag.__init__
    monkeypatch.setattr(strategy._Dag, "__init__",
                        lambda self, *args: dags.append(self) or init(self, *args))

    def nodes():
        return sum(isinstance(o, strategy._Node) for o in gc.get_objects())

    gc.collect()  # what earlier tests left to the collector
    gc.disable()
    try:
        assert check_winning(out.run, out.strategy, budget).is_win
        assert well_founded_to_depth(to_tree(out.strategy, out.run, 6, budget), 6) == WELL_FOUNDED
        made = sum(len(dag.nodes) for dag in dags)
        assert made > 0 and nodes() == made
        dags.clear()
        assert nodes() == 0
    finally:
        gc.enable()


def test_repeating_takes_a_round_back_at_its_key_under_the_lp_guard(monkeypatch):
    # slow's first round that comes back to its start's key, with the heard
    # state and the counters as they were, is a record moved onto its own
    # end: the moves of the round, ending where apply takes them.  The same
    # round ending with the opponent below the LP guard (Soul Drain's 1000)
    # is covered by the lemma but moves the LP a read compares, so no
    # record is made of it
    out = reduce_halting(CURATED["slow"])
    rounds, repeating = [], frame.repeating
    monkeypatch.setattr(strategy, "repeating",
                        lambda steps: rounds.append(steps) or repeating(steps))
    assert check_winning(out.run, out.strategy, Budget(200, 4)).is_win
    monkeypatch.undo()
    steps = next(steps for steps in rounds if repeating(steps) is not None)
    (start, _mv, _n), (before, last, end) = steps[0], steps[-1]
    record = repeating(steps)
    assert record.moves() == [mv for _c, mv, _n in steps]
    assert record.last() == replay_witness(Run((end,), ()), record.moves()).last()
    assert unframed(record.last()) == unframed(end) == unframed(start)
    low = update_player(end, 1, lp=999)
    assert start.players[1].lp != 999 and unframed(low) == unframed(start)
    lowered = steps[:-1] + [(before, last, low)]
    assert frame.line_frame(lowered) is not None and repeating(lowered) is None


def test_a_check_records_only_turns_and_cycles():
    # the line table holds our turns, under (mode, counters), and the
    # increment cycles they play, after a check and after a tree; a round
    # that repeats itself is a record its child carries, not a line of the
    # table
    out = reduce_halting(CURATED["identity"])
    s = out.strategy

    def tags():
        return {tag for _key, tag in s.lines.recorded}

    assert check_winning(out.run, s, Budget(200, 4)).is_win
    assert CYCLE in tags() and all(tag == CYCLE or tag == (None, tag[1]) for tag in tags())
    assert to_tree(s, out.run, 60, Budget(200, 4)).size() > 1
    assert all(tag == CYCLE or tag == (None, tag[1]) for tag in tags())


def test_steps_walk_no_node_before_the_first_is_read(monkeypatch):
    # a run's steps are walked as they are read: asking for them walks no
    # node, and the first read walks back only to where they start
    run = reduce_halting(CURATED["identity"]).run
    walked, walk = [], Run._after
    monkeypatch.setattr(Run, "_after", lambda self, n: walked.append(n) or walk(self, n))
    steps = run.steps(len(run) - 3)
    assert walked == []
    first = next(steps)
    assert walked == [len(run) - 3] and first[0] == run.configs[-4]


def test_a_drive_inside_their_turn_passes_it_out_unheard():
    # past the opponent's decision point, with one pull already made, the
    # drive passes the rest of their turn out and plays ours; pinned before
    # the opponent's turns became planned lines
    out = reduce_nis(CURATED["successor"])
    run = drive_to_choice(out.run, out.strategy)
    while run.last().phase != Phase.MAIN1:
        mv = Pass(run.last().priority)
        run = run.extend(apply(run.last(), mv), mv)
    mv = strategy._retarget(run.last().players[1], pull=True)
    run = run.extend(apply(run.last(), mv), mv)
    driven = drive_to_choice(run, out.strategy)
    moves = driven.moves[len(run.moves):]
    assert (len(moves), driven.last().turn, driven.last().lp) == (27, 78, (7000, 5400))
    assert _digest(moves) == "5fef52b928847d97066142c19c4ff24f75e10dce392fd1eae69833cd1759dbee"


def test_deep_trees_do_not_need_recursion(shallow_recursion):
    # one opponent turn per level: 60 levels would need far more than 100
    # frames if to_tree, size or well_founded_to_depth recursed per level
    out = reduce_halting(CURATED["loop"])
    tree = to_tree(out.strategy, out.run, 60, Budget(400, 4))
    assert tree.size() == 61 and well_founded_to_depth(tree, 60) == OpenBranch((2,) * 60)


def test_a_tree_links_at_most_one_round_per_round_read(monkeypatch):
    # loop's rounds repeat up to the last turn, but a tree moves a record
    # one round at a time, so a tree of depth 5 reads five rounds and links
    # no moved round past them, whatever the budget's turns
    out = reduce_halting(CURATED["loop"])
    moved, per_round, onto, round_ = [], [], MovedLine.onto, strategy._Dag._round

    def counted_onto(self, conf):
        got = onto(self, conf)
        if got is not None:
            moved.append(got)
        return got

    def counted_round(self, *args):
        before = len(moved)
        got = round_(self, *args)
        per_round.append(len(moved) - before)
        return got

    monkeypatch.setattr(MovedLine, "onto", counted_onto)
    monkeypatch.setattr(strategy._Dag, "_round", counted_round)
    tree = to_tree(out.strategy, out.run, 5, Budget(4000, 4))
    assert tree.size() == 6 and len(per_round) == 5 and max(per_round) == 1


def test_deep_trees_compare_hash_and_print_without_recursion(shallow_recursion):
    def chain(levels, leaf=True):
        tree = StrategyTree(0, leaf)
        for i in range(levels):
            tree = StrategyTree(i + 1, None, ((pair(i, 1), tree),))
        return tree

    a, b = chain(1500), chain(1500)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != chain(1500, leaf=False) and a != chain(1499)
    assert repr(a).count("StrategyTree(") == 1501
    # the dataclass's own format
    small = StrategyTree(1, None, ((3, StrategyTree(2, True)), (4, StrategyTree(5, False))))
    assert repr(small) == ("StrategyTree(code=1, winning=None, children=((3, StrategyTree("
                           "code=2, winning=True, children=())), (4, StrategyTree(code=5, "
                           "winning=False, children=()))))")
    assert repr(chain(1)) == ("StrategyTree(code=1, winning=None, children=((2, StrategyTree("
                              "code=0, winning=True, children=())),))")
