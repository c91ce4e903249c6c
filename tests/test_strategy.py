import sys

import pytest

from duelhalt.coding import pair, triple
from duelhalt.engine import Run, validate_run
from duelhalt.engine.rules import spell_counters
from duelhalt.errors import StrategyUndefinedAtRoot
from duelhalt.reductions import (
    reduce_halting,
    reduce_nis,
    reduce_wo,
    reverse_omega,
    standard_finite,
    standard_omega,
)
from duelhalt.strategy import (
    Budget,
    LOSS,
    OpenBranch,
    UNDETERMINED,
    WELL_FOUNDED,
    WIN,
    check_winning,
    drive_to_choice,
    play_opponent_number,
    replay_witness,
    to_tree,
    tm_strategy,
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
        s = tm_strategy(CURATED["empty"])
        # a run the strategy does not recognize: the second construction
        assert s.next_move(Run((board_b.final,), ())) is None


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

    def test_depth_does_not_need_recursion(self):
        # one opponent turn per branch point: 240 turns would need far more
        # than 100 frames if the checker recursed once per turn
        out = reduce_halting(CURATED["loop"])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            v = check_winning(out.run, out.strategy, Budget(240, 4))
        finally:
            sys.setrecursionlimit(limit)
        assert v.kind == UNDETERMINED

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
        s = tm_strategy(CURATED["empty"])
        with pytest.raises(StrategyUndefinedAtRoot):
            check_winning(Run((board_b.final,), ()), s, Budget(10, 2))

    def test_loss_when_strategy_strands(self):
        # a strategy defined at the root but not afterwards
        out = reduce_halting(CURATED["empty"])

        class OneMove(type(out.strategy)):
            def __init__(self, inner):
                super().__init__(inner.e)
                self.calls = 0

            def next_move(self, run):
                self.calls += 1
                if self.calls > 1:
                    return None
                return super().next_move(run)

        v = check_winning(out.run, OneMove(out.strategy), Budget(50, 2))
        assert v.kind == LOSS


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
    final_only = Run((out.run.configs[-1],), ())
    assert out.strategy.next_move(final_only) is None
    with pytest.raises(TypeError):
        out.strategy.next_move(out.run.configs[-1])
