import pytest

from duelhalt.coding import seq_decode, seq_encode
from duelhalt.engine import validate_run
from duelhalt.errors import BadIndex, InvalidOrder
from duelhalt.reductions import (
    ChainWitness,
    NO_CHAIN,
    appendix_f,
    appendix_g,
    custom_order,
    descending_chains,
    finite_table,
    lex_pairs,
    nis_membership_bounded,
    parse_order,
    reduce_halting,
    reduce_nis,
    reduce_wo,
    reverse_omega,
    standard_finite,
    standard_omega,
)
from duelhalt.tm import CURATED, Converged, STILL_RUNNING, run_bounded


class TestOrders:
    def test_standard_omega(self):
        x = standard_omega()
        x.validate()
        assert x.evaluate(2, 5) == 1
        assert x.evaluate(5, 2) == 0
        assert x.evaluate(3, 3) == 0

    def test_reverse_omega(self):
        x = reverse_omega()
        x.validate()
        assert x.evaluate(5, 2) == 1
        assert x.evaluate(2, 5) == 0

    def test_lex_pairs_is_total(self):
        x = lex_pairs()
        x.validate(sample=25)

    def test_finite_table_validation(self):
        standard_finite(5).validate()
        with pytest.raises(InvalidOrder):
            finite_table([[1, 1], [1, 1]])  # not antisymmetric

    def test_parse_order_keywords_and_matrix(self):
        assert parse_order("omega").name == "omega"
        assert parse_order("omega-reverse").name == "omega-reverse"
        assert parse_order("lex-pairs").name == "lex-pairs"
        x = parse_order("finite 3\n1 1 1\n0 1 1\n0 0 1\n")
        assert x.size == 3 and x.evaluate(0, 2) == 1
        with pytest.raises(InvalidOrder):
            parse_order("finite 2\n1 1\n")

    def test_custom_order_via_machine(self):
        # the setlow machine maps every pair code to an odd (positive) value,
        # which reads as the everywhere-true relation: not antisymmetric
        with pytest.raises(InvalidOrder):
            custom_order(CURATED["setlow"])


class TestReduceHalting:
    def test_run_extends_setup_and_validates(self):
        out = reduce_halting(CURATED["empty"])
        assert validate_run(out.run)

    def test_runs_validate_for_assorted_indices(self):
        for e in (0, 3, 7, 11, 25):
            assert validate_run(reduce_halting(e).run)

    def test_strategy_descriptor(self):
        out = reduce_halting(CURATED["loop"])
        assert out.strategy.descriptor == ("tm", CURATED["loop"])


class TestReduceChannel:
    def test_nis_run_is_the_second_setup(self, board_b):
        out = reduce_nis(CURATED["successor"])
        assert out.run.configs[-1] == board_b.final

    def test_wo_rejects_bad_order(self):
        with pytest.raises(InvalidOrder):
            reduce_wo(finite_table([[1, 1], [1, 1]]))


class TestAppendix:
    def test_f_needs_positive_n(self):
        z = CURATED["oracle-always"]
        assert appendix_f(0, seq_encode([1, 2, 3]), z) is None

    def test_f_undefined_when_oracle_halts(self):
        z = CURATED["oracle-always"]
        for s in ([1], [1, 1], [0, 4, 2]):
            assert appendix_f(3, seq_encode(s), z) is None

    def test_f_trims_when_oracle_stalls(self):
        z = CURATED["oracle-searchzero"]
        assert appendix_f(1, seq_encode([1, 1, 1]), z) == seq_encode([1, 1])
        ones = [1] * 21
        for m in range(20, 0, -1):
            code = seq_encode(ones[:m + 1])
            assert appendix_f(1, code, z) == seq_encode(ones[:m])

    def test_f_chain_structure(self):
        # successive preimages extend each other by exactly one element
        z = CURATED["oracle-searchzero"]
        qs = [seq_encode([1] * m) for m in range(6)]
        for m in range(5):
            assert appendix_f(2, qs[m + 1], z) == qs[m]
            assert seq_decode(qs[m + 1])[:-1] == seq_decode(qs[m])

    def test_g_computes_f(self):
        z = CURATED["oracle-searchzero"]
        g1 = appendix_g(1, z)
        s = seq_encode([1, 1, 1])
        r = run_bounded(g1, s, 1000)
        assert r == Converged(seq_encode([1, 1]))

    def test_g_zero_never_converges(self):
        z = CURATED["oracle-searchzero"]
        g0 = appendix_g(0, z)
        for s in (0, 1, seq_encode([1, 1]), seq_encode([4])):
            assert run_bounded(g0, s, 10**5) == STILL_RUNNING

    def test_g_with_always_halting_oracle_has_no_chains(self):
        z = CURATED["oracle-always"]
        g = appendix_g(5, z)
        assert nis_membership_bounded(g, 1, 40, 10**4) == NO_CHAIN

    def test_g_reproduces_f_on_samples(self):
        import random

        z = CURATED["oracle-searchzero"]
        g2 = appendix_g(2, z)
        rng = random.Random(11)
        samples = [()]
        for length in (1, 2, 3, 4):
            for _ in range(25):
                samples.append(tuple(rng.choice([0, 1, 2]) for _ in range(length)))
        checked = 0
        for s in samples:
            code = seq_encode(s)
            expected = appendix_f(2, code, z)
            got = run_bounded(g2, code, 10**4)
            if expected is None:
                assert got == STILL_RUNNING
            else:
                assert got == Converged(expected)
            checked += 1
        assert checked >= 100


class TestNISMembership:
    def test_identity_constant_chain(self):
        got = nis_membership_bounded(CURATED["identity"], 10, 5, 50)
        assert isinstance(got, ChainWitness)
        assert len(got.chain) == 11
        a = got.chain
        for i in range(10):
            assert run_bounded(CURATED["identity"], a[i + 1], 50) == Converged(a[i])

    def test_successor_no_chain_beyond_bound(self):
        assert nis_membership_bounded(CURATED["successor"], 12, 10, 50) == NO_CHAIN

    def test_successor_short_chains_exist(self):
        got = nis_membership_bounded(CURATED["successor"], 3, 10, 50)
        assert isinstance(got, ChainWitness)

    def test_empty_machine_trivial_chains(self):
        # the empty machine computes the identity: constant chains
        got = nis_membership_bounded(CURATED["empty"], 5, 3, 10)
        assert isinstance(got, ChainWitness)

    def test_loop_machine_no_pairs(self):
        assert nis_membership_bounded(CURATED["loop"], 1, 10, 100) == NO_CHAIN

    @pytest.mark.parametrize("depth,bound,steps,message", [
        (0, 5, 50, "chain depth 0 is not positive"),
        (3, -1, 50, "value bound -1 is not positive"),
        (3, 5, 0, "step budget 0 is not positive"),
    ])
    def test_bad_parameters_are_typed_errors(self, depth, bound, steps, message):
        with pytest.raises(BadIndex, match=message):
            nis_membership_bounded(CURATED["identity"], depth, bound, steps)


class TestChainEnumerator:
    def test_finite_orders_cap_descents(self):
        for size in (3, 5, 8):
            x = standard_finite(size)
            assert descending_chains(x, size, size) is not None
            assert descending_chains(x, size, size + 1) is None

    def test_reverse_omega_descends_forever(self):
        x = reverse_omega()
        chain = descending_chains(x, 1, 30, bound=40)
        assert chain is not None and len(chain) == 30

    def test_omega_descents_bounded_by_start(self):
        x = standard_omega()
        assert descending_chains(x, 10, 11) is not None
        assert descending_chains(x, 10, 12) is None

    @pytest.mark.parametrize("first_max,length,bound,message", [
        (18, 0, None, "chain length 0 is not positive"),
        (18, -3, None, "chain length -3 is not positive"),
        (-1, 4, None, "first element bound -1 is negative"),
        (3, 4, -2, "value bound -2 is negative"),
    ])
    def test_bad_parameters_are_refused_before_any_search(self, first_max, length, bound,
                                                          message):
        # a zero length once ran the whole search from 18 (about 5 s) for None
        with pytest.raises(BadIndex, match=message):
            descending_chains(standard_omega(), first_max, length, bound)


def test_long_chain_searches_need_no_recursion(shallow_recursion):
    assert descending_chains(reverse_omega(), 0, 1500) == tuple(range(1500))
    assert nis_membership_bounded(CURATED["identity"], 1500, 1, 20) == ChainWitness((0,) * 1501)
