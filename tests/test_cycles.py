"""The successor map on v1, cycle enumeration, and cyclic matchings."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import golden
from manymatch import (
    Cycle,
    GenConfig,
    Side,
    bit_indices,
    brute_force_stable_set,
    cyclic_matching,
    deferred_acceptance,
    find_cycles,
    random_market,
    reduce_profile,
    rural_hospitals_holds,
    stability,
    unanimous_blair_geq,
)
from manymatch.cycles import _successors, satisfies_cycle_conditions

markets = st.builds(
    lambda nf, nw, q, prob, seed: random_market(GenConfig(nf, nw, q, prob, seed)),
    st.integers(2, 4),
    st.integers(2, 4),
    st.integers(1, 2),
    st.sampled_from([0.6, 0.9, 1.0]),
    st.integers(0, 100_000),
)


class TestDigraph:
    """The successor map: the functional digraph on v1 whose loops are the cycles."""

    def test_example1_first_node_set(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        succ = _successors(reduced)
        # Matched under mu_F but not mu_W, in sorted order; w5 and the f3-w2
        # partnership persist. Each pair points at the next pair of its cycle.
        assert list(succ) == [(0, 0), (1, 0), (2, 1), (3, 2)]
        expected = {}
        for cycle in (golden.EX1_SIGMA1, golden.EX1_SIGMA2):
            for i, node in enumerate(cycle):
                expected[node] = cycle[(i + 1) % len(cycle)]
        assert succ == expected

    def test_example1_arc_goes_to_w4_not_w2(self, ex1):
        # Losing w1, f1's best fallback set picks up w4, who drops f3 for it.
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        assert _successors(reduced)[(0, 0)] == (3, 2)

    def test_equal_matchings_give_empty_v1(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_w, ex1.mu_w)
        assert _successors(reduced) == {}

    @settings(max_examples=30, deadline=None)
    @given(profile=markets)
    def test_v1_nodes_always_have_a_successor(self, profile):
        # With both axioms, the defining equations pin exactly one successor
        # per matched-here-not-there pair, and it is such a pair itself.
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            succ = _successors(reduce_profile(profile, mu, mu_w))
            v1 = sorted(
                (w, f)
                for f in range(profile.n_firms)
                for w in bit_indices(mu.assign[f] & ~mu_w.assign[f])
            )
            assert list(succ) == v1
            assert set(succ.values()) <= set(v1)


class TestFindCycles:
    def test_example1_exactly_two(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        assert [c.pairs for c in find_cycles(reduced)] == [golden.EX1_SIGMA1, golden.EX1_SIGMA2]

    def test_example1_sigma1_profile_has_only_sigma2(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.others["sigma1"], ex1.mu_w)
        assert [c.pairs for c in find_cycles(reduced)] == [golden.EX1_SIGMA2]

    def test_no_cycles_at_the_bottom(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_w, ex1.mu_w)
        assert find_cycles(reduced) == []

    def test_example2_cycles(self, ex2):
        first = reduce_profile(ex2.profile, ex2.mu_f, ex2.mu_w)
        assert [c.pairs for c in find_cycles(first)] == [golden.EX2_SIGMA1]
        second = reduce_profile(ex2.profile, ex2.others["mu"], ex2.mu_w)
        assert [c.pairs for c in find_cycles(second)] == [golden.EX2_SIGMA2]

    @settings(max_examples=30, deadline=None)
    @given(profile=markets)
    def test_cycles_exist_iff_matchings_differ(self, profile):
        stable = brute_force_stable_set(profile)
        for mu in stable:
            for mu_tilde in stable:
                if not unanimous_blair_geq(profile, mu, mu_tilde, Side.FIRM):
                    continue
                cycles = find_cycles(reduce_profile(profile, mu, mu_tilde))
                assert bool(cycles) == (mu != mu_tilde)

    @settings(max_examples=30, deadline=None)
    @given(profile=markets)
    def test_every_emitted_cycle_verifies(self, profile):
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            reduced = reduce_profile(profile, mu, mu_w)
            for c in find_cycles(reduced):
                assert satisfies_cycle_conditions(reduced, c.pairs)
                for rotation in range(len(c.pairs)):
                    rotated = c.pairs[rotation:] + c.pairs[:rotation]
                    assert Cycle.from_pairs(rotated) == c


class TestCycleConditions:
    def test_rejects_wrong_sequences(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        assert satisfies_cycle_conditions(reduced, golden.EX1_SIGMA1)
        assert not satisfies_cycle_conditions(reduced, ((0, 0),))
        assert not satisfies_cycle_conditions(reduced, ((0, 0), (2, 1)))
        assert not satisfies_cycle_conditions(reduced, ())
        mixed = (golden.EX1_SIGMA1[0], golden.EX1_SIGMA2[0])
        assert not satisfies_cycle_conditions(reduced, mixed)


class TestCyclicMatching:
    def test_example1_swaps(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        sigma1, sigma2 = find_cycles(reduced)
        assert cyclic_matching(ex1.mu_f, sigma1) == ex1.others["sigma1"]
        assert cyclic_matching(ex1.mu_f, sigma2) == ex1.others["sigma2"]

    def test_degenerate_single_pair_is_identity(self, ex1):
        assert cyclic_matching(ex1.mu_f, Cycle(((0, 0),))) == ex1.mu_f

    def test_example2_reaches_the_middle_and_bottom(self, ex2):
        assert cyclic_matching(ex2.mu_f, Cycle(golden.EX2_SIGMA1)) == ex2.others["mu"]
        assert cyclic_matching(ex2.others["mu"], Cycle(golden.EX2_SIGMA2)) == ex2.mu_w

    @settings(max_examples=30, deadline=None)
    @given(profile=markets)
    def test_cyclic_matchings_are_stable_and_between(self, profile):
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            reduced = reduce_profile(profile, mu, mu_w)
            for c in find_cycles(reduced):
                produced = cyclic_matching(mu, c)
                assert stability(reduced.materialized, produced).stable
                assert stability(profile, produced).stable
                assert unanimous_blair_geq(profile, mu, produced, Side.FIRM)
                assert unanimous_blair_geq(profile, produced, mu_w, Side.FIRM)
                assert rural_hospitals_holds([mu, produced])
