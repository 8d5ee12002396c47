"""The successor map on v1, cycle enumeration, and cyclic matchings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import golden
from conftest import build_profile
from manymatch import (
    Cycle,
    GenConfig,
    Matching,
    Side,
    bit_indices,
    brute_force_stable_set,
    cyclic_matching,
    deferred_acceptance,
    find_cycles,
    firm,
    full_mask,
    random_market,
    reduce_profile,
    rural_hospitals_holds,
    stability,
    unanimous_blair_geq,
    worker,
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


def reference_successors(reduced) -> dict:
    """The successor map read off its definition, with no shortcut: every v1
    pair (w', f') is tried as the successor of every v1 pair (w, f)."""
    mu, mu_tilde = reduced.mu, reduced.mu_tilde
    wv_mu = mu.worker_view()
    v1 = sorted(
        (w, f)
        for f in range(reduced.base.n_firms)
        for w in bit_indices(mu.assign[f] & ~mu_tilde.assign[f])
    )
    succ = {}
    for w, f in v1:
        firm_pool = full_mask(reduced.base.n_workers) & ~(1 << w)
        for w_next, f_next in v1:
            if mu.assign[f] >> w_next & 1 or wv_mu[w_next] >> f & 1:
                continue
            firm_takes = mu.assign[f] & ~(1 << w) | 1 << w_next
            worker_takes = wv_mu[w_next] & ~(1 << f_next) | 1 << f
            if (
                reduced.choice_reduced(firm(f), firm_pool) == firm_takes
                and reduced.choice_reduced(worker(w_next), wv_mu[w_next] | 1 << f) == worker_takes
            ):
                succ[(w, f)] = (w_next, f_next)
    return succ


# Markets on which a guard of `_successors` is the only thing that keeps a
# v1 pair from a wrong successor: firm rows, worker rows, mu, mu_tilde. They
# fail the axioms, which neither `reduce_profile` nor `find_cycles` checks.
GUARD_MARKETS = {
    # f's choice without w is not mu(f) - w plus exactly one new worker.
    "firm-shape": (
        ["w1w3,w2w3,w1w2w3", "w1w2,w3,w2,w1w3", "w1w2"],
        ["f3,f2,f1f2,f1f2f3,f2f3", "f1f3,f1f2,f1f2f3,f3", "f1f3,f1f2,f1,f2,f3,f2f3"],
        (6, 3, 0),
        (0, 4, 0),
    ),
    # w' offered f drops no firm of mu(w'); without the guard: negative shift count.
    "worker-shape": (
        ["w1w2,w2w3,w2,w1,w1w2w3,w1w3", "w1"],
        ["f1f2", "f1,f2", "f1f2,f1,f2"],
        (3, 1),
        (6, 0),
    ),
    # The pair the equations point at is matched under mu_tilde too.
    "next-not-in-v1": (
        ["w3,w2,w1,w2w3,w1w3", "w1w2w3,w2w3,w1,w1w3,w1w2,w2,w3", "w1,w3,w2w3,w2"],
        ["", "f2f3,f1f3,f1f2f3,f1,f1f2,f3,f2", "f1f2f3,f2,f3,f1"],
        (4, 6, 4),
        (0, 6, 2),
    ),
}


class TestSuccessorMap:
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

    def test_reference_agrees_on_example1(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        assert reference_successors(reduced) == _successors(reduced) != {}

    @pytest.mark.parametrize("name", GUARD_MARKETS)
    def test_guards_match_the_reference(self, name):
        firm_rows, worker_rows, mu, mu_tilde = GUARD_MARKETS[name]
        profile = build_profile(firm_rows, worker_rows)
        reduced = reduce_profile(
            profile, Matching(mu, profile.n_workers), Matching(mu_tilde, profile.n_workers)
        )
        assert _successors(reduced) == reference_successors(reduced)
        for c in find_cycles(reduced):
            assert satisfies_cycle_conditions(reduced, c.pairs)


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

    def test_worker_equation_alone_rejects(self):
        profile = random_market(GenConfig(4, 4, 2, 1.0, 213))
        reduced = reduce_profile(profile, Matching((10, 5, 10, 5), 4), Matching((12, 3, 9, 6), 4))
        pairs = ((1, 2), (0, 3))
        # Both pairs lie in v1, and each firm equation holds.
        for (w, f), (w_next, _) in zip(pairs, pairs[1:] + pairs[:1]):
            assert (reduced.mu.assign[f] & ~reduced.mu_tilde.assign[f]) >> w & 1
            fallback = reduced.choice_reduced(firm(f), full_mask(4) & ~(1 << w))
            assert fallback == reduced.mu.assign[f] & ~(1 << w) | 1 << w_next
        assert not satisfies_cycle_conditions(reduced, pairs)


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
