"""The three-step reduction: golden lists, identities, and the banning oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import golden
from conftest import compact_rows, gen_markets, wide_block_market
from manymatch import (
    NotComparable,
    NotStable,
    Matching,
    Preference,
    Profile,
    Side,
    brute_force_stable_set,
    choice,
    deferred_acceptance,
    find_cycles,
    full_mask,
    is_substitutable,
    random_market,
    reduce_profile,
    reduce_to_worker_optimal,
    satisfies_lad,
    stable_set,
    unanimous_blair_geq,
)
from manymatch.core import AgentId, firm, worker
from manymatch.reduction import _step12_banned
from test_acceptance import CORPUS_SIZE, corpus_config

markets = gen_markets(4, [0.6, 0.9, 1.0])


class TestGoldenLists:
    def test_example1_firm_optimal(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        assert compact_rows(reduced.materialized) == golden.EX1_REDUCED_MU_F

    def test_example1_sigma1(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.others["sigma1"], ex1.mu_w)
        assert compact_rows(reduced.materialized) == golden.EX1_REDUCED_SIGMA1

    def test_example1_sigma2(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.others["sigma2"], ex1.mu_w)
        assert compact_rows(reduced.materialized) == golden.EX1_REDUCED_SIGMA2

    def test_example2_firm_optimal(self, ex2):
        reduced = reduce_profile(ex2.profile, ex2.mu_f, ex2.mu_w)
        assert compact_rows(reduced.materialized) == golden.EX2_REDUCED_MU_F

    def test_example2_middle(self, ex2):
        reduced = reduce_profile(ex2.profile, ex2.others["mu"], ex2.mu_w)
        assert compact_rows(reduced.materialized) == golden.EX2_REDUCED_MU

    def test_worker_optimal_shorthand(self, ex1):
        direct = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        assert reduce_to_worker_optimal(ex1.profile, ex1.mu_f).materialized == direct.materialized


class TestChainedVersusDirect:
    def test_rereducing_the_reduced_profile_matches(self, ex1):
        # Reducing the original at sigma; and reducing the already-reduced
        # firm-optimal profile at sigma_i give identical lists.
        base_reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w).materialized
        for key in ("sigma1", "sigma2"):
            mu = ex1.others[key]
            direct = reduce_profile(ex1.profile, mu, ex1.mu_w).materialized
            chained = reduce_profile(base_reduced, mu, ex1.mu_w).materialized
            assert compact_rows(direct) == compact_rows(chained)


class TestEndpointCase:
    def test_reduce_at_equal_matchings(self, ex1):
        for m in (ex1.mu_f, ex1.mu_w, ex1.others["sigma1"]):
            reduced = reduce_profile(ex1.profile, m, m)
            assert brute_force_stable_set(reduced.materialized) == [m]
            assert find_cycles(reduced) == []


class TestReducedOptimality:
    def test_top_choice_is_assignment(self, ex1):
        # Best surviving set of every agent is its assigned set.
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        for f in range(3):
            assert reduced.choice_reduced(firm(f), full_mask(6)) == ex1.mu_f.assign[f]
        views = ex1.mu_w.worker_view()
        for w in range(6):
            assert reduced.choice_reduced(worker(w), full_mask(3)) == views[w]

    def test_da_on_reduced_recovers_the_pair(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.others["sigma1"], ex1.mu_w)
        assert deferred_acceptance(reduced.materialized, Side.FIRM)[0] == ex1.others["sigma1"]
        assert deferred_acceptance(reduced.materialized, Side.WORKER)[0] == ex1.mu_w

    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_da_on_reduced_recovers_the_pair_random(self, profile):
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            reduced = reduce_profile(profile, mu, mu_w)
            assert deferred_acceptance(reduced.materialized, Side.FIRM)[0] == mu
            assert deferred_acceptance(reduced.materialized, Side.WORKER)[0] == mu_w


class TestAxiomPreservation:
    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_reduced_preferences_keep_both_axioms(self, profile):
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            reduced = reduce_profile(profile, mu, mu_w)
            for agent in reduced.materialized.agents():
                assert is_substitutable(reduced.materialized, agent)
                assert satisfies_lad(reduced.materialized, agent)


class TestStableSetOfReduction:
    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_reduction_keeps_exactly_the_blair_interval(self, profile):
        stable = brute_force_stable_set(profile)
        for mu in stable:
            for mu_tilde in stable:
                if not unanimous_blair_geq(profile, mu, mu_tilde, Side.FIRM):
                    continue
                reduced = reduce_profile(profile, mu, mu_tilde)
                interval = [
                    m
                    for m in stable
                    if unanimous_blair_geq(profile, mu, m, Side.FIRM)
                    and unanimous_blair_geq(profile, m, mu_tilde, Side.FIRM)
                ]
                assert brute_force_stable_set(reduced.materialized) == interval

    def test_reduction_at_firm_optimal_preserves_stable_set(self, ex1, ex2):
        for ex in (ex1, ex2):
            reduced = reduce_profile(ex.profile, ex.mu_f, ex.mu_w)
            assert brute_force_stable_set(reduced.materialized) == brute_force_stable_set(
                ex.profile
            )


class TestTruncationIdentity:
    def test_exhaustive_on_example1(self, ex1):
        reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
        for f in range(3):
            for pool in range(1 << 6):
                assert reduced.choice_reduced(firm(f), pool) == choice(
                    ex1.profile, firm(f), pool & ~reduced.banned_firm[f]
                )
        for w in range(6):
            for pool in range(1 << 3):
                assert reduced.choice_reduced(worker(w), pool) == choice(
                    ex1.profile, worker(w), pool & ~reduced.banned_worker[w]
                )


def _banned_by_literal_scan(profile, agent: AgentId, top: int, bot: int) -> int:
    """The quantified-witness reading of the first two steps: strangers inside
    any listed set Blair-above `top`, plus strangers inside any subset at all
    Blair-below `bot`."""
    banned = 0
    for listed in profile.pref(agent).ranked:
        if listed != top and choice(profile, agent, listed | top) == listed:
            banned |= listed & ~top
    n = profile.opposite_size(agent.side)
    for subset in range(1 << n):
        if subset != bot and choice(profile, agent, subset | bot) == bot:
            banned |= subset & ~bot
    return banned


class TestBanningOracle:
    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_single_addition_matches_witness_scan(self, profile):
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            wv_mu, wv_mut = mu.worker_view(), mu_w.worker_view()
            for f in range(profile.n_firms):
                assert _step12_banned(
                    profile, firm(f), mu.assign[f], mu_w.assign[f]
                ) == _banned_by_literal_scan(profile, firm(f), mu.assign[f], mu_w.assign[f])
            for w in range(profile.n_workers):
                assert _step12_banned(
                    profile, worker(w), wv_mut[w], wv_mu[w]
                ) == _banned_by_literal_scan(profile, worker(w), wv_mut[w], wv_mu[w])


def _rebuilt(profile: Profile) -> Profile:
    """The same market on new lists, so that every cache starts empty."""
    return Profile(
        profile.n_firms,
        profile.n_workers,
        tuple(Preference(p.owner, p.ranked) for p in profile.firm_prefs),
        tuple(Preference(p.owner, p.ranked) for p in profile.worker_prefs),
    )


def _several_stable() -> list[Profile]:
    """The acceptance corpus's markets with 2 or more stable matchings."""
    markets = (random_market(corpus_config(i)) for i in range(CORPUS_SIZE))
    return [p for p in markets if len(stable_set(_rebuilt(p), validate=False)[0]) >= 2]


class TestBandMemo:
    """Bans memoized on the lists of one profile, across many reductions in
    any order and against any lower end, equal a fresh profile's bans."""

    @staticmethod
    def _check(profile: Profile) -> int:
        stable, trace = stable_set(_rebuilt(profile), validate=False)
        mu_w = trace.mu_worker
        pairs = [(mu, mu_w) for mu in stable] + [(mu, mu_w) for mu in reversed(stable)]
        pairs += [
            (mu, mu_tilde)
            for mu in stable
            for mu_tilde in stable
            if mu_tilde != mu_w and unanimous_blair_geq(profile, mu, mu_tilde, Side.FIRM)
        ]
        shared = _rebuilt(profile)
        for mu, mu_tilde in pairs:
            memoized = reduce_profile(shared, mu, mu_tilde)
            fresh = reduce_profile(_rebuilt(profile), mu, mu_tilde)
            assert (memoized.banned_firm, memoized.banned_worker) == (
                fresh.banned_firm,
                fresh.banned_worker,
            )
        return len(pairs)

    def test_acceptance_corpus(self):
        markets = _several_stable()
        assert len(markets) >= 50
        assert sum(self._check(p) for p in markets) > 4 * len(markets)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_wide_block_market(self, seed):
        profile, expected = wide_block_market(seed)
        assert self._check(profile) > 2 * len(expected)


class TestMutualAcceptability:
    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_banned_sets_are_symmetric_on_mutual_pairs(self, profile):
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            reduced = reduce_profile(profile, mu, mu_w)
            for f in range(profile.n_firms):
                for w in range(profile.n_workers):
                    mutually_acceptable = (
                        profile.firm_prefs[f].singletons >> w & 1
                        and profile.worker_prefs[w].singletons >> f & 1
                    )
                    if mutually_acceptable:
                        assert (reduced.banned_firm[f] >> w & 1) == (
                            reduced.banned_worker[w] >> f & 1
                        )

    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_final_pass_is_idempotent(self, profile):
        # Re-running the mutual-acceptability pass on the finished lists must
        # change nothing: wherever a singleton is gone, the partner's whole
        # list is already free of the agent, and singleton acceptability is
        # exactly symmetric.
        stable = brute_force_stable_set(profile)
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for mu in stable:
            final = reduce_profile(profile, mu, mu_w).materialized
            alive_f = [p.singletons for p in final.firm_prefs]
            alive_w = [p.singletons for p in final.worker_prefs]
            mentioned_f = [0] * profile.n_firms
            for f, p in enumerate(final.firm_prefs):
                for e in p.ranked:
                    mentioned_f[f] |= e
            mentioned_w = [0] * profile.n_workers
            for w, p in enumerate(final.worker_prefs):
                for e in p.ranked:
                    mentioned_w[w] |= e
            for f in range(profile.n_firms):
                for w in range(profile.n_workers):
                    assert (alive_f[f] >> w & 1) == (alive_w[w] >> f & 1)
                    if not alive_w[w] >> f & 1:
                        assert not mentioned_f[f] >> w & 1
                    if not alive_f[f] >> w & 1:
                        assert not mentioned_w[w] >> f & 1


class TestInputValidation:
    def test_rejects_unstable_matching(self, ex1):
        with pytest.raises(NotStable):
            reduce_profile(ex1.profile, Matching((0, 0, 0), 6), ex1.mu_w)

    def test_rejects_incomparable_pair(self, ex1):
        with pytest.raises(NotComparable):
            reduce_profile(ex1.profile, ex1.others["sigma1"], ex1.others["sigma2"])

    def test_rejects_wrong_direction(self, ex1):
        with pytest.raises(NotComparable):
            reduce_profile(ex1.profile, ex1.mu_w, ex1.mu_f)

    def test_bad_matchings_are_value_errors(self, ex1):
        # An unstable or non-comparable matching is a bad argument value,
        # caught like any other ValueError.
        with pytest.raises(ValueError):
            reduce_profile(ex1.profile, Matching((0, 0, 0), 6), ex1.mu_w)
        with pytest.raises(ValueError):
            reduce_profile(ex1.profile, ex1.mu_w, ex1.mu_f)


def test_materialized_profile_reuses_names(ex1):
    reduced = reduce_profile(ex1.profile, ex1.mu_f, ex1.mu_w)
    assert reduced.materialized.firm_names == ex1.profile.firm_names
    assert reduced.materialized.worker_names == ex1.profile.worker_names
