"""The three-step reduction: golden lists, identities, and the banning oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import golden
from conftest import build_matching, build_profile, compact_rows, gen_markets, wide_block_market
from manymatch import (
    NotComparable,
    NotStable,
    Matching,
    Preference,
    Profile,
    Side,
    bit_indices,
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
    validate_profile,
)
from manymatch.core import AgentId, firm, transpose, worker
from manymatch.reduction import _step12_banned
from test_acceptance import CORPUS_SIZE, corpus_config
from test_cycles import GUARD_MARKETS

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
            # The step-1/2 bans cover the acceptable partners; the final pass
            # bans the rest.
            for f in range(profile.n_firms):
                assert _step12_banned(
                    profile, firm(f), mu.assign[f], mu_w.assign[f]
                ) == _banned_by_literal_scan(
                    profile, firm(f), mu.assign[f], mu_w.assign[f]
                ) & profile.firm_prefs[f].acceptable
            for w in range(profile.n_workers):
                assert _step12_banned(
                    profile, worker(w), wv_mut[w], wv_mu[w]
                ) == _banned_by_literal_scan(
                    profile, worker(w), wv_mut[w], wv_mu[w]
                ) & profile.worker_prefs[w].acceptable


def _reference_masks(profile: Profile, mu: Matching, mu_tilde: Matching) -> tuple:
    """`reduce_profile`'s banned masks as an earlier version built them, with
    no memo: each step-1/2 call bans every partner outside the list, and the
    final pass then bans every partner that is not mutually alive."""

    def step12(agent: AgentId, top: int, bot: int) -> int:
        pref = profile.pref(agent)
        within = 0
        for b in bit_indices(pref.acceptable):
            bit = 1 << b
            if not top & bit and choice(profile, agent, top | bit) & bit:
                within |= bit
            elif not bot & bit and choice(profile, agent, bot | bit) == bot:
                within |= bit
        return within | (full_mask(profile.opposite_size(agent.side)) & ~pref.acceptable)

    wv_mu, wv_mut = mu.worker_view(), mu_tilde.worker_view()
    banned_f = [step12(firm(f), mu.assign[f], mu_tilde.assign[f]) for f in range(profile.n_firms)]
    banned_w = [step12(worker(w), wv_mut[w], wv_mu[w]) for w in range(profile.n_workers)]
    alive_by_w = transpose(
        [p.singletons & ~b for p, b in zip(profile.worker_prefs, banned_w)], profile.n_firms
    )
    alive_by_f = transpose(
        [p.singletons & ~b for p, b in zip(profile.firm_prefs, banned_f)], profile.n_workers
    )
    all_w, all_f = full_mask(profile.n_workers), full_mask(profile.n_firms)
    banned_f = [b | (all_w & ~alive_by_w[f]) for f, b in enumerate(banned_f)]
    banned_w = [b | (all_f & ~alive_by_f[w]) for w, b in enumerate(banned_w)]
    return tuple(banned_f), tuple(banned_w)


class TestMasksUnchanged:
    """Every banned mask equals the earlier construction's, bit for bit, on
    the banned partners outside each list too."""

    @staticmethod
    def _check(profile: Profile, mu: Matching, mu_tilde: Matching) -> None:
        reduced = reduce_profile(profile, mu, mu_tilde)
        assert (reduced.banned_firm, reduced.banned_worker) == _reference_masks(profile, mu, mu_tilde)

    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_gen_markets(self, profile):
        validate_profile(profile)
        stable = brute_force_stable_set(profile)
        for mu in stable:
            for mu_tilde in stable:
                if unanimous_blair_geq(profile, mu, mu_tilde, Side.FIRM):
                    self._check(profile, mu, mu_tilde)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_wide_block_market(self, seed):
        profile, expected = wide_block_market(seed, pad=2)
        mu_f = deferred_acceptance(profile, Side.FIRM)[0]
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        for assign in expected:
            mu = Matching(assign, profile.n_workers)
            self._check(profile, mu, mu_w)
            self._check(profile, mu_f, mu)

    @pytest.mark.parametrize("name", GUARD_MARKETS)
    def test_guard_markets(self, name):
        firm_rows, worker_rows, mu, mu_tilde = GUARD_MARKETS[name]
        profile = build_profile(firm_rows, worker_rows)
        n = profile.n_workers
        self._check(profile, Matching(mu, n), Matching(mu_tilde, n))


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

    def test_not_stable_names_an_irrational_agent(self):
        # f1 holds {w1, w2} but ranks only {w1}; nothing blocks.
        profile = build_profile(["w1"], ["f1", "f1"])
        mu_w = deferred_acceptance(profile, Side.WORKER)[0]
        with pytest.raises(NotStable, match=r"^mu is not stable: irrational f1$"):
            reduce_profile(profile, build_matching(["w1w2"], 2), mu_w)

    def test_not_stable_names_a_blocking_pair(self):
        # f1 and w1 accept each other but are both unmatched.
        profile = build_profile(["w1"], ["f1"])
        empty = Matching((0,), 1)
        with pytest.raises(NotStable, match=r"^mu is not stable: blocking \(f1,w1\)$"):
            reduce_profile(profile, empty, empty)

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
