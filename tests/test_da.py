"""Deferred acceptance: optimal matchings, trace invariants, oracle agreement."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_profile, small_markets
from manymatch import (
    GenConfig,
    Matching,
    Side,
    blair_geq,
    brute_force_stable_set,
    deferred_acceptance,
    random_market,
    stability,
    unanimous_blair_geq,
    validate_profile,
)
from manymatch.core import AgentId, bit_indices, choice, firm, full_mask, transpose, worker
from manymatch.da import DARound, DATrace, NonTermination
from manymatch.matching import _with_worker_view

markets = st.builds(
    lambda nf, nw, q, prob, seed: random_market(GenConfig(nf, nw, q, prob, seed)),
    st.integers(2, 4),
    st.integers(2, 5),
    st.integers(1, 2),
    st.sampled_from([0.5, 0.8, 1.0]),
    st.integers(0, 100_000),
)


class TestExamples:
    def test_example1_firm_proposing(self, ex1):
        m, _ = deferred_acceptance(ex1.profile, Side.FIRM)
        assert m == ex1.mu_f

    def test_example1_worker_proposing(self, ex1):
        m, _ = deferred_acceptance(ex1.profile, Side.WORKER)
        assert m == ex1.mu_w

    def test_example2_both_sides(self, ex2):
        assert deferred_acceptance(ex2.profile, Side.FIRM)[0] == ex2.mu_f
        assert deferred_acceptance(ex2.profile, Side.WORKER)[0] == ex2.mu_w

    def test_single_mutual_pair(self):
        # Only f1 and w1 accept each other; both runs must match exactly them.
        profile = build_profile(["w1", "w1"], ["f1", "f2"])
        for side in Side:
            assert deferred_acceptance(profile, side)[0].assign == (1, 0)


class TestTraceInvariants:
    def test_rejections_subset_of_round_proposals(self, ex1):
        for side in Side:
            _, trace = deferred_acceptance(ex1.profile, side)
            for rnd in trace.rounds:
                for p, r in rnd.rejections:
                    assert rnd.proposals[p] >> r & 1

    def test_final_round_clean(self, ex1, ex2):
        for ex in (ex1, ex2):
            for side in Side:
                _, trace = deferred_acceptance(ex.profile, side)
                assert trace.rounds[-1].rejections == ()

    def test_held_sets_blair_nondecreasing(self, ex1):
        for side in Side:
            _, trace = deferred_acceptance(ex1.profile, side)
            receiving = side.opposite
            previous = None
            for rnd in trace.rounds:
                if previous is not None:
                    for r, held in enumerate(rnd.held):
                        assert blair_geq(
                            ex1.profile, AgentId(receiving, r), held, previous[r]
                        )
                previous = rnd.held

    @settings(max_examples=50, deadline=None)
    @given(profile=markets)
    def test_trace_invariants_on_random_markets(self, profile):
        for side in Side:
            _, trace = deferred_acceptance(profile, side)
            assert trace.rounds[-1].rejections == ()
            for rnd in trace.rounds:
                for p, r in rnd.rejections:
                    assert rnd.proposals[p] >> r & 1


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(profile=markets)
    def test_da_is_the_proposing_side_optimum(self, profile):
        stable = brute_force_stable_set(profile)
        mu_f, _ = deferred_acceptance(profile, Side.FIRM)
        mu_w, _ = deferred_acceptance(profile, Side.WORKER)
        assert stability(profile, mu_f).stable
        assert stability(profile, mu_w).stable
        assert any(m == mu_f for m in stable)
        assert any(m == mu_w for m in stable)
        for m in stable:
            assert unanimous_blair_geq(profile, mu_f, m, Side.FIRM)
            assert unanimous_blair_geq(profile, mu_w, m, Side.WORKER)

    @settings(max_examples=60, deadline=None)
    @given(profile=markets)
    def test_equal_optima_means_unique_stable_matching(self, profile):
        mu_f, _ = deferred_acceptance(profile, Side.FIRM)
        mu_w, _ = deferred_acceptance(profile, Side.WORKER)
        if mu_f == mu_w:
            assert brute_force_stable_set(profile) == [mu_f]


class TestBans:
    """Ban masks seed the firms' rejections: DA then runs exactly as on the
    profile whose firm lists are truncated at every banned worker."""

    @settings(max_examples=80, deadline=None)
    @given(profile=markets, data=st.data())
    def test_equals_da_on_the_truncated_profile(self, profile, data):
        bans = tuple(
            data.draw(st.integers(0, (1 << profile.n_workers) - 1)) for _ in range(profile.n_firms)
        )
        cut = tuple(pref.without(banned) for pref, banned in zip(profile.firm_prefs, bans))
        truncated = replace(profile, firm_prefs=cut)
        assert deferred_acceptance(profile, Side.FIRM, bans) == deferred_acceptance(truncated, Side.FIRM)

    def test_wrong_length_is_rejected(self, ex1):
        n = ex1.profile.n_firms
        for bans in ((0,) * (n - 1), (0,) * (n + 1)):
            with pytest.raises(ValueError):
                deferred_acceptance(ex1.profile, Side.FIRM, bans)


class TestRoundLimit:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rounds_within_one_per_pair_plus_one(self, data):
        """Each (proposer, receiver) pair is cut at most once and every round
        but the last cuts one, whatever the lists and the bans."""
        profile = data.draw(small_markets(max_side=4))
        for side in Side:
            n_prop, n_recv = profile.side_size(side), profile.opposite_size(side)
            bans = tuple(data.draw(st.integers(0, (1 << n_recv) - 1)) for _ in range(n_prop))
            _, trace = deferred_acceptance(profile, side, bans)
            assert len(trace.rounds) <= n_prop * n_recv + 1


def batch_da(profile, proposing, bans=None):
    """Deferred acceptance as it was before rounds became incremental: every
    round every proposer chooses and every receiver chooses from its offers
    plus what it held. The reference the incremental rounds must equal."""
    n_prop, n_recv = profile.side_size(proposing), profile.opposite_size(proposing)
    pool = full_mask(n_recv)
    if bans is None:
        bans = (0,) * n_prop
    proposer_id, receiver_id = (firm, worker) if proposing is Side.FIRM else (worker, firm)
    rejected_by = list(bans)
    held = [0] * n_recv
    rounds = []
    limit = n_prop * n_recv
    while True:
        if len(rounds) > limit:
            raise NonTermination(f"no fixed point after {limit} rounds")
        proposals = tuple(
            choice(profile, proposer_id(p), pool & ~cut) for p, cut in enumerate(rejected_by)
        )
        offers = transpose(proposals, n_recv)
        rejections = []
        for r in range(n_recv):
            table = offers[r] | held[r]
            keep = held[r] = choice(profile, receiver_id(r), table)
            for p in bit_indices(table & ~keep):
                rejections.append((p, r))
                rejected_by[p] |= 1 << r
        rejections.sort()
        rounds.append(DARound(proposals, tuple(held), tuple(rejections)))
        if not rejections:
            break
    assign = rounds[-1].proposals if proposing is Side.FIRM else rounds[-1].held
    return Matching(tuple(assign), profile.n_workers), DATrace(proposing, tuple(rounds))


def outcome(run, *args):
    """The returned value, or the `NonTermination` message raised instead."""
    try:
        return run(*args)
    except NonTermination as e:
        return "NonTermination", str(e)


class TestIncrementalRounds:
    """Re-choosing only the cut proposers and the receivers with a new offer
    gives the batch rounds exactly, on any lists, substitutable or not."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), arbitrary=st.booleans(), banned=st.booleans())
    def test_equals_batch_da(self, data, arbitrary, banned):
        profile = data.draw(small_markets(max_side=4) if arbitrary else markets)
        for side in Side:
            n_prop, n_recv = profile.side_size(side), profile.opposite_size(side)
            bans = None
            if banned:
                bans = tuple(data.draw(st.integers(0, full_mask(n_recv))) for _ in range(n_prop))
            got = outcome(deferred_acceptance, profile, side, bans)
            assert got == outcome(batch_da, profile, side, bans)


class TestWorkerView:
    """A firm-proposing run hands its final offers over as the worker view."""

    @settings(max_examples=100, deadline=None)
    @given(profile=markets, data=st.data())
    def test_handed_over_view_is_the_transpose(self, profile, data):
        bans = tuple(data.draw(st.integers(0, full_mask(profile.n_workers))) for _ in range(profile.n_firms))
        m, _ = deferred_acceptance(profile, Side.FIRM, bans)
        assert vars(m)["_worker_view"] == tuple(transpose(m.assign, profile.n_workers))

    @settings(max_examples=150, deadline=None)
    @given(profile=markets, data=st.data())
    def test_substitutable_run_ends_holding_exactly_the_offers(self, profile, data):
        # The truncation algorithm skips unchanged workers only when this holds.
        validate_profile(profile)
        bans = tuple(data.draw(st.integers(0, full_mask(profile.n_workers))) for _ in range(profile.n_firms))
        m, trace = deferred_acceptance(profile, Side.FIRM, bans)
        assert trace.rounds[-1].held == m.worker_view()

    @settings(max_examples=100, deadline=None)
    @given(profile=markets, data=st.data())
    def test_view_leaves_equality_and_hash_alone(self, profile, data):
        bans = tuple(data.draw(st.integers(0, full_mask(profile.n_workers))) for _ in range(profile.n_firms))
        assign = deferred_acceptance(profile, Side.FIRM, bans)[0].assign
        view = tuple(transpose(assign, profile.n_workers))
        with_view = _with_worker_view(assign, profile.n_workers, view)
        without = Matching(assign, profile.n_workers)
        assert with_view == without and hash(with_view) == hash(without)
        assert with_view.worker_view() == without.worker_view() == view
