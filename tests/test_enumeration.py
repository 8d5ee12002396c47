"""Full-set enumeration, the truncation algorithm, and the comparison report."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import golden
import manymatch.enumeration as enumeration
from conftest import (
    build_matching,
    build_profile,
    check_lattice,
    entries,
    firm_join,
    small_markets,
    wide_block_market,
    worker_meet,
)
from manymatch import (
    AxiomViolation,
    ComparisonReport,
    Cycle,
    DATrace,
    EnumerationTrace,
    GenConfig,
    MMSTrace,
    ReducedProfile,
    Side,
    StabilityReport,
    brute_force_stable_set,
    compare_algorithms,
    deferred_acceptance,
    market_to_obj,
    mms_algorithm,
    parse_market,
    random_market,
    reduce_to_worker_optimal,
    stability,
    stable_set,
    validate_profile,
)
from manymatch.cli import main
from manymatch.core import bit_indices, choice, worker
from manymatch.da import DARound
from manymatch.enumeration import EnumerationStep, Expansion, TruncationCandidate
from manymatch.gen import _MAX_PARTNERS
from manymatch.serialize import dumps

markets = st.builds(
    lambda nf, nw, q, prob, seed: random_market(GenConfig(nf, nw, q, prob, seed)),
    st.integers(2, 4),
    st.integers(2, 5),
    st.integers(1, 2),
    st.sampled_from([0.5, 0.8, 1.0]),
    st.integers(0, 100_000),
)

SINGLETON_MARKET = (["w1,w2", "w2,w1"], ["f1,f2", "f2,f1"])


class TestStableSet:
    def test_example1_set_and_trace(self, ex1):
        matchings, trace = stable_set(ex1.profile)
        assert sorted(m.assign for m in matchings) == sorted(
            m.assign
            for m in (ex1.mu_f, ex1.mu_w, ex1.others["sigma1"], ex1.others["sigma2"])
        )
        assert trace.mu_firm == ex1.mu_f and trace.mu_worker == ex1.mu_w
        assert [s.number for s in trace.steps] == [2, 3]
        first, second = trace.steps
        assert [e.source for e in first.expansions] == [ex1.mu_f]
        assert [c.pairs for c in first.expansions[0].cycles] == [
            golden.EX1_SIGMA1,
            golden.EX1_SIGMA2,
        ]
        assert set(first.expansions[0].produced) == {
            ex1.others["sigma1"],
            ex1.others["sigma2"],
        }
        assert {m for e in second.expansions for m in e.produced} == {ex1.mu_w}

    def test_example2_finds_the_skipped_matching(self, ex2):
        matchings, trace = stable_set(ex2.profile)
        assert len(matchings) == 3
        assert ex2.others["mu"] in matchings
        cycles = [c.pairs for s in trace.steps for e in s.expansions for c in e.cycles]
        assert cycles == [golden.EX2_SIGMA1, golden.EX2_SIGMA2]

    def test_equal_optima_stop_immediately(self):
        profile = build_profile(*SINGLETON_MARKET)
        matchings, trace = stable_set(profile)
        assert len(matchings) == 1
        assert trace.steps == ()

    def test_rejects_axiom_violation(self):
        profile = build_profile(["w1w2"], ["f1", "f1"])
        with pytest.raises(AxiomViolation) as err:
            stable_set(profile)
        assert err.value.axiom == "substitutability"
        assert err.value.agent.index == 0

    def test_validate_profile_passes_examples(self, ex1, ex2):
        validate_profile(ex1.profile)
        validate_profile(ex2.profile)

    @pytest.mark.parametrize(
        "run, expected",
        [
            (stable_set, 1),
            (mms_algorithm, 1),
            (compare_algorithms, 1),
            (lambda p: stable_set(p, validate=False), 0),
            (lambda p: mms_algorithm(p, validate=False), 0),
        ],
        ids=["stable_set", "mms_algorithm", "compare_algorithms", "stable_set-unvalidated", "mms-unvalidated"],
    )
    def test_validation_goes_through_the_module_name(self, monkeypatch, ex1, run, expected):
        # The benchmark's tracer wraps `enumeration.validate_profile`, so every
        # validation must look that name up when it runs.
        calls = []
        wrapped = enumeration.validate_profile
        monkeypatch.setattr(enumeration, "validate_profile", lambda p: calls.append(p) or wrapped(p))
        run(ex1.profile)
        assert calls == [ex1.profile] * expected

    @settings(max_examples=60, deadline=None)
    @given(profile=markets)
    def test_agrees_with_oracle(self, profile):
        matchings, _ = stable_set(profile)
        assert [m.assign for m in matchings] == [
            m.assign for m in brute_force_stable_set(profile)
        ]

    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_everything_below_the_top_shows_up_as_a_cyclic_matching(self, profile):
        matchings, trace = stable_set(profile)
        produced = {m for s in trace.steps for e in s.expansions for m in e.produced}
        for m in matchings:
            if m != trace.mu_firm:
                assert m in produced


class TestWideMarkets:
    """Agents that accept a few partners on a wide side: every scan bounded
    by acceptable partners must still see each of them."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_block_product_is_the_stable_set(self, seed):
        profile, expected = wide_block_market(seed)
        assert profile.n_firms == profile.n_workers == 12
        assert all(p.acceptable.bit_count() == 3 for p in profile.firm_prefs + profile.worker_prefs)
        matchings, _ = stable_set(profile)
        assert [m.assign for m in matchings] == expected
        truncation, _ = mms_algorithm(profile, validate=False)
        assert {m.assign for m in truncation} <= set(expected)

    def test_side_wider_than_gens_limit(self, tmp_path, capsys):
        # 7 one-to-one swap blocks: 14 agents a side, more than gen's limit on
        # acceptable partners, but each agent ranks 2 singletons.
        profile, expected = wide_block_market(3, n_blocks=7, size=2, quota=1)
        assert profile.n_firms == profile.n_workers == 14 > _MAX_PARTNERS
        assert all(
            len(p.ranked) == p.acceptable.bit_count() == 2
            for p in profile.firm_prefs + profile.worker_prefs
        )
        assert len(expected) == 128
        matchings, _ = stable_set(profile)
        assert [m.assign for m in matchings] == expected
        truncation, _ = mms_algorithm(profile)
        assert {m.assign for m in truncation} <= set(expected)
        market, out = tmp_path / "market.json", tmp_path / "out.json"
        market.write_text(dumps(market_to_obj(profile)))
        assert main(["enumerate", str(market), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 128
        # The oracle checks each worker once its 2 ranking firms are assigned,
        # so it never walks all 3^14 firm assignments.
        assert [m.assign for m in brute_force_stable_set(profile)] == expected
        assert main(["compare", str(market)]) == 0
        assert json.loads(capsys.readouterr().out)["cycle_enumeration_matches_oracle"] is True

    def test_past_the_old_side_limit(self):
        # 60 agents a side who rank nobody push block workers to indices 64
        # and above, past the 64-agent side limit the library once had.
        profile, expected = wide_block_market(1, n_blocks=4, pad=60)
        assert profile.n_firms == profile.n_workers == 72
        assert max(i for i, p in enumerate(profile.worker_prefs) if p.ranked) >= 64
        profile = parse_market(json.loads(dumps(market_to_obj(profile))))
        matchings, _ = stable_set(profile)
        assert [m.assign for m in matchings] == expected
        assert len(expected) == 16


class TestLatticeCheck:
    """`check_lattice` on sets beyond the oracle, and the limit of what it sees."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_wide_block_markets(self, seed):
        profile, _ = wide_block_market(seed)
        matchings, _ = stable_set(profile)
        check_lattice(profile, matchings)

    def test_ten_swap_blocks_sampled(self):
        # 20 agents a side and 1,024 stable matchings: past the oracle's cap,
        # so closure is tested on 2,000 seeded random pairs.
        profile, expected = wide_block_market(3, n_blocks=10, size=2, quota=1)
        matchings, _ = stable_set(profile)
        assert len(matchings) == len(expected) == 1024
        check_lattice(profile, matchings)

    def test_catches_a_missing_join_reducible_matching(self):
        profile, _ = wide_block_market(1)
        matchings, trace = stable_set(profile)
        reducible = {
            join
            for i, a in enumerate(matchings)
            for b in matchings[i + 1 :]
            if (join := firm_join(profile, a, b)) not in (a, b)
        }
        # The join of two other members, other than the firm optimum (whose
        # absence the optimum test would catch on its own).
        dropped = next(m for m in matchings if m in reducible and m != trace.mu_firm)
        with pytest.raises(AssertionError, match="join missing"):
            check_lattice(profile, [m for m in matchings if m != dropped])

    def test_cannot_see_a_missing_doubly_irreducible_matching(self, ex1):
        # Example 1's set is a diamond: sigma1 is neither the join nor the
        # meet of two other stable matchings, so dropping it goes unseen.
        matchings, _ = stable_set(ex1.profile)
        sigma1, sigma2 = ex1.others["sigma1"], ex1.others["sigma2"]
        assert firm_join(ex1.profile, sigma1, sigma2) == ex1.mu_f
        assert worker_meet(ex1.profile, sigma1, sigma2) == ex1.mu_w
        check_lattice(ex1.profile, [m for m in matchings if m != sigma1])


class TestTruncationAlgorithm:
    def test_example2_rejects_all_candidates(self, ex2):
        matchings, trace = mms_algorithm(ex2.profile)
        assert matchings == sorted([ex2.mu_f, ex2.mu_w], key=lambda m: m.assign)
        assert not trace.used_generic_step
        assert len(trace.candidates) == len(golden.EX2_MMS_CANDIDATES)
        for record, (pair, cand_rows, fail_w, offered, chosen, required) in zip(
            trace.candidates, golden.EX2_MMS_CANDIDATES
        ):
            names = ex2.profile.firm_names, ex2.profile.worker_names
            assert (names[0][record.pair[0]], names[1][record.pair[1]]) == pair
            assert record.candidate == build_matching(cand_rows, 4)
            assert not record.accepted
            assert record.source == ex2.mu_f
            assert len(record.failures) == 1
            w, got_offered, got_chosen, got_required = record.failures[0]
            assert names[1][w] == fail_w
            assert got_offered == entries(offered)[0]
            assert got_chosen == entries(chosen)[0]
            assert got_required == entries(required)[0]

    def test_example1_happens_to_agree(self, ex1):
        matchings, _ = mms_algorithm(ex1.profile)
        assert [m.assign for m in matchings] == [
            m.assign for m in brute_force_stable_set(ex1.profile)
        ]

    def test_equal_optima_returns_singleton(self):
        matchings, trace = mms_algorithm(build_profile(*SINGLETON_MARKET))
        assert len(matchings) == 1
        assert trace.candidates == ()

    def test_chained_rounds_run_after_an_accepted_candidate(self):
        # Dense one-to-one market whose step 1 accepts a candidate, so the
        # under-specified later rounds execute and get flagged.
        profile = random_market(GenConfig(4, 4, quota=1, acceptability_prob=1.0, seed=1))
        matchings, trace = mms_algorithm(profile)
        assert trace.used_generic_step
        assert any(c.step > 1 for c in trace.candidates)
        assert {m.assign for m in matchings} <= {
            m.assign for m in brute_force_stable_set(profile)
        }

    @settings(max_examples=40, deadline=None)
    @given(profile=markets)
    def test_never_returns_non_stable_or_extra_matchings(self, profile):
        matchings, _ = mms_algorithm(profile)
        oracle = {m.assign for m in brute_force_stable_set(profile)}
        assert {m.assign for m in matchings} <= oracle

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), arbitrary=st.booleans())
    def test_equals_one_run_per_candidate(self, data, arbitrary):
        # Arbitrary lists run unvalidated; gen markets are substitutable.
        profile = data.draw(small_markets(max_side=4) if arbitrary else markets)
        validate = not arbitrary
        assert mms_algorithm(profile, validate) == reference_mms(profile, validate)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_one_run_per_candidate_where_cuts_repeat(self, seed):
        profile, _ = wide_block_market(seed, n_blocks=3)
        assert mms_algorithm(profile) == reference_mms(profile)

    def test_unchanged_worker_is_tested_when_a_held_set_is_not_offered(self):
        # Not substitutable: f3 ranks only {w1, w2}, so once w2 cuts it, it
        # leaves w1, which still holds {f1, f3}. Held sets then differ from
        # the offers, and w1, offered only its unchanged {f1} by nu and by
        # the candidate, chooses no one: an objection a skip of unchanged
        # workers would drop.
        profile = build_profile(["w1w2,w1,w2", "w1,w2", "w1w2"], ["f1f3,f2", "f2"])
        _, trace = mms_algorithm(profile, validate=False)
        assert [(c.pair, c.candidate.assign, c.failures) for c in trace.candidates] == [
            ((1, 1), (0b1, 0, 0), ((0, 0b1, 0, 0b1), (1, 0b10, 0b10, 0)))
        ]
        assert trace == reference_mms(profile, validate=False)[1]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_deferred_acceptance_run_per_distinct_cut(self, monkeypatch, seed):
        profile, _ = wide_block_market(seed, n_blocks=3)
        calls = []
        wrapped = enumeration.deferred_acceptance
        monkeypatch.setattr(
            enumeration,
            "deferred_acceptance",
            lambda p, side, bans=None: calls.append((side, bans)) or wrapped(p, side, bans),
        )
        _, trace = mms_algorithm(profile)
        # Rebuild each candidate's cut from the trace: its source's cut plus
        # its own pair, where an accepted new candidate passes its cut on.
        mu_f, mu_w = deferred_acceptance(profile, Side.FIRM)[0], deferred_acceptance(profile, Side.WORKER)[0]
        cut_of = {mu_f.assign: (0,) * profile.n_firms}
        cuts = []
        for c in trace.candidates:
            f, w = c.pair
            cut = list(cut_of[c.source.assign])
            cut[f] |= 1 << w
            cuts.append(tuple(cut))
            if c.accepted and c.candidate.assign not in cut_of and c.candidate != mu_w:
                cut_of[c.candidate.assign] = tuple(cut)
        distinct = list(dict.fromkeys(cuts))
        assert len(distinct) < len(cuts)
        assert calls == [(Side.FIRM, None), (Side.WORKER, None)] + [(Side.FIRM, c) for c in distinct]


def reference_mms(profile, validate=True):
    """`mms_algorithm` with one deferred-acceptance run per candidate and
    every worker tested: the reference its per-cut memo and its skip of
    unchanged workers must equal."""
    mu_f, mu_w, collected = enumeration._optima(profile, validate)
    records = []
    frontier = [((0,) * profile.n_firms, mu_f)]
    step = 1
    while frontier:
        added = []
        for bans, nu in frontier:
            for f in range(profile.n_firms):
                for w in bit_indices(nu.assign[f] & ~mu_w.assign[f]):
                    cut = bans[:f] + (bans[f] | 1 << w,) + bans[f + 1 :]
                    candidate, _ = deferred_acceptance(profile, Side.FIRM, cut)
                    failures = reference_objections(profile, nu, candidate)
                    accepted = not failures
                    records.append(TruncationCandidate(step, nu, (f, w), candidate, accepted, failures))
                    if accepted and candidate.assign not in collected:
                        collected[candidate.assign] = candidate
                        added.append((cut, candidate))
        frontier = added
        step += 1
    result = [collected[k] for k in sorted(collected)]
    return result, MMSTrace(tuple(records), used_generic_step=step > 2)


def reference_objections(profile, nu, candidate):
    old, new = nu.worker_view(), candidate.worker_view()
    out = []
    for w in range(profile.n_workers):
        offered = old[w] | new[w]
        chosen = choice(profile, worker(w), offered)
        if chosen != new[w]:
            out.append((w, offered, chosen, new[w]))
    return tuple(out)


class TestNonResponsiveMarkets:
    """Substitutable+LAD preferences the random generator cannot produce."""

    def test_partition_quota_firms(self):
        # Each firm hires at most one worker per category; the ranked sets are
        # not generated by any single ranking of individuals.
        profile = build_profile(
            ["w1w3,w1w4,w2w3,w2w4,w1,w2,w3,w4", "w2w4,w3w4,w1w2,w1w3,w4,w1,w2,w3"],
            ["f1,f2", "f2,f1", "f1,f2", "f2,f1"],
        )
        validate_profile(profile)
        matchings, _ = stable_set(profile)
        assert [m.assign for m in matchings] == [
            m.assign for m in brute_force_stable_set(profile)
        ]

    def test_dominated_entries_are_harmless(self):
        # The pair entry can never be chosen while its better singleton is
        # around; it must not disturb stability or enumeration.
        profile = build_profile(["w2,w1w2,w1", "w1,w1w2,w2"], ["f1,f2", "f2,f1"])
        validate_profile(profile)
        matchings, _ = stable_set(profile)
        assert [m.assign for m in matchings] == [(1, 2), (2, 1)]

    def test_antialigned_partition_market_walks_two_cycles(self):
        # Two partition-quota firms with opposed rankings and workers opposed
        # to both: four stable matchings reachable through two cycles, all on
        # non-responsive preferences.
        profile = build_profile(
            ["w1w3,w1w4,w2w3,w2w4,w1,w2,w3,w4", "w2w4,w2w3,w1w4,w1w3,w2,w1,w4,w3"],
            ["f2,f1", "f1,f2", "f2,f1", "f1,f2"],
        )
        validate_profile(profile)
        matchings, trace = stable_set(profile)
        assert [m.assign for m in matchings] == [(5, 10), (6, 9), (9, 6), (10, 5)]
        assert [m.assign for m in brute_force_stable_set(profile)] == [
            (5, 10), (6, 9), (9, 6), (10, 5),
        ]
        first = trace.steps[0].expansions[0]
        assert [c.pairs for c in first.cycles] == [((0, 0), (1, 1)), ((2, 0), (3, 1))]
        assert {m for e in trace.steps[1].expansions for m in e.produced} == {
            trace.mu_worker
        }
        truncation, mms_trace = mms_algorithm(profile)
        assert [m.assign for m in truncation] == [(5, 10), (6, 9), (9, 6), (10, 5)]
        assert mms_trace.used_generic_step


class TestCompare:
    def test_example2_report(self, ex2):
        report = compare_algorithms(ex2.profile)
        assert len(report.oracle) == 3
        assert report.cycle_matches_oracle
        assert not report.truncation_matches_oracle
        assert report.missing_from_truncation == (ex2.others["mu"],)
        assert report.extra_in_truncation == ()

    def test_example1_all_agree(self, ex1):
        report = compare_algorithms(ex1.profile)
        assert report.cycle_matches_oracle
        assert report.truncation_matches_oracle
        assert len(report.oracle) == 4

    def test_singleton_market_all_agree(self):
        report = compare_algorithms(build_profile(*SINGLETON_MARKET))
        assert report.cycle_matches_oracle and report.truncation_matches_oracle
        assert len(report.oracle) == 1


# Each value record's fields in order. The order is part of the API: a record
# is a tuple, so it unpacks, iterates and compares like its plain fields.
RECORD_FIELDS = {
    DARound: ("proposals", "held", "rejections"),
    DATrace: ("proposing", "rounds"),
    Cycle: ("pairs",),
    ReducedProfile: ("base", "mu", "mu_tilde", "banned_firm", "banned_worker"),
    StabilityReport: ("irrational_agents", "blocking_pairs"),
    Expansion: ("source", "cycles", "produced"),
    EnumerationStep: ("number", "expansions"),
    EnumerationTrace: ("mu_firm", "mu_worker", "steps"),
    TruncationCandidate: ("step", "source", "pair", "candidate", "accepted", "failures"),
    MMSTrace: ("candidates", "used_generic_step"),
    ComparisonReport: ("oracle", "cycle_set", "truncation_set", "truncation_trace"),
}


def _built_records(ex1, ex2) -> dict[type, tuple]:
    """One instance of each value record, as the algorithms build them."""
    _, da_trace = deferred_acceptance(ex1.profile, Side.FIRM)
    _, trace = stable_set(ex1.profile)
    report = compare_algorithms(ex2.profile)
    step = trace.steps[0]
    return {
        DARound: da_trace.rounds[0],
        DATrace: da_trace,
        Cycle: step.expansions[0].cycles[0],
        ReducedProfile: reduce_to_worker_optimal(ex1.profile, trace.mu_firm),
        StabilityReport: stability(ex1.profile, trace.mu_firm),
        Expansion: step.expansions[0],
        EnumerationStep: step,
        EnumerationTrace: trace,
        TruncationCandidate: report.truncation_trace.candidates[0],
        MMSTrace: report.truncation_trace,
        ComparisonReport: report,
    }


class TestValueRecords:
    @pytest.mark.parametrize("record_type", RECORD_FIELDS, ids=lambda t: t.__name__)
    def test_is_an_immutable_tuple_of_its_fields(self, ex1, ex2, record_type):
        record = _built_records(ex1, ex2)[record_type]
        assert type(record) is record_type
        assert record_type._fields == RECORD_FIELDS[record_type]
        with pytest.raises(AttributeError):
            setattr(record, record_type._fields[0], None)
        hash(record)
        assert record == tuple(record)
