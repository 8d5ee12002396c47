"""Matchings, stability, the brute-force oracle, and matching comparisons."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_matching, build_profile, entries, small_markets
from manymatch import (
    CapExceeded,
    GenConfig,
    Matching,
    Preference,
    Profile,
    Side,
    bit_indices,
    brute_force_stable_set,
    choice,
    firm,
    random_market,
    rural_hospitals_holds,
    stability,
    unanimous_blair_geq,
    worker,
)


class TestWorkerView:
    def test_firm_optimal_example(self, ex1):
        assert ex1.mu_f.worker_view() == (
            entries("f1")[0],
            entries("f1f3")[0],
            entries("f2")[0],
            entries("f3")[0],
            entries("f2")[0],
            0,
        )

    def test_sigma1_example(self, ex1):
        assert ex1.others["sigma1"].worker_view() == (
            entries("f3")[0],
            entries("f1f3")[0],
            entries("f2")[0],
            entries("f1")[0],
            entries("f2")[0],
            0,
        )

    def test_empty(self):
        assert Matching((0, 0), 3).worker_view() == (0, 0, 0)

    def test_round_trips_with_assign(self, ex1):
        views = ex1.mu_f.worker_view()
        for f in range(3):
            for w in range(6):
                assert bool(ex1.mu_f.assign[f] >> w & 1) == bool(views[w] >> f & 1)


class TestStability:
    def test_firm_optimal_is_stable(self, ex1):
        report = stability(ex1.profile, ex1.mu_f)
        assert report.stable
        assert report.individually_rational
        assert report.blocking_pairs == ()

    def test_unacceptable_partner_is_irrational(self, ex1):
        # w5 never accepts f1, so holding f1 blocks w5 individually.
        m = build_matching(["w5", "", ""], 6)
        report = stability(ex1.profile, m)
        assert report.irrational_agents == (worker(4),)
        assert not report.stable

    def test_irrational_agent_alone_makes_it_unstable(self):
        # f1 holds {w1, w2} but ranks only {w1}; both workers accept f1, so
        # nothing blocks and only the irrational firm makes it unstable.
        profile = build_profile(["w1"], ["f1", "f1"])
        report = stability(profile, build_matching(["w1w2"], 2))
        assert report.irrational_agents == (firm(0),)
        assert report.blocking_pairs == ()
        assert not report.stable

    def test_example2_middle_matching_is_stable(self, ex2):
        assert stability(ex2.profile, ex2.others["mu"]).stable

    def test_blocking_pairs_found_and_ordered(self, ex1):
        # Everyone unmatched: every mutually acceptable pair blocks.
        report = stability(ex1.profile, Matching((0, 0, 0), 6))
        assert report.individually_rational
        assert list(report.blocking_pairs) == sorted(report.blocking_pairs)
        assert (0, 0) in report.blocking_pairs  # f1 and w1 accept each other
        assert all(p != (1, 5) for p in report.blocking_pairs)  # w6 rejects f2


class TestBruteForce:
    def test_example1_exact_set(self, ex1):
        got = brute_force_stable_set(ex1.profile)
        want = sorted(
            [ex1.mu_f, ex1.mu_w, ex1.others["sigma1"], ex1.others["sigma2"]],
            key=lambda m: m.assign,
        )
        assert got == want

    def test_example2_has_three(self, ex2):
        got = brute_force_stable_set(ex2.profile)
        assert len(got) == 3
        assert ex2.others["mu"] in got

    def test_no_mutual_pairs_leaves_everyone_unmatched(self):
        profile = build_profile(["w1"], ["", ""])
        assert brute_force_stable_set(profile) == [Matching((0,), 2)]

    def test_cap(self):
        # 24 firms with one singleton each: 2^24 candidates pass the fixed cap.
        profile = build_profile([f"w{i + 1}" for i in range(24)], [""] * 24)
        with pytest.raises(CapExceeded, match=r"^more than 10000000 candidate matchings$"):
            brute_force_stable_set(profile)

    def test_deepest_search_under_the_cap(self):
        # 23 such firms, 2^23 candidates, are searched 23 levels deep; each
        # worker ranks no one, so the only stable matching leaves all unmatched.
        profile = build_profile([f"w{i + 1}" for i in range(23)], [""] * 23)
        assert brute_force_stable_set(profile) == [Matching((0,) * 23, 23)]


class TestBlairComparisons:
    def test_firm_optimal_dominates(self, ex1):
        assert unanimous_blair_geq(ex1.profile, ex1.mu_f, ex1.mu_w, Side.FIRM)
        assert unanimous_blair_geq(ex1.profile, ex1.mu_w, ex1.mu_f, Side.WORKER)

    def test_reflexive(self, ex1):
        for side in Side:
            assert unanimous_blair_geq(ex1.profile, ex1.mu_f, ex1.mu_f, side)

    def test_incomparable_pair(self, ex1):
        s1, s2 = ex1.others["sigma1"], ex1.others["sigma2"]
        assert not unanimous_blair_geq(ex1.profile, s1, s2, Side.FIRM)
        assert not unanimous_blair_geq(ex1.profile, s2, s1, Side.FIRM)

    def test_polarization_on_example_stable_sets(self, ex1, ex2):
        for ex in (ex1, ex2):
            stable = brute_force_stable_set(ex.profile)
            for m1 in stable:
                for m2 in stable:
                    assert unanimous_blair_geq(
                        ex.profile, m1, m2, Side.FIRM
                    ) == unanimous_blair_geq(ex.profile, m2, m1, Side.WORKER)


class TestRuralHospitals:
    def test_example1(self, ex1):
        stable = brute_force_stable_set(ex1.profile)
        assert rural_hospitals_holds(stable)
        assert all(m.worker_view()[5] == 0 for m in stable)  # w6 always unmatched

    def test_example2(self, ex2):
        assert rural_hospitals_holds(brute_force_stable_set(ex2.profile))

    def test_singleton(self, ex1):
        assert rural_hospitals_holds([ex1.mu_f])

    def test_detects_difference(self):
        assert not rural_hospitals_holds([Matching((1,), 1), Matching((0,), 1)])

    def test_generator(self, ex1):
        stable = brute_force_stable_set(ex1.profile)
        assert rural_hospitals_holds(m for m in stable)
        assert not rural_hospitals_holds(m for m in [*stable, Matching((0, 0, 0), 6)])

    def test_empty(self):
        assert rural_hospitals_holds([])
        assert rural_hospitals_holds(iter(()))


def test_every_generated_stable_matching_is_individually_rational():
    for seed in range(30):
        profile = random_market(GenConfig(3, 4, quota=2, seed=seed))
        for m in brute_force_stable_set(profile):
            report = stability(profile, m)
            assert report.individually_rational and report.stable


# Reference checks on arbitrary ranked lists, which are mostly neither
# substitutable nor LAD: the library's stability routine and oracle must
# match the definition whatever the preferences.


def _choose(ranked: tuple[int, ...], pool: int) -> int:
    """The first ranked set inside `pool`, or the empty set."""
    return next((e for e in ranked if e & pool == e), 0)


def _textbook_diagnosis(profile: Profile, assign: tuple[int, ...]):
    """Every irrational agent (firms, then workers) and every blocking
    firm x worker pair, straight from the definition."""
    firms, workers = range(profile.n_firms), range(profile.n_workers)
    held = [sum(1 << f for f in firms if assign[f] >> w & 1) for w in workers]
    irrational = [firm(f) for f in firms if _choose(profile.firm_prefs[f].ranked, assign[f]) != assign[f]]
    irrational += [worker(w) for w in workers if _choose(profile.worker_prefs[w].ranked, held[w]) != held[w]]
    blocking = [
        (f, w)
        for f in firms
        for w in workers
        if not assign[f] >> w & 1
        and _choose(profile.firm_prefs[f].ranked, assign[f] | 1 << w) >> w & 1
        and _choose(profile.worker_prefs[w].ranked, held[w] | 1 << f) >> f & 1
    ]
    return tuple(irrational), tuple(blocking)


class TestAgainstTheDefinition:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_stability_is_the_textbook_diagnosis(self, data):
        profile = data.draw(small_markets())
        assign = tuple(data.draw(st.integers(0, (1 << profile.n_workers) - 1)) for _ in range(profile.n_firms))
        report = stability(profile, Matching(assign, profile.n_workers))
        assert (report.irrational_agents, report.blocking_pairs) == _textbook_diagnosis(profile, assign)

    @settings(max_examples=300, deadline=None)
    @given(profile=small_markets())
    def test_oracle_is_the_filtered_product(self, profile):
        # Each firm's options as the oracle takes them: the empty set or a
        # ranked set it would keep as is.
        options = [
            [0] + [e for e in p.ranked if _choose(p.ranked, e) == e] for p in profile.firm_prefs
        ]
        stable = [
            Matching(assign, profile.n_workers)
            for assign in itertools.product(*options)
            if _textbook_diagnosis(profile, assign) == ((), ())
        ]
        assert brute_force_stable_set(profile) == sorted(stable, key=lambda m: m.assign)


def _firm_by_firm_oracle(profile: Profile) -> list[Matching]:
    """The oracle as it once searched, kept as a reference: every firm in
    index order, including a firm that ranks no one, is assigned the empty
    set or a ranked set it would keep as is, and a branch ends at the first
    worker that no later firm ranks and that objects."""

    def keeps(agent, held):
        return choice(profile, agent, held) == held

    options = [[0] + [e for e in p.ranked if keeps(firm(f), e)] for f, p in enumerate(profile.firm_prefs)]
    settles, later = [], 0  # per firm: the workers no later firm ranks
    for pref in reversed(profile.firm_prefs):
        settles.append(list(bit_indices(pref.acceptable & ~later)))
        later |= pref.acceptable
    settles.reverse()
    assign, views, out = [0] * profile.n_firms, [0] * profile.n_workers, []

    def objects(w: int) -> bool:
        if not keeps(worker(w), views[w]):
            return True
        return any(
            choice(profile, firm(f), assign[f] | 1 << w) >> w & 1
            and choice(profile, worker(w), views[w] | 1 << f) >> f & 1
            for f in bit_indices(profile.worker_prefs[w].acceptable & ~views[w])
        )

    def extend(f: int) -> None:
        if f == profile.n_firms:
            out.append(Matching(tuple(assign), profile.n_workers))
            return
        for e in options[f]:
            assign[f] = e
            for w in bit_indices(e):
                views[w] |= 1 << f
            if not any(objects(w) for w in settles[f]):
                extend(f + 1)
            for w in bit_indices(e):
                views[w] &= ~(1 << f)

    extend(0)
    return sorted(out, key=lambda m: m.assign)


@st.composite
def _markets_with_empty_firm_lists(draw) -> Profile:
    """`small_markets` with a drawn set of firms' lists emptied."""
    profile = draw(small_markets())
    empty = draw(st.sets(st.integers(0, profile.n_firms - 1))) if profile.n_firms else set()
    firm_prefs = tuple(Preference(firm(f), ()) if f in empty else p for f, p in enumerate(profile.firm_prefs))
    return Profile(profile.n_firms, profile.n_workers, firm_prefs, profile.worker_prefs)


@settings(max_examples=400, deadline=None)
@given(profile=_markets_with_empty_firm_lists())
def test_oracle_equals_the_firm_by_firm_reference(profile):
    assert brute_force_stable_set(profile) == _firm_by_firm_oracle(profile)
