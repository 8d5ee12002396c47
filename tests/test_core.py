"""Choice functions, axioms, Blair order, and truncations."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import _ranked_lists, build_profile, entries, small_markets
from manymatch import (
    AxiomViolation,
    GenConfig,
    Preference,
    Profile,
    bit_indices,
    blair_geq,
    choice,
    firm,
    full_mask,
    is_substitutable,
    mask_of,
    random_market,
    satisfies_lad,
    validate_profile,
    worker,
)
from manymatch import core
from manymatch.core import AgentId, Side, _axiom_report, _axiom_verdicts

W = full_mask(6)


def small_profile(*firm_rows: str) -> Profile:
    """Firms with the given rows against 4 workers with empty lists."""
    return build_profile(list(firm_rows), [""] * 4)


# Arbitrary ranked lists over 4 partners (not necessarily substitutable).
ranked_lists = st.lists(
    st.integers(1, (1 << 4) - 1), unique=True, min_size=0, max_size=8
).map(tuple)


def lists_profile(ranked: tuple[int, ...], width: int = 4) -> Profile:
    """One firm with the given list against `width` workers with empty lists."""
    return Profile(
        1, width, (Preference(firm(0), ranked),), tuple(Preference(worker(i), ()) for i in range(width))
    )


class TestChoice:
    def test_first_fitting_entry(self, ex1):
        assert choice(ex1.profile, firm(0), W & ~1) == entries("w2w5")[0]
        assert choice(ex1.profile, firm(1), W) == entries("w3w6")[0]

    def test_empty_pool(self, ex1):
        for agent in ex1.profile.agents():
            assert choice(ex1.profile, agent, 0) == 0

    @given(ranked=ranked_lists, available=st.integers(0, 15))
    def test_contained_and_listed(self, ranked, available):
        profile = lists_profile(ranked)
        got = choice(profile, firm(0), available)
        assert got & available == got
        assert got == 0 or got in ranked

    @given(ranked=ranked_lists, available=st.integers(0, 15))
    def test_first_fit_semantics(self, ranked, available):
        profile = lists_profile(ranked)
        fitting = [e for e in ranked if e & available == e]
        assert choice(profile, firm(0), available) == (fitting[0] if fitting else 0)


def _first_fit(ranked: tuple[int, ...], pool: int) -> int:
    """Uncached reference: the first listed set contained in the pool."""
    return next((e for e in ranked if e & pool == e), 0)


# One firm ranking sets over w1..w4 in a market of 8 workers, so w5..w8 lie
# outside every ranked set. The profile is shared by every example below:
# later examples read answers that earlier ones cached.
WIDE = Profile(
    1,
    8,
    (Preference(firm(0), entries("w1w2,w1w3,w1,w2w3w4,w3,w4")),),
    tuple(Preference(worker(i), ()) for i in range(8)),
)
wide_pools = st.lists(st.integers(0, (1 << 8) - 1), min_size=1, max_size=20).map(
    lambda pools: pools + pools[::-1]
)


class TestChoiceCache:
    @given(pools=wide_pools)
    def test_answers_match_uncached_scan(self, pools):
        pref = WIDE.firm_prefs[0]
        for pool in pools:
            assert choice(WIDE, firm(0), pool) == _first_fit(pref.ranked, pool)
        assert pref.acceptable == 0b1111
        assert all(key & ~pref.acceptable == 0 for key in pref._choice_cache)

    @given(
        pools=wide_pools,
        cut=st.integers(0, 7),
        reordered=st.permutations(WIDE.firm_prefs[0].ranked),
    )
    def test_derived_profiles_follow_their_own_lists(self, pools, cut, reordered):
        original = WIDE.firm_prefs[0]
        for pool in pools:
            choice(WIDE, firm(0), pool)
        truncated = replace(WIDE, firm_prefs=(original.without(1 << cut),))
        reranked = replace(WIDE, firm_prefs=(Preference(firm(0), tuple(reordered)),))
        for pool in pools:
            assert choice(truncated, firm(0), pool) == _first_fit(truncated.firm_prefs[0].ranked, pool)
            assert choice(reranked, firm(0), pool) == _first_fit(tuple(reordered), pool)
            assert choice(WIDE, firm(0), pool) == _first_fit(original.ranked, pool)


def _substitutable_by_definition(profile: Profile, agent) -> bool:
    """The textbook form, quantified over all subset pairs."""
    n = profile.opposite_size(agent.side)
    for pool in range(1 << n):
        chosen = choice(profile, agent, pool)
        for b in bit_indices(chosen):
            sub = pool
            while True:
                if not choice(profile, agent, sub | (1 << b)) >> b & 1:
                    return False
                if sub == 0:
                    break
                sub = (sub - 1) & pool
    return True


class TestSubstitutability:
    def test_example_market_passes(self, ex1):
        for agent in ex1.profile.agents():
            assert is_substitutable(ex1.profile, agent)

    def test_pair_only_list_fails(self):
        assert not is_substitutable(small_profile("w1w2"), firm(0))

    def test_empty_list_passes(self):
        assert is_substitutable(small_profile(""), firm(0))

    def test_cap(self):
        # No cap on acceptable partners: 40 ranked singletons are checked at
        # their 40 singleton pools and 780 pair unions, not 2^40 pools.
        profile = lists_profile(tuple(1 << i for i in range(40)), width=40)
        assert _axiom_verdicts(profile, firm(0)) == (True, True)

    def test_thirteen_partners_failing_substitutability(self):
        # {w1,w2} is chosen from {w1,w2}, but w1 is dropped once w2 leaves.
        profile = lists_profile(entries("w1w2") + tuple(1 << i for i in range(2, 13)), width=13)
        assert _axiom_verdicts(profile, firm(0)) == (False, True)
        _assert_matches_references(profile, firm(0))

    def test_violation_only_at_non_adjacent_sets(self):
        # {w1,w2} is chosen from {w1,w2,w3}, but once w1 leaves, {w3} is and
        # w2 is dropped. No other pool of acceptable partners shows a
        # violation, and this one is the union of the 1st and 3rd ranked sets.
        assert _axiom_verdicts(small_profile("w1w2,w1,w3,w2"), firm(0)) == (False, True)

    @settings(max_examples=150)
    @given(ranked=ranked_lists)
    def test_matches_definition(self, ranked):
        profile = lists_profile(ranked)
        assert is_substitutable(profile, firm(0)) == _substitutable_by_definition(profile, firm(0))


# A ranked list over 4 partners placed at 4 distinct positions of a 20-wide side.
embeddings = st.tuples(ranked_lists, st.permutations(range(20)).map(lambda p: p[:4]))


class TestAcceptablePartnersOnly:
    """The axiom checks read only the partners an agent accepts, so a list
    spread over a 20-wide side gets the 4-wide answers."""

    @settings(max_examples=100)
    @given(embedding=embeddings)
    def test_wide_side_gives_narrow_answers(self, embedding):
        ranked, positions = embedding
        narrow = lists_profile(ranked)
        spread = tuple(mask_of(positions[i] for i in bit_indices(e)) for e in ranked)
        wide = lists_profile(spread, width=20)
        for check in (is_substitutable, satisfies_lad):
            assert check(wide, firm(0)) == check(narrow, firm(0))


class TestLad:
    def test_example_market_passes(self, ex1):
        for agent in ex1.profile.agents():
            assert satisfies_lad(ex1.profile, agent)

    def test_mixed_size_list_passes(self):
        assert satisfies_lad(small_profile("w1w2,w3,w1"), firm(0))

    def test_empty_list_passes(self):
        assert satisfies_lad(small_profile(""), firm(0))

    def test_substitutable_but_not_lad(self):
        # A single favorite crowds out a pair: adding w1 shrinks the choice.
        profile = small_profile("w1,w2w3,w2,w3")
        assert is_substitutable(profile, firm(0))
        assert not satisfies_lad(profile, firm(0))

    @settings(max_examples=150)
    @given(ranked=ranked_lists)
    def test_matches_subset_form(self, ranked):
        profile = lists_profile(ranked)
        n = 4
        subset_form = True
        for pool in range(1 << n):
            size = choice(profile, firm(0), pool).bit_count()
            sub = pool
            while subset_form:
                if choice(profile, firm(0), sub).bit_count() > size:
                    subset_form = False
                if sub == 0:
                    break
                sub = (sub - 1) & pool
        assert satisfies_lad(profile, firm(0)) == subset_form


def _substitutable_every_removal(table: list[int]) -> bool:
    """Reference: one-removal form over every partner in every pool."""
    for avail in range(len(table)):
        chosen = table[avail]
        for x in bit_indices(avail):
            bit = 1 << x
            if chosen & ~bit & ~table[avail & ~bit]:
                return False
    return True


def _lad_every_addition(table: list[int]) -> bool:
    """Reference: single-addition form over every partner outside every pool."""
    k = len(table).bit_length() - 1
    for avail in range(len(table)):
        size = table[avail].bit_count()
        for x in range(k):
            bit = 1 << x
            if not avail & bit and table[avail | bit].bit_count() < size:
                return False
    return True


def _table(profile: Profile, agent) -> list[int]:
    """Reference: the agent's choice from every pool of the opposite side."""
    ranked = profile.pref(agent).ranked
    return [_first_fit(ranked, pool) for pool in range(1 << profile.opposite_size(agent.side))]


def _assert_matches_references(profile: Profile, agent) -> None:
    table = _table(profile, agent)
    assert is_substitutable(profile, agent) == _substitutable_every_removal(table)
    assert satisfies_lad(profile, agent) == _lad_every_addition(table)


# Generated markets with one agent's list optionally disturbed by moving one
# entry to the front, which can break either axiom or both.
market_lists = st.tuples(
    st.integers(1, 3),
    st.integers(1, 10),
    st.integers(1, 10),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.none() | st.integers(0, 1_000),
)


# A generated list over at most 8 partners, disturbed once: two adjacent sets
# swapped, one set dropped, or one set inserted. Near misses of a responsive
# list break the axioms at few pools, which is where the checks must look.
near_responsive = st.tuples(
    st.integers(1, 3),
    st.integers(1, 8),
    st.floats(0.3, 1.0),
    st.integers(0, 10_000),
    st.sampled_from(["swap", "drop", "insert"]),
    st.integers(0, 10_000),
    st.integers(1, (1 << 8) - 1),
)


class TestChosenPartnersOnly:
    """The checks remove only chosen partners; the references try every
    partner, so any pair they need and the checks skip shows up here."""

    @settings(max_examples=300)
    @given(ranked=st.lists(st.integers(1, (1 << 6) - 1), unique=True, max_size=14).map(tuple))
    def test_arbitrary_lists_of_six_partners(self, ranked):
        # Most of these fail substitutability, so LAD is compared on its own.
        _assert_matches_references(lists_profile(ranked, width=6), firm(0))

    @settings(max_examples=40, deadline=None)
    @given(params=market_lists)
    def test_generated_market_lists(self, params):
        quota, n_firms, n_workers, prob, seed, promote = params
        profile = random_market(GenConfig(n_firms, n_workers, quota, prob, seed))
        ranked = list(profile.firm_prefs[0].ranked)
        if promote is not None and ranked:
            ranked.insert(0, ranked.pop(promote % len(ranked)))
        profile = replace(profile, firm_prefs=(Preference(firm(0), tuple(ranked)),) + profile.firm_prefs[1:])
        for agent in profile.agents():
            _assert_matches_references(profile, agent)

    @settings(max_examples=300, deadline=None)
    @given(params=near_responsive)
    def test_near_responsive_lists(self, params):
        quota, width, prob, seed, edit, at, added = params
        ranked = list(random_market(GenConfig(1, width, quota, prob, seed)).firm_prefs[0].ranked)
        added &= full_mask(width)
        if edit == "swap" and len(ranked) > 1:
            i = at % (len(ranked) - 1)
            ranked[i], ranked[i + 1] = ranked[i + 1], ranked[i]
        elif edit == "drop" and ranked:
            del ranked[at % len(ranked)]
        elif edit == "insert" and added and added not in ranked:
            ranked.insert(at % (len(ranked) + 1), added)
        _assert_matches_references(lists_profile(tuple(ranked), width), firm(0))

    def test_list_failing_both_axioms(self):
        # Removing w1 from {w1,w2,w3} grows the choice to {w2,w3} (LAD), and
        # removing w2 from {w2,w3} drops w3, since {w3} is not listed.
        profile = small_profile("w1,w2w3")
        assert not is_substitutable(profile, firm(0))
        assert not satisfies_lad(profile, firm(0))


def _first_violation(profile: Profile):
    """The (agent, axiom) that validation must report, from the two checks."""
    for agent in profile.agents():
        if not is_substitutable(profile, agent):
            return agent, "substitutability"
        if not satisfies_lad(profile, agent):
            return agent, "law of aggregate demand"
    return None


def _validation_outcome(profile: Profile):
    try:
        validate_profile(profile)
    except AxiomViolation as err:
        return err.agent, err.axiom
    return None


class TestValidateProfile:
    def test_substitutability_is_reported_before_lad(self):
        # f1 passes, f2 fails both axioms, f3 fails LAD only.
        profile = small_profile("w1w2,w1,w2", "w1,w2w3", "w1,w2w3,w2,w3")
        assert _validation_outcome(profile) == (firm(1), "substitutability") == _first_violation(profile)

    @settings(max_examples=150)
    @given(rows=st.lists(ranked_lists, min_size=1, max_size=3))
    def test_matches_the_checks_agent_by_agent(self, rows):
        profile = Profile(
            len(rows),
            4,
            tuple(Preference(firm(i), r) for i, r in enumerate(rows)),
            tuple(Preference(worker(i), ()) for i in range(4)),
        )
        assert _validation_outcome(profile) == _first_violation(profile)


def _renamed(ranked: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """The list with partner i renamed perm[i]."""
    return tuple(mask_of(perm[i] for i in bit_indices(e)) for e in ranked)


@st.composite
def markets_sharing_a_list(draw) -> Profile:
    """Up to 4x4 with arbitrary lists, where some agents of each side hold
    one drawn list under a random renaming of its partners."""
    n_firms, n_workers = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def side_lists(count: int, width: int) -> list[tuple[int, ...]]:
        shared = draw(_ranked_lists(width))
        renamed = st.permutations(range(width)).map(lambda perm: _renamed(shared, perm))
        return [draw(st.one_of(renamed, _ranked_lists(width))) for _ in range(count)]

    firm_lists, worker_lists = side_lists(n_firms, n_workers), side_lists(n_workers, n_firms)
    return Profile(
        n_firms,
        n_workers,
        tuple(Preference(firm(i), r) for i, r in enumerate(firm_lists)),
        tuple(Preference(worker(i), r) for i, r in enumerate(worker_lists)),
    )


class TestVerdictsPerShape:
    """The report shares verdicts between lists of one shape; each must still
    get what a check of its own list gives."""

    @settings(max_examples=300, deadline=None)
    @given(profile=st.one_of(small_markets(max_side=3), markets_sharing_a_list()))
    def test_equal_to_the_check_of_each_list(self, profile):
        reported = [(agent, verdicts) for agent, verdicts, _ in _axiom_report(profile)]
        assert reported == [(agent, _axiom_verdicts(profile, agent)) for agent in profile.agents()]

    @pytest.mark.parametrize("quota", [1, 2, 3])
    def test_one_check_for_a_full_acceptability_market(self, quota, monkeypatch):
        # Every list gen builds depends only on its pool size and quota.
        profile = random_market(GenConfig(12, 12, quota, 1.0, seed=1))
        calls = []
        monkeypatch.setattr(core, "_axiom_verdicts", lambda p, a: calls.append(a) or _axiom_verdicts(p, a))
        validate_profile(profile)
        assert len(calls) == 1

    def test_list_caches_stay_empty(self):
        # Validation reads its own tables, so the choice counts and the
        # reduction's work after it are those of an unvalidated run.
        for quota, prob in ((1, 1.0), (2, 0.5), (3, 0.6)):
            profile = random_market(GenConfig(12, 12, quota, prob, seed=1))
            validate_profile(profile)
            for pref in profile.firm_prefs + profile.worker_prefs:
                assert pref._choice_cache == {} and pref._band_cache == {}


class TestBlair:
    def test_example_values(self, ex1):
        p = ex1.profile
        assert blair_geq(p, firm(0), entries("w1w2")[0], entries("w3w4")[0])
        assert not blair_geq(p, firm(0), entries("w3w4")[0], entries("w1w2")[0])

    def test_reflexive_on_listed_sets_of_examples(self, ex1):
        p = ex1.profile
        for agent in p.agents():
            assert blair_geq(p, agent, 0, 0)
            for e in p.pref(agent).ranked:
                assert blair_geq(p, agent, e, e)

    def test_antisymmetry(self, ex1):
        p = ex1.profile
        ranked = p.pref(firm(0)).ranked
        for s1 in ranked:
            for s2 in ranked:
                if blair_geq(p, firm(0), s1, s2) and blair_geq(p, firm(0), s2, s1):
                    assert s1 == s2

    def test_transitive_on_choice_images(self):
        profile = random_market(GenConfig(3, 5, quota=2, seed=7))
        for agent in profile.agents():
            n = profile.opposite_size(agent.side)
            images = sorted({choice(profile, agent, s) for s in range(1 << n)})
            for a in images:
                for b in images:
                    if not blair_geq(profile, agent, a, b):
                        continue
                    for c in images:
                        if blair_geq(profile, agent, b, c):
                            assert blair_geq(profile, agent, a, c)


def _eq1_every_pair(table: list[int]) -> bool:
    """Reference: choice(S | S') == choice(choice(S) | S') for every pair of pools."""
    for s in range(len(table)):
        cs = table[s]
        for s2 in range(len(table)):
            if table[s | s2] != table[cs | s2]:
                return False
    return True


class TestEq1:
    """Path independence: a first-fit list never depends on rejected partners,
    so by Aizerman and Malishevski (1981) the pairwise identity holds exactly
    when the list is substitutable."""

    def test_example_market(self, ex1):
        for agent in ex1.profile.agents():
            assert _eq1_every_pair(_table(ex1.profile, agent))

    def test_non_substitutable_fails(self):
        # Witness: S={w1}, S'={w2}: choice(choice({w1}) | {w2}) is empty.
        assert not _eq1_every_pair(_table(small_profile("w1w2"), firm(0)))

    @settings(max_examples=400)
    @given(ranked=st.lists(st.integers(1, (1 << 5) - 1), unique=True, max_size=10).map(tuple))
    def test_agrees_with_is_substitutable(self, ranked):
        profile = lists_profile(ranked, width=5)
        assert is_substitutable(profile, firm(0)) == _eq1_every_pair(_table(profile, firm(0)))


class TestTruncate:
    def test_drops_every_set_containing_agent(self, ex2):
        pref = ex2.profile.firm_prefs[0]
        assert pref.without(1 << 0).ranked == entries("w2,w3,w4")

    def test_example1_f2_at_w6(self, ex1):
        pref = ex1.profile.firm_prefs[1]
        assert pref.without(1 << 5).ranked == entries(
            "w3w5,w2w5,w1w3,w1w5,w1w2,w2w3,w1,w2,w3,w5"
        )

    def test_no_op_when_absent(self, ex1):
        pref = ex1.profile.firm_prefs[2]  # f3 never ranks w5
        assert pref.without(1 << 4) == pref

    @given(ranked=ranked_lists, banned=st.integers(0, 3), available=st.integers(0, 15))
    def test_choice_identity(self, ranked, banned, available):
        # Choosing under the truncation equals choosing from the pool minus
        # the banned agent, for every ranked list.
        base = lists_profile(ranked)
        cut = Profile(1, 4, (base.firm_prefs[0].without(1 << banned),), base.worker_prefs)
        assert choice(cut, firm(0), available) == choice(
            base, firm(0), available & ~(1 << banned)
        )

    @settings(max_examples=40)
    @given(seed=st.integers(0, 5000))
    def test_truncation_preserves_axioms(self, seed):
        profile = random_market(GenConfig(3, 4, quota=2, acceptability_prob=0.7, seed=seed))
        for f in range(3):
            for w in range(4):
                cut = Profile(
                    3,
                    4,
                    tuple(
                        p.without(1 << w) if i == f else p
                        for i, p in enumerate(profile.firm_prefs)
                    ),
                    profile.worker_prefs,
                )
                assert is_substitutable(cut, firm(f))
                assert satisfies_lad(cut, firm(f))


class TestAgentIds:
    # No side limit: an id past 63 is interned like any other, and -1 is no alias.
    INDICES = [0, 1, 63, 64, 65, 1000, -1]

    @pytest.mark.parametrize("index", INDICES)
    def test_equal_to_a_built_id(self, index):
        assert firm(index) == AgentId(Side.FIRM, index)
        assert worker(index) == AgentId(Side.WORKER, index)
        assert firm(index).index == worker(index).index == index
        assert firm(index) != worker(index)

    def test_interned(self):
        for i in self.INDICES:
            assert firm(i) is firm(i) and worker(i) is worker(i)

    def test_interned_across_threads(self):
        # Threads that all meet unseen indices at once must get one object per index.
        fresh = range(10**6, 10**6 + 20000)
        got = [None] * 8
        start = threading.Barrier(len(got))
        def intern(t):
            start.wait(timeout=30)
            got[t] = [worker(i) for i in fresh]
        threads = [threading.Thread(target=intern, args=(t,)) for t in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(a is b for ids in got[1:] for a, b in zip(got[0], ids))
        assert all(worker(i) is a for i, a in zip(fresh, got[0]))

    def test_no_wraparound_out_of_range(self):
        assert firm(-1).index == -1
        assert firm(-1) != firm(63)

    def test_non_int_index_refused(self):
        # An interned 2.0 would be the id that firm(2) returns from then on.
        with pytest.raises(TypeError):
            firm(float(10**9))
        assert type(firm(10**9).index) is int


class TestProfileInvariants:
    def test_duplicate_set_rejected(self):
        with pytest.raises(ValueError):
            Preference(firm(0), entries("w1,w1"))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            Preference(firm(0), (0,))

    def test_out_of_range_partner_rejected(self):
        # One firm, two workers: ranking w5 points outside the market.
        with pytest.raises(ValueError):
            build_profile(["w5"], ["f1", ""])

    def test_no_side_cap(self):
        wide = Profile(65, 1, tuple(Preference(firm(i), ()) for i in range(65)), (Preference(worker(0), ()),))
        assert wide.firm_names[64] == "f65"
        with pytest.raises(ValueError, match="one preference list required per agent"):
            Profile(-1, 0, (), ())

    def test_wrong_owner_rejected(self):
        with pytest.raises(ValueError):
            Profile(1, 1, (Preference(firm(0), ()),), (Preference(worker(1), ()),))

    def test_one_list_per_agent(self):
        with pytest.raises(ValueError, match="one preference list required per agent"):
            Profile(2, 1, (Preference(firm(0), ()),), (Preference(worker(0), ()),))

    def test_one_name_per_agent(self):
        with pytest.raises(ValueError, match="one name required per agent"):
            Profile(1, 1, (Preference(firm(0), ()),), (Preference(worker(0), ()),), ("a", "b"))
