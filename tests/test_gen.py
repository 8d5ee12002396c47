"""The responsive random-market generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from manymatch import (
    CapExceeded,
    GenConfig,
    choice,
    is_substitutable,
    random_market,
    satisfies_lad,
)
from manymatch.gen import _MAX_PARTNERS

configs = st.builds(
    GenConfig,
    n_firms=st.integers(1, 5),
    n_workers=st.integers(1, 5),
    quota=st.integers(1, 3),
    acceptability_prob=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    seed=st.integers(0, 10**9),
)


def test_deterministic_for_a_seed():
    cfg = GenConfig(4, 5, quota=2, acceptability_prob=0.6, seed=123)
    assert random_market(cfg) == random_market(cfg)


def test_seeds_differ():
    a = random_market(GenConfig(4, 5, quota=2, seed=1))
    b = random_market(GenConfig(4, 5, quota=2, seed=2))
    assert a != b


@settings(max_examples=80, deadline=None)
@given(cfg=configs)
def test_generated_preferences_satisfy_both_axioms(cfg):
    profile = random_market(cfg)
    for agent in profile.agents():
        assert is_substitutable(profile, agent)
        assert satisfies_lad(profile, agent)


@settings(max_examples=60, deadline=None)
@given(cfg=configs)
def test_choice_picks_the_best_individuals_up_to_quota(cfg):
    # The singleton entries, in list order, are the underlying individual
    # ranking; every choice must be its greedy prefix within the pool.
    profile = random_market(cfg)
    for agent in profile.agents():
        ranked = profile.pref(agent).ranked
        order = [e.bit_length() - 1 for e in ranked if e & (e - 1) == 0]
        n = profile.opposite_size(agent.side)
        for pool in range(1 << n):
            best = [x for x in order if pool >> x & 1][: cfg.quota]
            expected = 0
            for x in best:
                expected |= 1 << x
            assert choice(profile, agent, pool) == expected


def test_quota_one_gives_singleton_lists():
    profile = random_market(GenConfig(3, 4, quota=1, acceptability_prob=1.0, seed=5))
    for agent in profile.agents():
        assert all(e & (e - 1) == 0 for e in profile.pref(agent).ranked)


def test_supersets_beat_subsets():
    profile = random_market(GenConfig(2, 5, quota=3, acceptability_prob=1.0, seed=9))
    for pref in profile.firm_prefs:
        position = {e: i for i, e in enumerate(pref.ranked)}
        for e in pref.ranked:
            for smaller in pref.ranked:
                if smaller != e and smaller & e == smaller:
                    assert position[e] < position[smaller]


def test_quota_past_the_pool_changes_nothing():
    # No agent accepts more than 5 partners, so quota 10^4 ranks the same
    # sets in the same order as quota 5.
    assert random_market(GenConfig(4, 5, 10**4, 0.9, 11)) == random_market(GenConfig(4, 5, 5, 0.9, 11))


def test_acceptable_pool_cap():
    # gen draws at most 12 acceptable partners: a list ranks up to 4,095 sets.
    random_market(GenConfig(1, _MAX_PARTNERS, quota=2, acceptability_prob=1.0, seed=0))
    with pytest.raises(CapExceeded, match=r"^f1: 13 acceptable partners exceed gen's limit of 12$"):
        random_market(GenConfig(1, _MAX_PARTNERS + 1, quota=2, acceptability_prob=1.0, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(0, 3)
    with pytest.raises(ValueError):
        GenConfig(3, 3, quota=0)
    with pytest.raises(ValueError):
        GenConfig(3, 3, acceptability_prob=1.5)


def test_no_side_cap():
    profile = random_market(GenConfig(65, 70, acceptability_prob=0.05, seed=1))
    assert (profile.n_firms, profile.n_workers) == (65, 70)
    with pytest.raises(ValueError, match="^side sizes must be at least 1$"):
        GenConfig(0, 3)


def test_cap_error_names_a_worker():
    with pytest.raises(CapExceeded, match=r"^w1: 13 acceptable partners exceed gen's limit of 12$"):
        random_market(GenConfig(_MAX_PARTNERS + 1, 1, acceptability_prob=1.0, seed=0))


def test_names_follow_side_and_index():
    profile = random_market(GenConfig(2, 3, seed=0))
    assert profile.firm_names == ("f1", "f2")
    assert profile.worker_names == ("w1", "w2", "w3")
