"""Shared builders, the two worked example markets and an oracle-free lattice check."""

from __future__ import annotations

import itertools
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

import golden
from manymatch import (
    GenConfig,
    Matching,
    Preference,
    Profile,
    Side,
    bit_indices,
    brute_force_stable_set,
    choice,
    deferred_acceptance,
    firm,
    mask_of,
    random_market,
    rural_hospitals_holds,
    stability,
    unanimous_blair_geq,
    worker,
)

MARKETS_DIR = Path(__file__).resolve().parent.parent / "markets"

# The most digits an integer read from text may have, or 0 where there is no limit.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

_TOKEN = re.compile(r"[fw](\d+)")


def entries(row: str) -> tuple[int, ...]:
    """Parse the compact row form: 'w1w2,w3' -> (0b011, 0b100); '' -> ()."""
    if not row:
        return ()
    out = []
    for part in row.split(","):
        mask = 0
        for digits in _TOKEN.findall(part):
            mask |= 1 << (int(digits) - 1)
        out.append(mask)
    return tuple(out)


def build_profile(firm_rows: list[str], worker_rows: list[str]) -> Profile:
    return Profile(
        len(firm_rows),
        len(worker_rows),
        tuple(Preference(firm(i), entries(r)) for i, r in enumerate(firm_rows)),
        tuple(Preference(worker(i), entries(r)) for i, r in enumerate(worker_rows)),
    )


def _ranked_lists(width: int):
    if not width:
        return st.just(())
    return st.lists(st.integers(1, (1 << width) - 1), unique=True, max_size=(1 << width) - 1).map(tuple)


@st.composite
def small_markets(draw, max_side: int = 3) -> Profile:
    """Up to max_side x max_side, each agent ranking any distinct nonempty
    sets in any order."""
    n_firms, n_workers = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    return Profile(
        n_firms,
        n_workers,
        tuple(Preference(firm(f), draw(_ranked_lists(n_workers))) for f in range(n_firms)),
        tuple(Preference(worker(w), draw(_ranked_lists(n_firms))) for w in range(n_workers)),
    )


def gen_markets(max_workers: int, probs: list[float]):
    """`gen` markets of 2-4 firms, 2 to max_workers workers, quota 1 or 2 and
    an acceptability probability drawn from `probs`."""
    return st.builds(
        lambda nf, nw, q, prob, seed: random_market(GenConfig(nf, nw, q, prob, seed)),
        st.integers(2, 4),
        st.integers(2, max_workers),
        st.integers(1, 2),
        st.sampled_from(probs),
        st.integers(0, 100_000),
    )


def build_matching(firm_rows: list[str], n_workers: int) -> Matching:
    masks = []
    for row in firm_rows:
        ranked = entries(row)
        masks.append(ranked[0] if ranked else 0)
    return Matching(tuple(masks), n_workers)


def compact_rows(profile: Profile) -> dict[str, str]:
    """Inverse of the compact form, keyed by agent name, for golden compares."""
    out = {}
    for names, prefs, partner_names in (
        (profile.firm_names, profile.firm_prefs, profile.worker_names),
        (profile.worker_names, profile.worker_prefs, profile.firm_names),
    ):
        for name, pref in zip(names, prefs):
            out[name] = ",".join(
                "".join(partner_names[i] for i in bit_indices(e)) for e in pref.ranked
            )
    return out


def wide_block_market(seed: int, n_blocks: int = 4, size: int = 3, quota: int = 2, pad: int = 0):
    """Disjoint size x size blocks embedded in one market under shuffled
    indices, so each agent accepts only the few partners of its own block.
    `pad` more agents per side rank nobody and are shuffled in with the rest;
    they stay unmatched, so they leave the stable set as it is.

    Blocks are responsive (the given quota, every partner of the block
    acceptable) and kept only when the oracle finds at least 2 stable
    matchings. The union's stable set is the product of the blocks' sets; it
    is returned as sorted firm-side assignment tuples.
    """
    rng = random.Random(seed)
    blocks = []
    while len(blocks) < n_blocks:
        block = random_market(GenConfig(size, size, quota, 1.0, rng.randrange(1 << 31)))
        stable = brute_force_stable_set(block)
        if len(stable) >= 2:
            blocks.append((block, stable))
    n = size * n_blocks + pad
    fperm, wperm = list(range(n)), list(range(n))
    rng.shuffle(fperm)
    rng.shuffle(wperm)

    def remap(mask: int, offset: int, perm: list[int]) -> int:
        return mask_of(perm[offset + i] for i in bit_indices(mask))

    firm_ranked: list[tuple[int, ...]] = [()] * n
    worker_ranked: list[tuple[int, ...]] = [()] * n
    block_sets = []  # per block: its stable matchings as {firm: worker mask}
    for b, (block, stable) in enumerate(blocks):
        o = b * size
        for i, pref in enumerate(block.firm_prefs):
            firm_ranked[fperm[o + i]] = tuple(remap(e, o, wperm) for e in pref.ranked)
        for i, pref in enumerate(block.worker_prefs):
            worker_ranked[wperm[o + i]] = tuple(remap(e, o, fperm) for e in pref.ranked)
        block_sets.append(
            [{fperm[o + i]: remap(ws, o, wperm) for i, ws in enumerate(m.assign)} for m in stable]
        )
    profile = Profile(
        n,
        n,
        tuple(Preference(firm(i), r) for i, r in enumerate(firm_ranked)),
        tuple(Preference(worker(i), r) for i, r in enumerate(worker_ranked)),
    )
    expected = []
    for combo in itertools.product(*block_sets):
        assign = [0] * n
        for part in combo:
            for f, ws in part.items():
                assign[f] = ws
        expected.append(tuple(assign))
    return profile, sorted(expected)


def firm_join(profile: Profile, a: Matching, b: Matching) -> Matching:
    """The firm-preferred join: each firm chooses from the union of its two matches."""
    return Matching(
        tuple(choice(profile, firm(f), x | y) for f, (x, y) in enumerate(zip(a.assign, b.assign))),
        profile.n_workers,
    )


def worker_meet(profile: Profile, a: Matching, b: Matching) -> Matching:
    """The worker-preferred meet: each worker chooses from the union of its
    two matches, read back as each firm's worker set."""
    va, vb = a.worker_view(), b.worker_view()
    assign = [0] * profile.n_firms
    for w in range(profile.n_workers):
        for f in bit_indices(choice(profile, worker(w), va[w] | vb[w])):
            assign[f] |= 1 << w
    return Matching(tuple(assign), profile.n_workers)


def check_lattice(profile: Profile, matchings, max_pairs: int = 2000, seed: int = 0) -> None:
    """Assert that `matchings` looks like the whole stable set, without an oracle.

    Under substitutability and LAD the stable set is a distributive lattice
    whose join and meet are computed agent by agent (Alkan 2002). So every
    element must be stable, the two deferred-acceptance optima must be in it
    and bound it in both sides' Blair orders, it must be closed under
    `firm_join` and `worker_meet`, and every agent must keep one partner
    count throughout (rural hospitals). Closure is tested on every pair when
    there are at most `max_pairs`, else on `max_pairs` seeded random pairs.

    This catches unstable and spurious matchings and a missing one that is
    the join or meet of two present ones. It cannot see a missing matching
    that is neither (join- and meet-irreducible), so it complements the
    oracle and never replaces it.
    """
    ms = list(matchings)
    have = {m.assign for m in ms}
    assert len(have) == len(ms), "a matching is listed twice"
    for m in ms:
        assert stability(profile, m).stable, f"unstable: {m.assign}"
    mu_f = deferred_acceptance(profile, Side.FIRM)[0]
    mu_w = deferred_acceptance(profile, Side.WORKER)[0]
    assert mu_f.assign in have and mu_w.assign in have, "a one-side optimum is missing"
    for m in ms:
        assert unanimous_blair_geq(profile, mu_f, m, Side.FIRM), f"above mu_F: {m.assign}"
        assert unanimous_blair_geq(profile, m, mu_w, Side.FIRM), f"below mu_W: {m.assign}"
        assert unanimous_blair_geq(profile, mu_w, m, Side.WORKER), f"above mu_W: {m.assign}"
        assert unanimous_blair_geq(profile, m, mu_f, Side.WORKER), f"below mu_F: {m.assign}"
    n = len(ms)
    if n * (n - 1) // 2 <= max_pairs:
        pairs = itertools.combinations(ms, 2)
    else:
        rng = random.Random(seed)
        pairs = (rng.sample(ms, 2) for _ in range(max_pairs))
    for a, b in pairs:
        assert firm_join(profile, a, b).assign in have, f"join missing: {a.assign} {b.assign}"
        assert worker_meet(profile, a, b).assign in have, f"meet missing: {a.assign} {b.assign}"
    assert rural_hospitals_holds(ms), "partner counts differ between matchings"


@dataclass(frozen=True)
class Example:
    profile: Profile
    mu_f: Matching
    mu_w: Matching
    others: dict


@pytest.fixture(scope="session")
def ex1() -> Example:
    profile = build_profile(golden.EX1_FIRM_ROWS, golden.EX1_WORKER_ROWS)
    return Example(
        profile,
        build_matching(golden.EX1_MU_F, 6),
        build_matching(golden.EX1_MU_W, 6),
        {
            "sigma1": build_matching(golden.EX1_SIGMA1_MATCHING, 6),
            "sigma2": build_matching(golden.EX1_SIGMA2_MATCHING, 6),
        },
    )


@pytest.fixture(scope="session")
def ex2() -> Example:
    profile = build_profile(golden.EX2_FIRM_ROWS, golden.EX2_WORKER_ROWS)
    return Example(
        profile,
        build_matching(golden.EX2_MU_F, 4),
        build_matching(golden.EX2_MU_W, 4),
        {"mu": build_matching(golden.EX2_MU, 4)},
    )
