"""Random market generation with both axioms guaranteed by construction.

Arbitrary random ranked lists are almost never substitutable, so agents draw
responsive preferences instead: a random pool of individually acceptable
partners, a strict ranking of that pool, and as ranked sets every nonempty
subset of the pool up to the quota, ordered by comparing sorted rank vectors
(padded with a worse-than-anything sentinel, so bigger sets beat their own
subsets). The choice from any pool is then the best min(quota, available)
acceptable individuals, which is substitutable and satisfies the law of
aggregate demand.

Determinism: one random.Random(seed), consumed in a fixed order (firms then
workers by index; per agent, one random() call per opposite agent for the
pool, then a random()-driven Fisher-Yates shuffle of the pool). Only
rng.random() is used, the one generator method whose output sequence is
guaranteed stable across Python versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import AgentId, CapExceeded, Preference, Profile, firm, mask_of, worker

_MAX_PARTNERS = 12  # a list at quota q ranks up to 2^12 - 1 = 4,095 sets


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; one quota bound shared by every agent."""

    n_firms: int
    n_workers: int
    quota: int = 1
    acceptability_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_firms < 1 or self.n_workers < 1:
            raise ValueError("side sizes must be at least 1")
        if self.quota < 1:
            raise ValueError("quota must be at least 1")
        if not 0.0 <= self.acceptability_prob <= 1.0:
            raise ValueError("acceptability_prob must lie in [0, 1]")


def random_market(cfg: GenConfig) -> Profile:
    """Draw a market; identical configs give identical profiles."""
    rng = random.Random(cfg.seed)
    firm_prefs = tuple(
        _draw_preference(rng, firm(i), cfg.n_workers, cfg.quota, cfg.acceptability_prob)
        for i in range(cfg.n_firms)
    )
    worker_prefs = tuple(
        _draw_preference(rng, worker(i), cfg.n_firms, cfg.quota, cfg.acceptability_prob)
        for i in range(cfg.n_workers)
    )
    return Profile(cfg.n_firms, cfg.n_workers, firm_prefs, worker_prefs)


def _draw_preference(
    rng: random.Random, owner: AgentId, n_opposite: int, quota: int, prob: float
) -> Preference:
    pool = [i for i in range(n_opposite) if rng.random() < prob]
    if len(pool) > _MAX_PARTNERS:  # named as the market names it by default: f1, w1, ...
        name = f"{owner.side.value[0]}{owner.index + 1}"
        raise CapExceeded(f"{name}: {len(pool)} acceptable partners exceed gen's limit of {_MAX_PARTNERS}")
    _shuffle(rng, pool)  # pool[r] is the individual of rank r; 0 is the best
    # A subset is a tuple of ascending ranks. Padding it with a rank worse than
    # any real one ranks each set above its own subsets.
    pad = (n_opposite,) * min(quota, len(pool))
    subsets = [s for size in range(1, len(pad) + 1) for s in combinations(range(len(pool)), size)]
    subsets.sort(key=lambda ranks: ranks + pad[len(ranks):])
    return Preference(owner, tuple(mask_of(pool[r] for r in s) for s in subsets))


def _shuffle(rng: random.Random, xs: list) -> None:
    """Fisher-Yates driven by rng.random() only."""
    for i in range(len(xs) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        if j > i:
            j = i
        xs[i], xs[j] = xs[j], xs[i]
