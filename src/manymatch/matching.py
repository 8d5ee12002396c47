"""Matchings, stability reports, the brute-force oracle, and matching comparisons."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .core import (
    AgentId,
    CapExceeded,
    Profile,
    Side,
    bit_indices,
    blair_geq,
    choice,
    firm,
    worker,
)


@dataclass(frozen=True)
class Matching:
    """Worker set assigned to each firm; the worker side is derived.

    Deriving the worker view enforces "w matched to f iff f matched to w" by
    construction, and makes the firm-side tuple the canonical identity of a
    matching.
    """

    assign: tuple[int, ...]
    n_workers: int

    @cached_property
    def _worker_view(self) -> tuple[int, ...]:
        firms_of = [0] * self.n_workers
        for f, ws in enumerate(self.assign):
            for w in bit_indices(ws):
                firms_of[w] |= 1 << f
        return tuple(firms_of)

    def worker_view(self) -> tuple[int, ...]:
        """Per worker, the mask of firms whose assigned set contains it
        (computed once per matching)."""
        return self._worker_view

    def agent_mask(self, agent: AgentId) -> int:
        if agent.side is Side.FIRM:
            return self.assign[agent.index]
        return self.worker_view()[agent.index]


@dataclass(frozen=True)
class StabilityReport:
    """Every individual and pairwise objection to a matching."""

    irrational_agents: tuple[AgentId, ...]
    blocking_pairs: tuple[tuple[int, int], ...]  # (firm index, worker index)

    @property
    def individually_rational(self) -> bool:
        return not self.irrational_agents

    @property
    def stable(self) -> bool:
        return not self.irrational_agents and not self.blocking_pairs


def stability(profile: Profile, m: Matching) -> StabilityReport:
    """Full stability diagnosis of `m` under `profile`.

    An agent is irrational when it would drop part of its own match. A pair
    (f, w) blocks when w is not matched to f, f would take w alongside its
    match, and w would take f alongside its match. Exhaustive, deterministic
    ordering: firms before workers, pairs by (firm, worker). A firm never
    takes a worker outside its ranked sets, so the pair scan visits only the
    workers each firm finds acceptable.
    """
    irrational: list[AgentId] = []
    for f in range(profile.n_firms):
        if choice(profile, firm(f), m.assign[f]) != m.assign[f]:
            irrational.append(firm(f))
    views = m.worker_view()
    for w in range(profile.n_workers):
        if choice(profile, worker(w), views[w]) != views[w]:
            irrational.append(worker(w))

    blocking: list[tuple[int, int]] = []
    for f in range(profile.n_firms):
        mine = m.assign[f]
        for w in bit_indices(profile.firm_prefs[f].acceptable & ~mine):
            wbit = 1 << w
            if not choice(profile, firm(f), mine | wbit) & wbit:
                continue
            if choice(profile, worker(w), views[w] | (1 << f)) >> f & 1:
                blocking.append((f, w))
    return StabilityReport(tuple(irrational), tuple(blocking))


def _is_stable_assign(profile: Profile, assign: Sequence[int]) -> bool:
    """Early-exit stability test for candidates whose firm side is already
    known individually rational."""
    views = [0] * profile.n_workers
    for f, ws in enumerate(assign):
        for w in bit_indices(ws):
            views[w] |= 1 << f
    for w in range(profile.n_workers):
        if choice(profile, worker(w), views[w]) != views[w]:
            return False
    for f in range(profile.n_firms):
        mine = assign[f]
        for w in range(profile.n_workers):
            wbit = 1 << w
            if mine & wbit:
                continue
            if not choice(profile, firm(f), mine | wbit) & wbit:
                continue
            if choice(profile, worker(w), views[w] | (1 << f)) >> f & 1:
                return False
    return True


def brute_force_stable_set(profile: Profile, cap: int = 10_000_000) -> list[Matching]:
    """Exact stable set by enumeration, the oracle the algorithms are tested
    against.

    Each firm ranges over its acceptable sets plus the empty set; any stable
    matching is individually rational, so restricting further to the sets the
    firm would keep as-is prunes without losing anything. Returns matchings
    sorted by their firm-side masks.
    """
    total = 1
    for pref in profile.firm_prefs:
        total *= len(pref.ranked) + 1
        if total > cap:
            raise CapExceeded(f"more than {cap} candidate matchings")
    options = []
    for f in range(profile.n_firms):
        fixed = [e for e in profile.firm_prefs[f].ranked if choice(profile, firm(f), e) == e]
        options.append([0] + fixed)
    out = []
    for combo in itertools.product(*options):
        if _is_stable_assign(profile, combo):
            out.append(Matching(combo, profile.n_workers))
    out.sort(key=lambda m: m.assign)
    return out


def unanimous_blair_geq(profile: Profile, m1: Matching, m2: Matching, side: Side) -> bool:
    """True when every agent on `side` Blair-prefers its m1 match to its m2 match."""
    if side is Side.FIRM:
        return all(
            blair_geq(profile, firm(f), m1.assign[f], m2.assign[f])
            for f in range(profile.n_firms)
        )
    v1, v2 = m1.worker_view(), m2.worker_view()
    return all(
        blair_geq(profile, worker(w), v1[w], v2[w]) for w in range(profile.n_workers)
    )


def rural_hospitals_holds(matchings: Iterable[Matching]) -> bool:
    """True when every agent has the same number of partners in every matching."""
    ms = list(matchings)
    if len(ms) <= 1:
        return True
    first = ms[0]
    firm_counts = [w.bit_count() for w in first.assign]
    worker_counts = [fs.bit_count() for fs in first.worker_view()]
    for m in ms[1:]:
        if [w.bit_count() for w in m.assign] != firm_counts:
            return False
        if [fs.bit_count() for fs in m.worker_view()] != worker_counts:
            return False
    return True
