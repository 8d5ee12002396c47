"""Matchings, stability reports, the exhaustive-search oracle, and matching comparisons."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    AgentId,
    CapExceeded,
    Profile,
    Side,
    bit_indices,
    blair_geq,
    choice,
    firm,
    transpose,
    worker,
)

_CAP = 10_000_000  # the most candidate matchings the oracle will search


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
        return tuple(transpose(self.assign, self.n_workers))

    def worker_view(self) -> tuple[int, ...]:
        """Per worker, the mask of firms whose assigned set contains it
        (computed once per matching)."""
        return self._worker_view


def _with_worker_view(assign: tuple[int, ...], n_workers: int, view: tuple[int, ...]) -> Matching:
    """`Matching(assign, n_workers)` with its worker view already filled in,
    for a caller that built `view`, which must equal `transpose(assign,
    n_workers)`, on the way. The view is no field, so equality and hashing
    are as for any other matching."""
    m = Matching(assign, n_workers)
    m.__dict__["_worker_view"] = view  # where cached_property would store it
    return m


class StabilityReport(NamedTuple):
    """Every individual and pairwise objection to a matching."""

    irrational_agents: tuple[AgentId, ...]
    blocking_pairs: tuple[tuple[int, int], ...]  # (firm index, worker index)

    @property
    def individually_rational(self) -> bool:
        return not self.irrational_agents

    @property
    def stable(self) -> bool:
        return not self.irrational_agents and not self.blocking_pairs


def _irrational(profile: Profile, agent: AgentId, held: int) -> bool:
    """True when the agent would drop part of what it holds."""
    return choice(profile, agent, held) != held


def _blocking_pairs(
    profile: Profile, assign: Sequence[int], views: Sequence[int], workers: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """Each blocking pair (f, w) for w in `workers`, f ascending: w accepts f,
    f is not in `views[w]`, f would add w to `assign[f]`, and w would add f.
    Only firms that rank w can add it, so only their `assign` entries
    matter."""
    for w in workers:
        theirs, wbit = views[w], 1 << w
        for f in bit_indices(profile.worker_prefs[w].acceptable & ~theirs):
            if not choice(profile, firm(f), assign[f] | wbit) & wbit:
                continue
            if choice(profile, worker(w), theirs | 1 << f) >> f & 1:
                yield f, w


def stability(profile: Profile, m: Matching) -> StabilityReport:
    """Full stability diagnosis of `m` under `profile`: every irrational
    agent, firms before workers, and every blocking pair in (firm, worker)
    order."""
    views = m.worker_view()
    irrational = [firm(f) for f, held in enumerate(m.assign) if _irrational(profile, firm(f), held)]
    irrational += [worker(w) for w, held in enumerate(views) if _irrational(profile, worker(w), held)]
    pairs = _blocking_pairs(profile, m.assign, views, range(profile.n_workers))
    return StabilityReport(tuple(irrational), tuple(sorted(pairs)))


def brute_force_stable_set(profile: Profile) -> list[Matching]:
    """Exact stable set by a search that assumes neither axiom, the oracle the
    algorithms are tested against.

    Each firm that ranks someone is assigned, in index order, the empty set
    or a ranked set it would keep as is; the other firms stay unmatched.
    Once the last firm that ranks a worker has been assigned, the worker's
    match and every firm it could block with are final, so a branch ends at
    the first such worker that objects. Raises CapExceeded when the product
    of the searched firms' list lengths plus one passes a fixed 10,000,000;
    each such firm at least doubles it, so the search is at most 23 firms
    deep (2^24 > 10^7). Returns matchings sorted by their firm-side masks.
    """
    searched = [(f, pref) for f, pref in enumerate(profile.firm_prefs) if pref.ranked]
    levels, later, total = [], 0, 1  # levels: (firm, options, workers it settles)
    for f, pref in reversed(searched):
        total *= len(pref.ranked) + 1
        if total > _CAP:
            raise CapExceeded(f"more than {_CAP} candidate matchings")
        options = [0] + [e for e in pref.ranked if not _irrational(profile, firm(f), e)]
        levels.append((f, options, list(bit_indices(pref.acceptable & ~later))))
        later |= pref.acceptable
    levels.reverse()
    assign, views, out = [0] * profile.n_firms, [0] * profile.n_workers, []

    def extend(depth: int) -> None:
        if depth == len(levels):
            out.append(Matching(tuple(assign), profile.n_workers))
            return
        f, options, settles = levels[depth]
        for e in options:
            assign[f] = e
            for w in bit_indices(e):
                views[w] |= 1 << f
            for w in settles:
                if _irrational(profile, worker(w), views[w]):
                    break
                if any(_blocking_pairs(profile, assign, views, (w,))):
                    break
            else:  # no settled worker objects
                extend(depth + 1)
            for w in bit_indices(e):
                views[w] &= ~(1 << f)

    extend(0)
    return sorted(out, key=lambda m: m.assign)


def unanimous_blair_geq(profile: Profile, m1: Matching, m2: Matching, side: Side) -> bool:
    """True when every agent on `side` Blair-prefers its m1 match to its m2 match."""
    if side is Side.FIRM:
        ids, v1, v2 = firm, m1.assign, m2.assign
    else:
        ids, v1, v2 = worker, m1.worker_view(), m2.worker_view()
    return all(blair_geq(profile, ids(i), v1[i], v2[i]) for i in range(profile.side_size(side)))


def rural_hospitals_holds(matchings: Iterable[Matching]) -> bool:
    """True when every agent has the same number of partners in every matching."""
    counts = {tuple(s.bit_count() for s in (*m.assign, *m.worker_view())) for m in matchings}
    return len(counts) <= 1
