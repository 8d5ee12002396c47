"""Preference cycles over a reduced profile and the matchings they induce.

A cycle is an ordered sequence of (worker, firm) pairs, each matched under the
reduced profile's better matching but not its worse one, where every firm's
best fallback after losing its worker picks up the next pair's worker, and
every worker offered the previous pair's firm drops exactly its own firm.
Those equations give each such pair at most one successor pair, so the cycles
are the loops of one successor map, found by walking it. Cycles generalize the
one-to-one "rotations" of the stable marriage lattice, which are the loops of
the same kind of successor function.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import bit_indices, firm, full_mask, worker
from .matching import Matching
from .reduction import ReducedProfile

Pair = tuple[int, int]  # (worker index, firm index)


@dataclass(frozen=True)
class Cycle:
    """Ordered (worker, firm) pairs, canonicalized up to rotation."""

    pairs: tuple[Pair, ...]

    @staticmethod
    def from_pairs(pairs: tuple[Pair, ...]) -> "Cycle":
        """Rotate so the lexicographically smallest pair comes first."""
        k = pairs.index(min(pairs))
        return Cycle(pairs[k:] + pairs[:k])


def _successors(reduced: ReducedProfile) -> dict[Pair, Pair]:
    """The successor map on v1, the pairs matched under mu but not mu_tilde.

    A v1 pair (w, f) points at (w', f') when f, losing w, picks up exactly
    one new worker w' and keeps the rest of mu(f); and w', offered f on top
    of mu(w'), keeps f and drops exactly one firm f', with (w', f') in v1.
    The defining choice equations pin at most one such successor per pair,
    so the map is a function. It is built in sorted v1 order and leaves out
    a pair with no successor.
    """
    mu, mut = reduced.mu, reduced.mu_tilde
    pool = full_mask(reduced.base.n_workers)
    wv_mu = mu.worker_view()
    wv_mut = mut.worker_view()
    succ: dict[Pair, Pair] = {}
    for w, f in sorted(
        (w, f)
        for f in range(reduced.base.n_firms)
        for w in bit_indices(mu.assign[f] & ~mut.assign[f])
    ):
        kept = mu.assign[f] & ~(1 << w)
        chosen = reduced.choice_reduced(firm(f), pool & ~(1 << w))
        extra = chosen & ~kept
        if chosen & kept != kept or not extra or extra & (extra - 1):
            continue
        w_next = extra.bit_length() - 1
        mine = wv_mu[w_next]
        chosen = reduced.choice_reduced(worker(w_next), mine | (1 << f))
        dropped = mine & ~chosen
        if not chosen >> f & 1 or not dropped or dropped & (dropped - 1):
            continue
        f_next = dropped.bit_length() - 1
        if (mine & ~wv_mut[w_next]) >> f_next & 1:
            succ[(w, f)] = (w_next, f_next)
    return succ


def satisfies_cycle_conditions(reduced: ReducedProfile, pairs: tuple[Pair, ...]) -> bool:
    """Direct verification of the three defining conditions of a cycle."""
    if not pairs or len(set(pairs)) != len(pairs):
        return False
    mu, mut = reduced.mu, reduced.mu_tilde
    pool = full_mask(reduced.base.n_workers)
    wv_mu = mu.worker_view()
    r = len(pairs)
    for i, (w, f) in enumerate(pairs):
        wbit = 1 << w
        if not mu.assign[f] & ~mut.assign[f] & wbit:
            return False
        w_next = pairs[(i + 1) % r][0]
        if reduced.choice_reduced(firm(f), pool & ~wbit) != (mu.assign[f] & ~wbit) | (1 << w_next):
            return False
        f_prev = pairs[(i - 1) % r][1]
        expected = (wv_mu[w] & ~(1 << f)) | (1 << f_prev)
        if reduced.choice_reduced(worker(w), wv_mu[w] | (1 << f_prev)) != expected:
            return False
    return True


def find_cycles(reduced: ReducedProfile) -> list[Cycle]:
    """All cycles of the reduced profile, canonicalized and sorted.

    Each v1 pair has at most one successor, so every pair lies on at most one
    loop of the successor map: walking it with path marking enumerates every
    elementary cycle exactly once. Each candidate is still re-verified against
    the defining conditions before being emitted, as a guard on the map's
    construction. Nonempty exactly when mu differs from mu_tilde.
    """
    succ = _successors(reduced)
    done: set[Pair] = set()
    found: set[Cycle] = set()
    for node in succ:
        seen_at: dict[Pair, int] = {}  # the path walked from this start, in order
        while node is not None and node not in done:
            if node in seen_at:
                pairs = tuple(seen_at)[seen_at[node]:]
                if satisfies_cycle_conditions(reduced, pairs):
                    found.add(Cycle.from_pairs(pairs))
                break
            seen_at[node] = len(seen_at)
            node = succ.get(node)
        done.update(seen_at)
    return sorted(found, key=lambda c: c.pairs)


def cyclic_matching(mu: Matching, cycle: Cycle) -> Matching:
    """Execute the swaps a cycle prescribes on `mu`.

    Each firm in the cycle drops the workers paired with it and picks up the
    successors of those pairs; everyone else keeps their match. A degenerate
    one-pair cycle swaps a worker for itself and returns `mu` unchanged (such
    input never passes cycle verification).
    """
    removes: dict[int, int] = defaultdict(int)
    adds: dict[int, int] = defaultdict(int)
    r = len(cycle.pairs)
    for i, (w, f) in enumerate(cycle.pairs):
        removes[f] |= 1 << w
        adds[f] |= 1 << cycle.pairs[(i + 1) % r][0]
    assign = list(mu.assign)
    for f, mask in removes.items():
        assign[f] = (assign[f] & ~mask) | adds[f]
    return Matching(tuple(assign), mu.n_workers)
