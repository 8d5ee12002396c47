"""Preference cycles over a reduced profile and the matchings they induce.

A cycle is an ordered sequence of (worker, firm) pairs, each matched under the
reduced profile's better matching but not its worse one, where every firm's
best fallback after losing its worker picks up the next pair's worker, and
every worker offered the previous pair's firm drops exactly its own firm.
Cycles generalize the one-to-one "rotations" of the stable marriage lattice.
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


@dataclass(frozen=True)
class Digraph:
    """Bipartite pointer graph whose directed cycles are exactly the cycles.

    v1 holds the (worker, firm) pairs matched under mu but not mu_tilde; v2
    holds every remaining (firm, worker) pair. The defining choice equations
    pin at most one successor per node, so both arc maps are functional.
    """

    v1: tuple[Pair, ...]
    v2: tuple[Pair, ...]
    arcs_12: dict[Pair, Pair]  # (w, f) -> (f, w')
    arcs_21: dict[Pair, Pair]  # (f, w) -> (w, f')


def build_digraph(reduced: ReducedProfile) -> Digraph:
    mu, mut = reduced.mu, reduced.mu_tilde
    nf = reduced.base.n_firms
    nw = reduced.base.n_workers
    pool = full_mask(nw)
    wv_mu = mu.worker_view()
    wv_mut = mut.worker_view()

    v1 = sorted(
        (w, f) for f in range(nf) for w in bit_indices(mu.assign[f] & ~mut.assign[f])
    )
    v1_set = set(v1)
    v2 = tuple(
        (f, w) for f in range(nf) for w in bit_indices(pool & ~(mu.assign[f] & ~mut.assign[f]))
    )

    arcs_12: dict[Pair, Pair] = {}
    for w, f in v1:
        kept = mu.assign[f] & ~(1 << w)
        chosen = reduced.choice_reduced(firm(f), pool & ~(1 << w))
        extra = chosen & ~kept
        if chosen & kept == kept and extra and not extra & (extra - 1):
            arcs_12[(w, f)] = (f, extra.bit_length() - 1)

    # A worker only takes a firm it still accepts after the reduction, so
    # only those v2 nodes (f, w) are tried; the rest have no arc.
    arcs_21: dict[Pair, Pair] = {}
    for w in range(nw):
        mine = wv_mu[w]
        accepted = reduced.base.worker_prefs[w].acceptable & ~reduced.banned_worker[w]
        for f in bit_indices(accepted & ~(mine & ~wv_mut[w])):
            chosen = reduced.choice_reduced(worker(w), mine | (1 << f))
            dropped = mine & ~chosen
            if chosen >> f & 1 and dropped and not dropped & (dropped - 1):
                target = (w, dropped.bit_length() - 1)
                if target in v1_set:
                    arcs_21[(f, w)] = target

    return Digraph(tuple(v1), v2, arcs_12, arcs_21)


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

    Both arc maps of the digraph are functional, so every node lies on at most
    one loop: walking successor pointers with path marking enumerates every
    elementary cycle exactly once. Each candidate is still re-verified against
    the defining conditions before being emitted, as a guard on the digraph
    construction. Nonempty exactly when mu differs from mu_tilde.
    """
    g = build_digraph(reduced)
    done: set[Pair] = set()
    found: set[Cycle] = set()
    for start in g.v1:
        if start in done:
            continue
        path: list[Pair] = []
        seen_at: dict[Pair, int] = {}
        node = start
        while True:
            if node in done:
                break
            if node in seen_at:
                pairs = tuple(path[seen_at[node]:])
                if satisfies_cycle_conditions(reduced, pairs):
                    found.add(Cycle.from_pairs(pairs))
                break
            seen_at[node] = len(path)
            path.append(node)
            mid = g.arcs_12.get(node)
            if mid is None:
                break
            nxt = g.arcs_21.get(mid)
            if nxt is None:
                break
            node = nxt
        done.update(path)
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
