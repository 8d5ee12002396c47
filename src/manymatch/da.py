"""Many-to-many deferred acceptance for substitutable set preferences."""

from __future__ import annotations

from typing import NamedTuple

from .core import Profile, Side, bit_indices, choice, firm, full_mask, transpose, worker
from .matching import Matching


class NonTermination(Exception):
    """Defensive round guard tripped; cannot happen for any input, since a
    run ends within one round per (proposer, receiver) pair plus one."""


class DARound(NamedTuple):
    """One simultaneous round: who proposed to whom, who is now held, who got cut.

    `proposals[p]` is the receiver mask proposer p offered to this round,
    `held[r]` the proposer mask receiver r keeps at the end of the round, and
    `rejections` the (proposer, receiver) pairs cut this round.
    """

    proposals: tuple[int, ...]
    held: tuple[int, ...]
    rejections: tuple[tuple[int, int], ...]


class DATrace(NamedTuple):
    proposing: Side
    rounds: tuple[DARound, ...]


def deferred_acceptance(
    profile: Profile, proposing: Side, bans: tuple[int, ...] | None = None
) -> tuple[Matching, DATrace]:
    """Batch deferred acceptance; returns the proposing side's optimal stable
    matching (for substitutable preferences).

    Each proposer keeps a permanent rejection set and offers to its choice of
    the not-yet-rejecting receivers; each receiver keeps its choice of the
    offers on the table plus whatever it already held, cutting the rest.
    Proposing is simultaneous each round, so the outcome is order-independent.
    Stops at the first round without a rejection.

    `bans`, one receiver mask per proposer, seeds the rejection sets. A
    proposer's choice then only ever sees pools without its banned receivers,
    which is choosing under its list truncated at each of them, so the run,
    trace included, is DA on that truncated profile while every choice reads
    the base lists and their caches.
    """
    receiving = proposing.opposite
    n_prop = profile.side_size(proposing)
    n_recv = profile.side_size(receiving)
    pool = full_mask(n_recv)
    if bans is None:
        bans = (0,) * n_prop
    elif len(bans) != n_prop:
        raise ValueError(f"{len(bans)} ban masks for {n_prop} proposers")
    proposer_id, receiver_id = (firm, worker) if proposing is Side.FIRM else (worker, firm)
    proposers = [proposer_id(p) for p in range(n_prop)]  # ids built once per run
    receivers = [receiver_id(r) for r in range(n_recv)]
    rejected_by = list(bans)  # receiver masks that cut (or ban) each proposer
    held = [0] * n_recv  # proposer masks currently held
    rounds: list[DARound] = []
    # Each (proposer, receiver) pair is cut at most once, and every round but
    # the last cuts one, so no input needs more than limit + 1 rounds.
    limit = n_prop * n_recv

    while True:
        if len(rounds) > limit:
            raise NonTermination(f"no fixed point after {limit} rounds")
        proposals = tuple(
            choice(profile, agent, pool & ~cut) for agent, cut in zip(proposers, rejected_by)
        )
        offers = transpose(proposals, n_recv)
        rejections: list[tuple[int, int]] = []
        for r in range(n_recv):
            table = offers[r] | held[r]
            keep = choice(profile, receivers[r], table)
            held[r] = keep
            for p in bit_indices(table & ~keep):
                rejections.append((p, r))
                rejected_by[p] |= 1 << r
        rejections.sort()
        rounds.append(DARound(proposals, tuple(held), tuple(rejections)))
        if not rejections:
            break

    if proposing is Side.FIRM:
        assign = rounds[-1].proposals
    else:
        assign = rounds[-1].held  # each firm holds a worker mask
    return Matching(tuple(assign), profile.n_workers), DATrace(proposing, tuple(rounds))
