"""Many-to-many deferred acceptance for substitutable set preferences."""

from __future__ import annotations

from typing import NamedTuple

from .core import Profile, Side, bit_indices, choice, firm, full_mask, worker
from .matching import Matching, _with_worker_view


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

    Only agents whose situation changed choose again. Round 1 moves every
    proposer; later rounds move only the proposers cut in the round before,
    since a proposer's options change only when it is cut. Then only the
    receivers that gained an offer choose, in ascending index. A receiver
    that only lost offers keeps what it holds, H = C(T): its new table T'
    holds H (a voluntary leaver stays in H) and lies inside T (a cut proposer
    has left its offers), and under a first-fit ranked list any set ranked
    above H that fits T' would fit T, so C(T') = H and it cuts no one. The
    rounds are therefore those of re-choosing everyone, on every input,
    substitutable or not.

    `bans`, one receiver mask per proposer, seeds the rejection sets. A
    proposer's choice then only ever sees pools without its banned receivers,
    which is choosing under its list truncated at each of them, so the run,
    trace included, is DA on that truncated profile while every choice reads
    the base lists and their caches.
    """
    n_prop = profile.side_size(proposing)
    n_recv = profile.opposite_size(proposing)
    pool = full_mask(n_recv)
    if bans is None:
        bans = (0,) * n_prop
    elif len(bans) != n_prop:
        raise ValueError(f"{len(bans)} ban masks for {n_prop} proposers")
    proposer_id, receiver_id = (firm, worker) if proposing is Side.FIRM else (worker, firm)
    rejected_by = list(bans)  # receiver masks that cut (or ban) each proposer
    proposals = [0] * n_prop  # receiver mask each proposer currently offers to
    offers = [0] * n_recv  # proposer masks currently offering: transpose(proposals)
    held = [0] * n_recv  # proposer masks currently held
    rounds: list[DARound] = []
    # Each (proposer, receiver) pair is cut at most once, and every round but
    # the last cuts one, so no input needs more than limit + 1 rounds.
    limit = n_prop * n_recv
    movers = range(n_prop)  # round 1 moves every proposer

    while True:
        if len(rounds) > limit:
            raise NonTermination(f"no fixed point after {limit} rounds")
        gained = 0  # receivers with an offer they did not have last round
        for p in movers:
            old = proposals[p]
            new = proposals[p] = choice(profile, proposer_id(p), pool & ~rejected_by[p])
            bit = 1 << p
            for r in bit_indices(old ^ new):  # p's bit flips where its offer changed
                offers[r] ^= bit
            gained |= new & ~old
        rejections: list[tuple[int, int]] = []
        for r in bit_indices(gained):
            table = offers[r] | held[r]
            keep = held[r] = choice(profile, receiver_id(r), table)
            for p in bit_indices(table & ~keep):
                rejections.append((p, r))
                rejected_by[p] |= 1 << r
        rejections.sort()
        rounds.append(DARound(tuple(proposals), tuple(held), tuple(rejections)))
        if not rejections:
            break
        movers = {p for p, _ in rejections}

    trace = DATrace(proposing, tuple(rounds))
    if proposing is Side.FIRM:  # the offers each worker has are its side of the match
        return _with_worker_view(rounds[-1].proposals, n_recv, tuple(offers)), trace
    return Matching(rounds[-1].held, profile.n_workers), trace  # each firm holds a worker mask
