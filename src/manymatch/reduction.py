"""Reduction of a profile between two comparable stable matchings.

The reduced profile keeps, for each agent, exactly the ranked sets compatible
with the band between the agent's two assigned sets; everything outside is
deleted by banning individual partners and dropping every set that contains a
banned partner. A per-agent banned mask therefore characterizes the whole
reduction: a reduced choice is a base choice from the pool minus the banned
partners, so every reduction shares the base profile's cached choices. The
reductions also share each list's step-1/2 bans: those depend on the list and
the agent's two assigned sets only, so they are memoized on the base
`Preference` and reused by every later reduction in which that agent's pair
of sets recurs. The reduced lists themselves are built only on demand, one
mask filter per ranked list.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import _FIRM, AgentId, Profile, Side, bit_indices, choice, firm, full_mask, transpose, worker
from .da import deferred_acceptance
from .matching import Matching, StabilityReport, stability, unanimous_blair_geq


class NotStable(ValueError):
    """A matching handed to the reduction is not stable under the base profile."""


class NotComparable(ValueError):
    """The two matchings are not unanimously Blair-comparable for the firms."""


class ReducedProfile(NamedTuple):
    """Base profile plus the per-agent banned partners.

    For every agent a and pool S, choosing under the reduced lists equals
    choosing under `base` from S minus a's banned partners (the reduction is
    a composition of single-partner truncations); `choice_reduced` evaluates
    it that way. The reduced lists are built as `materialized` on each read.
    """

    base: Profile
    mu: Matching
    mu_tilde: Matching
    banned_firm: tuple[int, ...]  # per firm: mask of banned workers
    banned_worker: tuple[int, ...]  # per worker: mask of banned firms

    def choice_reduced(self, agent: AgentId, available: int) -> int:
        masks = self.banned_firm if agent.side is _FIRM else self.banned_worker
        return choice(self.base, agent, available & ~masks[agent.index])

    @property
    def materialized(self) -> Profile:
        """The reduced lists as a standalone profile, built on each read."""
        base = self.base
        return Profile(
            base.n_firms,
            base.n_workers,
            tuple(p.without(b) for p, b in zip(base.firm_prefs, self.banned_firm)),
            tuple(p.without(b) for p, b in zip(base.worker_prefs, self.banned_worker)),
            base.firm_names,
            base.worker_names,
        )


def _step12_banned(profile: Profile, agent: AgentId, top: int, bot: int) -> int:
    """Partners banned by the first two deletion steps, as single-partner tests.

    A stranger is banned when the agent would grab it alongside its better
    assigned set `top` (it sits in some set Blair-above top), or when the
    agent rejects it alongside its worse assigned set `bot` (every set holding
    it is Blair-below bot). The single-addition tests are equivalent to
    quantifying over all witness sets: any witness yields the single-addition
    fact by substitutability, and choice(top | {b}) resp. bot | {b} are
    themselves witnesses.

    Both assigned sets must be individually rational (the caller has checked
    stability). Then a partner outside every ranked set is always banned by
    the second test, since choice(bot | {b}) = choice(bot) = bot, so only
    acceptable partners are tested. Those bans depend on the list, top and
    bot alone, so they are memoized on the list; the rest depends on the
    profile's side size and is recomputed per call.
    """
    pref = profile.pref(agent)
    acceptable = pref.acceptable
    within = pref._band_cache.get((top, bot))
    if within is None:
        within = 0
        for b in bit_indices(acceptable):
            bit = 1 << b
            if not top & bit and choice(profile, agent, top | bit) & bit:
                within |= bit
            elif not bot & bit and choice(profile, agent, bot | bit) == bot:
                within |= bit
        pref._band_cache[(top, bot)] = within
    return within | (full_mask(profile.opposite_size(agent.side)) & ~acceptable)


def _describe(profile: Profile, report: StabilityReport) -> str:
    """The report's objections in the market's agent names."""
    parts = []
    if report.irrational_agents:
        parts.append("irrational " + ", ".join(profile.name(a) for a in report.irrational_agents))
    if report.blocking_pairs:
        pairs = (f"({profile.firm_names[f]},{profile.worker_names[w]})" for f, w in report.blocking_pairs)
        parts.append("blocking " + ", ".join(pairs))
    return "; ".join(parts)


def reduce_profile(profile: Profile, mu: Matching, mu_tilde: Matching) -> ReducedProfile:
    """Reduce `profile` to the band between stable matchings mu >=_F mu_tilde.

    Firms keep the sets between mu(f) (their better end) and mu_tilde(f);
    workers symmetrically between mu_tilde(w) and mu(w). A final pass restores
    mutual acceptability: whenever the singleton {w} did not survive on f's
    list, w's list drops every set containing f, and symmetrically. That pass
    is evaluated against the post-step-2 lists and needs no cascade, since it
    only ever removes singletons of the pair being processed.

    Rejects non-stable or non-comparable inputs: the enumeration machinery
    built on top silently depends on both hypotheses.
    """
    for name, m in (("mu", mu), ("mu_tilde", mu_tilde)):
        report = stability(profile, m)
        if not report.stable:
            raise NotStable(f"{name} is not stable: {_describe(profile, report)}")
    if not unanimous_blair_geq(profile, mu, mu_tilde, Side.FIRM):
        raise NotComparable("mu does not unanimously Blair-dominate mu_tilde for the firms")

    wv_mu = mu.worker_view()
    wv_mut = mu_tilde.worker_view()
    banned_f = [
        _step12_banned(profile, firm(f), top=mu.assign[f], bot=mu_tilde.assign[f])
        for f in range(profile.n_firms)
    ]
    banned_w = [
        _step12_banned(profile, worker(w), top=wv_mut[w], bot=wv_mu[w])
        for w in range(profile.n_workers)
    ]

    # Mutual-acceptability pass over the post-step-2 singleton survivors:
    # f bans every worker whose surviving singletons lack f, and vice versa.
    # The columns of each side's survivors are collected from the sparse rows.
    alive_by_w = transpose(  # per firm: workers whose singleton {f} survived
        [p.singletons & ~b for p, b in zip(profile.worker_prefs, banned_w)], profile.n_firms
    )
    alive_by_f = transpose(  # per worker: firms whose singleton {w} survived
        [p.singletons & ~b for p, b in zip(profile.firm_prefs, banned_f)], profile.n_workers
    )
    all_w = full_mask(profile.n_workers)
    all_f = full_mask(profile.n_firms)
    banned_f = [b | (all_w & ~alive_by_w[f]) for f, b in enumerate(banned_f)]
    banned_w = [b | (all_f & ~alive_by_f[w]) for w, b in enumerate(banned_w)]
    return ReducedProfile(profile, mu, mu_tilde, tuple(banned_f), tuple(banned_w))


def reduce_to_worker_optimal(profile: Profile, mu: Matching) -> ReducedProfile:
    """Reduce between `mu` and the worker-optimal stable matching."""
    mu_w, _ = deferred_acceptance(profile, Side.WORKER)
    return reduce_profile(profile, mu, mu_w)
