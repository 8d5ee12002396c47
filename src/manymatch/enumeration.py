"""Full stable-set enumeration via cycles, plus the truncation-based
comparison algorithm it supersedes.

The cycle algorithm computes both one-side-optimal matchings by deferred
acceptance and then walks the Blair lattice downward: every not-yet-expanded
stable matching is reduced against the worker optimum, its cycles are
enumerated, and each cyclic matching is a new stable matching strictly below.
The truncation algorithm re-runs deferred acceptance on truncated profiles
instead; it is reimplemented here because it can stop early and miss part of
the stable set, which the comparison report makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AgentId,
    DEFAULT_CHECK_CAP,
    Profile,
    Side,
    bit_indices,
    choice,
    is_substitutable,
    satisfies_lad,
    worker,
)
from .cycles import Cycle, cyclic_matching, find_cycles
from .da import deferred_acceptance
from .matching import Matching, brute_force_stable_set
from .reduction import reduce_profile


class AxiomViolation(Exception):
    def __init__(self, agent: AgentId, axiom: str):
        super().__init__(f"{agent.side.value} {agent.index} violates {axiom}")
        self.agent = agent
        self.axiom = axiom


def validate_profile(profile: Profile, cap: int = DEFAULT_CHECK_CAP) -> None:
    """Raise AxiomViolation for the first agent failing substitutability or
    the law of aggregate demand.

    Validation is up-front for every agent: the cycle machinery silently
    depends on both axioms, and failing fast beats returning a wrong set.
    """
    for agent in profile.agents():
        if not is_substitutable(profile, agent, cap):
            raise AxiomViolation(agent, "substitutability")
        if not satisfies_lad(profile, agent, cap):
            raise AxiomViolation(agent, "law of aggregate demand")


@dataclass(frozen=True)
class Expansion:
    """One matching expanded during a step: its cycles and their matchings."""

    source: Matching
    cycles: tuple[Cycle, ...]
    produced: tuple[Matching, ...]


@dataclass(frozen=True)
class EnumerationStep:
    number: int  # step 1 is the deferred-acceptance step, expansions start at 2
    expansions: tuple[Expansion, ...]


@dataclass(frozen=True)
class EnumerationTrace:
    mu_firm: Matching
    mu_worker: Matching
    steps: tuple[EnumerationStep, ...]


def stable_set(profile: Profile, validate: bool = True) -> tuple[list[Matching], EnumerationTrace]:
    """The full set of stable matchings, with the step-by-step trace.

    Worklist form of the stepwise algorithm: a matching is expanded at most
    once (reduction and cycle enumeration are pure, so re-expansion could only
    repeat work), and the run stops when the worklist empties, which is
    exactly when every newly produced cyclic matching is the worker optimum
    or already known. Output is sorted by firm-side masks.
    """
    if validate:
        validate_profile(profile)
    mu_f, _ = deferred_acceptance(profile, Side.FIRM)
    mu_w, _ = deferred_acceptance(profile, Side.WORKER)
    found: dict[tuple[int, ...], Matching] = {mu_f.assign: mu_f, mu_w.assign: mu_w}
    steps: list[EnumerationStep] = []
    if mu_f != mu_w:
        frontier = [mu_f]
        queued = {mu_f.assign}
        number = 2
        while frontier:
            expansions = []
            produced_here: list[Matching] = []
            for mu in frontier:
                reduced = reduce_profile(profile, mu, mu_w)
                cycles = tuple(find_cycles(reduced))
                produced = tuple(cyclic_matching(mu, c) for c in cycles)
                expansions.append(Expansion(mu, cycles, produced))
                produced_here.extend(produced)
            nxt: dict[tuple[int, ...], Matching] = {}
            for m in produced_here:
                found.setdefault(m.assign, m)
                if m.assign not in queued and m != mu_w:
                    nxt[m.assign] = m
            steps.append(EnumerationStep(number, tuple(expansions)))
            frontier = [nxt[k] for k in sorted(nxt)]
            queued.update(nxt)
            number += 1
    result = [found[k] for k in sorted(found)]
    return result, EnumerationTrace(mu_f, mu_w, tuple(steps))


@dataclass(frozen=True)
class TruncationCandidate:
    """One candidate evaluated by the truncation algorithm.

    `failures` lists every worker whose choice test rejected the candidate,
    as (worker, offered mask, chosen mask, required mask).
    """

    step: int
    source: Matching
    pair: tuple[int, int]  # (firm, worker) whose partnership is cut
    candidate: Matching
    accepted: bool
    failures: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class MMSTrace:
    candidates: tuple[TruncationCandidate, ...]
    used_generic_step: bool  # steps past the first ran; see mms_algorithm notes


def mms_algorithm(profile: Profile, validate: bool = True) -> tuple[list[Matching], MMSTrace]:
    """Truncation-based enumeration (prior art, reimplemented for comparison).

    Starting from {firm optimum, worker optimum}: for each collected matching
    nu and each pair (f, w) matched under nu but not under the worker optimum,
    truncate f's list at w, rerun firm-proposing deferred acceptance, and
    accept the result only if every worker, offered its old and new firms
    together, would keep exactly the new ones. The published description
    leaves open which profile later rounds truncate; here each candidate
    truncates the profile that produced its source matching, accumulating
    cuts along the chain (the trace flags runs where that choice mattered).
    The cuts are kept as per-firm banned-worker masks and handed to deferred
    acceptance as initial rejections, which equals truncating each list.

    The returned set can be a strict subset of the stable set: candidates
    failing the worker test are discarded even though chaining through them
    can be the only route to further stable matchings.
    """
    if validate:
        validate_profile(profile)
    mu_f, _ = deferred_acceptance(profile, Side.FIRM)
    mu_w, _ = deferred_acceptance(profile, Side.WORKER)
    collected: dict[tuple[int, ...], Matching] = {mu_f.assign: mu_f, mu_w.assign: mu_w}
    records: list[TruncationCandidate] = []
    frontier: list[tuple[tuple[int, ...], Matching]] = [((0,) * profile.n_firms, mu_f)]
    step = 1
    while frontier:
        added: list[tuple[tuple[int, ...], Matching]] = []
        for bans, nu in frontier:
            for f in range(profile.n_firms):
                for w in bit_indices(nu.assign[f] & ~mu_w.assign[f]):
                    cut = bans[:f] + (bans[f] | 1 << w,) + bans[f + 1 :]
                    candidate, _ = deferred_acceptance(profile, Side.FIRM, cut)
                    failures = _worker_objections(profile, nu, candidate)
                    accepted = not failures
                    records.append(
                        TruncationCandidate(step, nu, (f, w), candidate, accepted, failures)
                    )
                    if accepted and candidate.assign not in collected:
                        collected[candidate.assign] = candidate
                        added.append((cut, candidate))
        frontier = added
        step += 1
    result = [collected[k] for k in sorted(collected)]
    return result, MMSTrace(tuple(records), used_generic_step=step > 2)


def _worker_objections(
    profile: Profile, nu: Matching, candidate: Matching
) -> tuple[tuple[int, int, int, int], ...]:
    old = nu.worker_view()
    new = candidate.worker_view()
    out = []
    for w in range(profile.n_workers):
        offered = old[w] | new[w]
        chosen = choice(profile, worker(w), offered)
        if chosen != new[w]:
            out.append((w, offered, chosen, new[w]))
    return tuple(out)


@dataclass(frozen=True)
class ComparisonReport:
    """Cycle enumeration vs truncation algorithm vs brute force on one market."""

    oracle: tuple[Matching, ...]
    cycle_set: tuple[Matching, ...]
    truncation_set: tuple[Matching, ...]
    truncation_trace: MMSTrace

    @property
    def cycle_matches_oracle(self) -> bool:
        return self.cycle_set == self.oracle

    @property
    def truncation_matches_oracle(self) -> bool:
        return self.truncation_set == self.oracle

    @property
    def missing_from_truncation(self) -> tuple[Matching, ...]:
        have = {m.assign for m in self.truncation_set}
        return tuple(m for m in self.oracle if m.assign not in have)

    @property
    def extra_in_truncation(self) -> tuple[Matching, ...]:
        have = {m.assign for m in self.oracle}
        return tuple(m for m in self.truncation_set if m.assign not in have)


def compare_algorithms(profile: Profile, oracle_cap: int = 10_000_000) -> ComparisonReport:
    """Run all three computations and report agreement and differences."""
    validate_profile(profile)
    cycle_set, _ = stable_set(profile, validate=False)
    truncation_set, trace = mms_algorithm(profile, validate=False)
    oracle = brute_force_stable_set(profile, cap=oracle_cap)
    return ComparisonReport(tuple(oracle), tuple(cycle_set), tuple(truncation_set), trace)
