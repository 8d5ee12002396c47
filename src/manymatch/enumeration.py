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

from typing import NamedTuple

from .core import Profile, Side, bit_indices, choice, validate_profile, worker
from .cycles import Cycle, cyclic_matching, find_cycles
from .da import deferred_acceptance
from .matching import Matching, brute_force_stable_set
from .reduction import reduce_profile


def _optima(profile: Profile, validate: bool) -> tuple[Matching, Matching, dict[tuple[int, ...], Matching]]:
    """Validate if asked, then the firm and worker optima, and the two keyed by their firm-side masks."""
    if validate:
        validate_profile(profile)
    mu_f, _ = deferred_acceptance(profile, Side.FIRM)
    mu_w, _ = deferred_acceptance(profile, Side.WORKER)
    return mu_f, mu_w, {mu_f.assign: mu_f, mu_w.assign: mu_w}


class Expansion(NamedTuple):
    """One matching expanded during a step: its cycles and their matchings."""

    source: Matching
    cycles: tuple[Cycle, ...]
    produced: tuple[Matching, ...]


class EnumerationStep(NamedTuple):
    number: int  # step 1 is the deferred-acceptance step, expansions start at 2
    expansions: tuple[Expansion, ...]


class EnumerationTrace(NamedTuple):
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
    mu_f, mu_w, found = _optima(profile, validate)
    steps: list[EnumerationStep] = []
    frontier = [mu_f] if mu_f != mu_w else []
    while frontier:
        expansions = []
        nxt: list[Matching] = []
        for mu in frontier:
            reduced = reduce_profile(profile, mu, mu_w)
            cycles = tuple(find_cycles(reduced))
            produced = tuple(cyclic_matching(mu, c) for c in cycles)
            expansions.append(Expansion(mu, cycles, produced))
            for m in produced:
                if m.assign not in found:
                    found[m.assign] = m
                    nxt.append(m)
        steps.append(EnumerationStep(len(steps) + 2, tuple(expansions)))
        frontier = sorted(nxt, key=lambda m: m.assign)
    result = [found[k] for k in sorted(found)]
    return result, EnumerationTrace(mu_f, mu_w, tuple(steps))


class TruncationCandidate(NamedTuple):
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


class MMSTrace(NamedTuple):
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

    Two sources can lead to the same cut, and deferred acceptance is
    deterministic, so each distinct cut is run once per call and its
    candidate shared by every record that carries it. A worker is not tested
    when its set is the same under nu and the candidate and equals what it
    held when the run ended: a held set S is C(T) for some table T, and under
    a first-fit list C(C(T)) = C(T), so that worker is offered S, chooses S
    and cannot object. On substitutable lists every worker holds exactly its
    offers, so every unchanged worker is skipped.

    The returned set can be a strict subset of the stable set: candidates
    failing the worker test are discarded even though chaining through them
    can be the only route to further stable matchings.
    """
    mu_f, mu_w, collected = _optima(profile, validate)
    records: list[TruncationCandidate] = []
    runs: dict[tuple[int, ...], tuple[Matching, tuple[int, ...]]] = {}  # cut -> (candidate, held)
    frontier: list[tuple[tuple[int, ...], Matching]] = [((0,) * profile.n_firms, mu_f)]
    step = 1
    while frontier:
        added: list[tuple[tuple[int, ...], Matching]] = []
        for bans, nu in frontier:
            for f in range(profile.n_firms):
                for w in bit_indices(nu.assign[f] & ~mu_w.assign[f]):
                    cut = bans[:f] + (bans[f] | 1 << w,) + bans[f + 1 :]
                    if cut not in runs:
                        candidate, trace = deferred_acceptance(profile, Side.FIRM, cut)
                        runs[cut] = candidate, trace.rounds[-1].held
                    candidate, held = runs[cut]
                    failures = _worker_objections(profile, nu, candidate, held)
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
    profile: Profile, nu: Matching, candidate: Matching, held: tuple[int, ...]
) -> tuple[tuple[int, int, int, int], ...]:
    """Workers that, offered their firms under nu and the candidate, would not
    keep exactly the candidate's; a worker whose set is unchanged and equals
    its `held` set is not tested."""
    old = nu.worker_view()
    new = candidate.worker_view()
    out = []
    for w in range(profile.n_workers):
        if old[w] == new[w] == held[w]:
            continue
        offered = old[w] | new[w]
        chosen = choice(profile, worker(w), offered)
        if chosen != new[w]:
            out.append((w, offered, chosen, new[w]))
    return tuple(out)


class ComparisonReport(NamedTuple):
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


def compare_algorithms(profile: Profile) -> ComparisonReport:
    """Run all three computations and report agreement and differences."""
    validate_profile(profile)
    cycle_set, _ = stable_set(profile, validate=False)
    truncation_set, trace = mms_algorithm(profile, validate=False)
    oracle = brute_force_stable_set(profile)
    return ComparisonReport(tuple(oracle), tuple(cycle_set), tuple(truncation_set), trace)
