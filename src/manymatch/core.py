"""Agents, partner sets, ranked set preferences, choice functions, and axioms.

A partner set is a plain int bitmask over the opposite side's agent indices
(bit i = agent i, so 0 is the empty set). Sides are capped at 64 agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple

MAX_SIDE = 64
DEFAULT_CHECK_CAP = 12  # acceptable partners: axiom checks tabulate 2^k pools, gen draws at most k


class CapExceeded(Exception):
    """An operation would exceed its configured combinatorial budget."""


class Side(Enum):
    FIRM = "firm"
    WORKER = "worker"

    @property
    def opposite(self) -> "Side":
        return Side.WORKER if self is Side.FIRM else Side.FIRM


class AgentId(NamedTuple):
    side: Side
    index: int


# EnumMeta.__getattr__ makes `Side.FIRM` a slow lookup on 3.10 and 3.11; hot paths read this name.
_FIRM = Side.FIRM


# One side's ids by index, built once for 0..MAX_SIDE-1.
_FIRM_IDS = tuple(AgentId(Side.FIRM, i) for i in range(MAX_SIDE))
_WORKER_IDS = tuple(AgentId(Side.WORKER, i) for i in range(MAX_SIDE))


def firm(index: int) -> AgentId:
    """`AgentId(Side.FIRM, index)`, interned for in-range indices: the same
    object on every call, so hot loops build no tuple per choice. Any other
    int gets a fresh id, so a negative index does not wrap around."""
    return _FIRM_IDS[index] if 0 <= index < MAX_SIDE else AgentId(Side.FIRM, index)


def worker(index: int) -> AgentId:
    """`AgentId(Side.WORKER, index)`, interned like `firm`."""
    return _WORKER_IDS[index] if 0 <= index < MAX_SIDE else AgentId(Side.WORKER, index)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows: Iterable[int], n: int) -> list[int]:
    """The n column masks of a list of row masks: bit r of column c is set
    when bit c of row r is."""
    cols = [0] * n
    for r, row in enumerate(rows):
        for c in bit_indices(row):
            cols[c] |= 1 << r
    return cols


@dataclass(frozen=True)
class Preference:
    """Strict ranking of one agent's acceptable partner sets, best first.

    The empty set is never stored: the list holds exactly the sets preferred
    to being unmatched, and "the choice is empty" is implicit when no entry
    fits the available pool.

    `acceptable` is the union of the ranked sets: every partner the agent
    would accept. The list holds two caches:

    - `_choice_cache` memoizes choices keyed by `pool & acceptable`, since
      partners outside `acceptable` never change a choice.
    - `_band_cache` memoizes the reduction's step-1/2 bans among the
      acceptable partners, keyed by the agent's two assigned sets `(top,
      bot)`: those bans are a function of this list and that pair alone. The
      enumeration reduces every matching against the same worker optimum, so
      an agent whose own match did not change asks for the same pair again.

    The caches belong to this list alone: a truncated or replaced list is a
    new `Preference` with empty caches. Algorithms that truncate or reduce
    lists therefore keep the base list and a banned mask instead, choosing
    from `pool & ~banned`, which equals choosing under `without(banned)`.
    """

    owner: AgentId
    ranked: tuple[int, ...]
    acceptable: int = field(init=False, compare=False, repr=False)
    _choice_cache: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if any(m <= 0 for m in self.ranked):
            raise ValueError(f"empty set in ranking of {self.owner}")
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(f"duplicate set in ranking of {self.owner}")
        object.__setattr__(self, "acceptable", reduce(or_, self.ranked, 0))
        object.__setattr__(self, "_choice_cache", {})

    # Built on first read, so that a list no reduction reads costs nothing extra.
    @cached_property
    def _band_cache(self) -> dict[tuple[int, int], int]:
        return {}

    @cached_property
    def _singletons(self) -> int:
        return reduce(or_, (e for e in self.ranked if e & (e - 1) == 0), 0)

    def without(self, banned: int) -> "Preference":
        """The list minus every ranked set that meets `banned`, order kept."""
        return Preference(self.owner, tuple(e for e in self.ranked if not e & banned))

    def singleton_mask(self) -> int:
        """Union of the entries that are single partners (computed once per list)."""
        return self._singletons


@dataclass(frozen=True)
class Profile:
    """A full market: both sides' counts, preferences, and display names.

    Immutable after construction; every operation on it is a pure function,
    so profiles can be shared freely across threads. The profile holds no
    cache of its own: choices and reduction bans are memoized on each
    `Preference`, so profiles that share a list share its caches.
    """

    n_firms: int
    n_workers: int
    firm_prefs: tuple[Preference, ...]
    worker_prefs: tuple[Preference, ...]
    firm_names: tuple[str, ...] = ()
    worker_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.n_firms <= MAX_SIDE or not 0 <= self.n_workers <= MAX_SIDE:
            raise ValueError(f"side sizes must be between 0 and {MAX_SIDE}")
        if not self.firm_names:
            object.__setattr__(self, "firm_names", tuple(f"f{i + 1}" for i in range(self.n_firms)))
        if not self.worker_names:
            object.__setattr__(self, "worker_names", tuple(f"w{i + 1}" for i in range(self.n_workers)))
        if len(self.firm_prefs) != self.n_firms or len(self.worker_prefs) != self.n_workers:
            raise ValueError("one preference list required per agent")
        if len(self.firm_names) != self.n_firms or len(self.worker_names) != self.n_workers:
            raise ValueError("one name required per agent")
        for side, prefs, width in (
            (Side.FIRM, self.firm_prefs, self.n_workers),
            (Side.WORKER, self.worker_prefs, self.n_firms),
        ):
            for i, pref in enumerate(prefs):
                if pref.owner != AgentId(side, i):
                    raise ValueError(f"preference at {side.value} {i} owned by {pref.owner}")
                for entry in pref.ranked:
                    if entry >> width:
                        raise ValueError(f"{side.value} {i} ranks partners outside the market")

    def side_size(self, side: Side) -> int:
        return self.n_firms if side is _FIRM else self.n_workers

    def opposite_size(self, side: Side) -> int:
        return self.n_workers if side is _FIRM else self.n_firms

    def pref(self, agent: AgentId) -> Preference:
        prefs = self.firm_prefs if agent.side is _FIRM else self.worker_prefs
        return prefs[agent.index]

    def name(self, agent: AgentId) -> str:
        names = self.firm_names if agent.side is _FIRM else self.worker_names
        return names[agent.index]

    def agents(self) -> Iterator[AgentId]:
        for f in range(self.n_firms):
            yield firm(f)
        for w in range(self.n_workers):
            yield worker(w)


def choice(profile: Profile, agent: AgentId, available: int) -> int:
    """The agent's most preferred subset of `available`.

    With ranked-list preferences this is the first listed set contained in
    the pool, or 0 when none fits. Total: never raises.
    """
    pref = profile.pref(agent)
    pool = available & pref.acceptable
    cache = pref._choice_cache
    got = cache.get(pool)
    if got is None:
        got = cache[pool] = _first_fit(pref.ranked, pool)
    return got


def _first_fit(ranked: tuple[int, ...], pool: int) -> int:
    """The first ranked set contained in `pool`, or 0 when none fits."""
    for entry in ranked:
        if entry & pool == entry:
            return entry
    return 0


def _choice_table(profile: Profile, agent: AgentId, cap: int) -> list[int]:
    """Choices from every pool of the agent's acceptable partners.

    A choice only depends on `pool & acceptable`, so the table covers the
    2^k subsets of the k acceptable partners, renumbered to bits 0..k-1 in
    ascending order (a no-op when they already are the low bits). The axiom
    checks read it in that compressed space, and the cap, which must not be
    negative, bounds k. Built with `_first_fit`, not through `choice()`, so
    that the one-off table does not fill the list's cache.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    pref = profile.pref(agent)
    acceptable = pref.acceptable
    k = acceptable.bit_count()
    if k > cap:
        raise CapExceeded(f"{profile.name(agent)}: exhaustive check over 2^{k} subsets exceeds cap {cap}")
    ranked = pref.ranked
    if acceptable & (acceptable + 1):  # not the low k bits: renumber them
        position = {b: i for i, b in enumerate(bit_indices(acceptable))}
        ranked = tuple(mask_of(position[b] for b in bit_indices(e)) for e in ranked)
    return [_first_fit(ranked, avail) for avail in range(1 << k)]


def _axiom_verdicts(profile: Profile, agent: AgentId, cap: int) -> tuple[bool, bool]:
    """(substitutable, satisfies LAD) from one pass over one choice table,
    removing from each pool only the partners chosen from it."""
    table = _choice_table(profile, agent, cap)
    substitutable = lad = True
    for pool, chosen in enumerate(table):
        size = chosen.bit_count()
        rest = chosen
        while rest:
            bit = rest & -rest
            rest ^= bit
            shrunk = table[pool ^ bit]  # the choice once this chosen partner leaves
            substitutable &= not chosen & ~bit & ~shrunk
            lad &= shrunk.bit_count() <= size
        if not (substitutable or lad):
            break
    return substitutable, lad


def is_substitutable(profile: Profile, agent: AgentId) -> bool:
    """Exhaustive substitutability check.

    A chosen partner must stay chosen when other partners leave the pool.
    Checked in the equivalent one-removal form (choice(S) minus x is contained
    in choice(S minus x) for every S and x), which chains down to the general
    subset form. Removing a partner that was not chosen leaves a ranked-list
    choice unchanged, so only the chosen partners x are tried.
    """
    return _axiom_verdicts(profile, agent, DEFAULT_CHECK_CAP)[0]


def satisfies_lad(profile: Profile, agent: AgentId) -> bool:
    """Law of aggregate demand: choice size is monotone in the pool.

    Checked in one-removal form (removing one partner from a pool never grows
    the choice), equivalent to the subset form by chaining along any
    inclusion chain and exponentially cheaper. Removing a partner that was
    not chosen leaves a ranked-list choice unchanged, so only the chosen
    partners are tried.
    """
    return _axiom_verdicts(profile, agent, DEFAULT_CHECK_CAP)[1]


def blair_geq(profile: Profile, agent: AgentId, s1: int, s2: int) -> bool:
    """Blair order: s1 >= s2 when the agent offered both pools keeps exactly s1.

    This is a partial order: blair_geq(s1, s2) and blair_geq(s2, s1) may both
    be false.
    """
    return choice(profile, agent, s1 | s2) == s1
