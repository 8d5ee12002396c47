"""Agents, partner sets, ranked set preferences, choice functions, and axioms.

A partner set is a plain int bitmask over the opposite side's agent indices
(bit i = agent i, so 0 is the empty set). Neither sides nor lists have a
size limit: the axiom checks read the choice only at unions of two ranked
sets, so their cost grows with the length of a list, not with 2^k for its k
acceptable partners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import index as _as_int
from typing import Iterable, Iterator, NamedTuple

class CapExceeded(Exception):
    """An operation would exceed its fixed combinatorial budget."""


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


class _Ids(dict):
    """`AgentId(side, index)` by index, interned on first use: the same object
    on every later call, also across threads, so hot loops build no tuple per
    choice. An index is any int; a negative one does not wrap around."""

    def __init__(self, side: Side) -> None:
        self.side = side

    def __missing__(self, index: int) -> AgentId:
        return self.setdefault(index, AgentId(self.side, _as_int(index)))


firm = _Ids(Side.FIRM).__getitem__
worker = _Ids(Side.WORKER).__getitem__


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
    would accept. `singletons` is the union of the entries that are single
    partners. The list holds two caches:

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
    singletons: int = field(init=False, compare=False, repr=False)
    _choice_cache: dict[int, int] = field(default_factory=dict, init=False, compare=False, repr=False)
    _band_cache: dict[tuple[int, int], int] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        acceptable = singletons = 0
        for e in self.ranked:
            if e <= 0:
                raise ValueError(f"empty set in ranking of {self.owner}")
            acceptable |= e
            singletons |= 0 if e & (e - 1) else e
        if len(set(self.ranked)) != len(self.ranked):
            raise ValueError(f"duplicate set in ranking of {self.owner}")
        object.__setattr__(self, "acceptable", acceptable)
        object.__setattr__(self, "singletons", singletons)

    def without(self, banned: int) -> "Preference":
        """The list minus every ranked set that meets `banned`, order kept."""
        return Preference(self.owner, tuple(e for e in self.ranked if not e & banned))


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
                if pref.acceptable >> width:  # the union of the ranked sets
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


def _axiom_verdicts(profile: Profile, agent: AgentId) -> tuple[bool, bool]:
    """(substitutable, satisfies LAD) from one pass over the pools A | B, where
    A and B are ranked sets (A = B allowed), removing from each pool only the
    partners chosen from it.

    These pools suffice. Suppose C(S) = A, y is in A, and B = C(S - y) breaks
    an axiom (A - y is not inside B, or |B| > |A|). B fits in S - y, so it is
    empty or ranked. Take S' = A | B, a subset of S: C(S') = A, since a set
    ranked above A that fits in S' would fit in S; and C(S' - y) = B, since a
    set ranked above B that fits in S' - y would fit in S - y. So the same y
    breaks the same axiom at S'. Each pool and each one-removal pool is a
    subset of `acceptable`, so a list of m sets over k partners costs at most
    min(m(m+1)/2, 2^k) pools.
    """
    ranked = profile.pref(agent).ranked
    pools = {a | b for i, a in enumerate(ranked) for b in ranked[i:]}
    # A local table, not the list's cache, which a quota-3 list would leave
    # holding tens of thousands of one-off entries.
    table = {pool: _first_fit(ranked, pool) for pool in pools}
    substitutable = lad = True
    for pool in pools:
        chosen = table[pool]
        size = chosen.bit_count()
        rest = chosen
        while rest:
            bit = rest & -rest
            rest ^= bit
            shrunk = table.get(pool ^ bit)  # the choice once this chosen partner leaves
            if shrunk is None:
                shrunk = table[pool ^ bit] = _first_fit(ranked, pool ^ bit)
            substitutable &= not chosen & ~bit & ~shrunk
            lad &= shrunk.bit_count() <= size
    return substitutable, lad


def is_substitutable(profile: Profile, agent: AgentId) -> bool:
    """Substitutability: a chosen partner stays chosen when other partners
    leave the pool.

    Checked in the equivalent one-removal form (choice(S) minus x is contained
    in choice(S minus x) for every S and x), which chains down to the general
    subset form. Removing a partner that was not chosen leaves a ranked-list
    choice unchanged, so only the chosen partners x are tried, and only at
    the pools that can hold a violation: unions of two ranked sets.
    """
    return _axiom_verdicts(profile, agent)[0]


def satisfies_lad(profile: Profile, agent: AgentId) -> bool:
    """Law of aggregate demand: choice size is monotone in the pool.

    Checked in one-removal form (removing one partner from a pool never grows
    the choice), equivalent to the subset form by chaining along any
    inclusion chain. Removing a partner that was not chosen leaves a
    ranked-list choice unchanged, so only the chosen partners are tried, and
    only at the pools that can hold a violation: unions of two ranked sets.
    """
    return _axiom_verdicts(profile, agent)[1]


SUBSTITUTABILITY = "substitutability"
LAD = "law of aggregate demand"


class AxiomViolation(Exception):
    """`agent` fails `axiom` (SUBSTITUTABILITY or LAD); the message calls it
    `name`, its name in the market."""

    def __init__(self, agent: AgentId, axiom: str, name: str):
        article = "the " if axiom == LAD else ""
        super().__init__(f"{name} violates {article}{axiom}")
        self.agent = agent
        self.axiom = axiom


def _axiom_report(profile: Profile) -> Iterator[tuple[AgentId, tuple[bool, bool], list[AxiomViolation]]]:
    """Per agent in `agents()` order: the agent, its (substitutable, lad)
    verdicts, and an AxiomViolation per axiom it fails, substitutability first.

    Verdicts are computed once per list shape in one call. The shape is the
    sorted nonzero columns (per partner, the mask of the list positions that
    hold it): it fixes the list up to a renaming of partners, since partners
    with equal columns can be swapped, and no axiom reads a partner's name.
    """
    by_shape: dict[tuple[int, ...], tuple[bool, bool]] = {}
    for agent in profile.agents():
        pref = profile.pref(agent)
        shape = tuple(sorted(c for c in transpose(pref.ranked, pref.acceptable.bit_length()) if c))
        verdicts = by_shape.get(shape)
        if verdicts is None:
            verdicts = by_shape[shape] = _axiom_verdicts(profile, agent)
        failed = [a for a, ok in zip((SUBSTITUTABILITY, LAD), verdicts) if not ok]
        yield agent, verdicts, [AxiomViolation(agent, a, profile.name(agent)) for a in failed]


def validate_profile(profile: Profile) -> None:
    """Raise AxiomViolation for the first agent failing substitutability or
    the law of aggregate demand.

    Validation is up-front for every agent: the cycle machinery silently
    depends on both axioms, and failing fast beats returning a wrong set.
    """
    for _, _, violations in _axiom_report(profile):
        if violations:
            raise violations[0]


def blair_geq(profile: Profile, agent: AgentId, s1: int, s2: int) -> bool:
    """Blair order: s1 >= s2 when the agent offered both pools keeps exactly s1.

    This is a partial order: blair_geq(s1, s2) and blair_geq(s2, s1) may both
    be false.
    """
    return choice(profile, agent, s1 | s2) == s1
