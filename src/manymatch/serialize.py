"""JSON interchange for markets, matchings, and cycles.

One human-writable schema for markets (ranked lists of name lists) that also
serves for serializing reduced profiles, and a firm-keyed assignment schema
for matchings. Parsing validates references and set-ness; emitting sorts set
members by name so identical values always serialize to identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .core import Preference, Profile, bit_indices, firm, mask_of, worker
from .cycles import Cycle
from .matching import Matching


class MarketFormatError(ValueError):
    """Malformed or inconsistent market/matching JSON."""


def _names(value: Any, where: str) -> list[str]:
    """`value` as a list of distinct names; `where` says which list it is."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MarketFormatError(f"{where} must be a list of strings")
    if len(set(value)) != len(value):
        raise MarketFormatError(f"{where} repeats a name")
    return value


def _mask(names: list[str], index: dict[str, int], owner: str) -> int:
    try:
        return mask_of(index[x] for x in names)
    except KeyError as e:
        raise MarketFormatError(f"{owner}: unknown name {e.args[0]!r}") from None


def parse_market(obj: Any) -> Profile:
    if not isinstance(obj, dict):
        raise MarketFormatError("market must be a JSON object")
    firms = _names(obj.get("firms"), "'firms'")
    workers = _names(obj.get("workers"), "'workers'")
    if set(firms) & set(workers):
        raise MarketFormatError("firm and worker names must not collide")

    def side_prefs(key: str, owners: list[str], partners: list[str], make_owner):
        index = {name: i for i, name in enumerate(partners)}
        raw = obj.get(key, {})
        if not isinstance(raw, dict):
            raise MarketFormatError(f"'{key}' must be an object")
        unknown = set(raw) - set(owners)
        if unknown:
            raise MarketFormatError(f"'{key}' mentions undeclared agents: {sorted(unknown)}")
        prefs = []
        for i, name in enumerate(owners):
            entries = raw.get(name, [])
            if not isinstance(entries, list):
                raise MarketFormatError(f"{name}: the ranking must be a list of ranked sets")
            ranked = []
            for entry in entries:
                mask = _mask(_names(entry, f"{name}: a ranked set"), index, name)
                if not mask:
                    raise MarketFormatError(f"{name}: a ranked set is empty")
                if mask in ranked:
                    raise MarketFormatError(f"{name}: set {sorted(entry)} ranked twice")
                ranked.append(mask)
            prefs.append(Preference(make_owner(i), tuple(ranked)))
        return tuple(prefs)

    return Profile(
        len(firms),
        len(workers),
        side_prefs("firm_prefs", firms, workers, firm),
        side_prefs("worker_prefs", workers, firms, worker),
        tuple(firms),
        tuple(workers),
    )


def _set_names(mask: int, names: tuple[str, ...]) -> list[str]:
    return sorted(names[i] for i in bit_indices(mask))


def market_to_obj(profile: Profile) -> dict:
    def side_prefs(owners: tuple[str, ...], prefs: tuple[Preference, ...], partners: tuple[str, ...]):
        return {name: [_set_names(e, partners) for e in p.ranked] for name, p in zip(owners, prefs)}

    return {
        "firms": list(profile.firm_names),
        "workers": list(profile.worker_names),
        "firm_prefs": side_prefs(profile.firm_names, profile.firm_prefs, profile.worker_names),
        "worker_prefs": side_prefs(profile.worker_names, profile.worker_prefs, profile.firm_names),
    }


def parse_matching(obj: Any, profile: Profile) -> Matching:
    if not isinstance(obj, dict):
        raise MarketFormatError("matching must be a JSON object")
    assignment = obj.get("assignment")
    if not isinstance(assignment, dict):
        raise MarketFormatError("'assignment' must be an object")
    findex = {name: i for i, name in enumerate(profile.firm_names)}
    windex = {name: i for i, name in enumerate(profile.worker_names)}
    assign = [0] * profile.n_firms
    for name, members in assignment.items():
        if name not in findex:
            raise MarketFormatError(f"unknown firm {name!r} in assignment")
        assign[findex[name]] = _mask(_names(members, f"{name}: assigned workers"), windex, name)
    m = Matching(tuple(assign), profile.n_workers)
    if "unmatched" in obj:
        if sorted(_names(obj["unmatched"], "'unmatched'")) != sorted(_unmatched_names(m, profile)):
            raise MarketFormatError("'unmatched' is inconsistent with the assignment")
    return m


def _unmatched_names(m: Matching, profile: Profile) -> list[str]:
    views = m.worker_view()
    return [profile.firm_names[f] for f in range(profile.n_firms) if not m.assign[f]] + [
        profile.worker_names[w] for w in range(profile.n_workers) if not views[w]
    ]


def matching_to_obj(m: Matching, profile: Profile) -> dict:
    return {
        "assignment": {
            profile.firm_names[f]: _set_names(m.assign[f], profile.worker_names)
            for f in range(profile.n_firms)
            if m.assign[f]
        },
        "unmatched": _unmatched_names(m, profile),
    }


def cycle_to_obj(cycle: Cycle, profile: Profile) -> list[list[str]]:
    return [[profile.worker_names[w], profile.firm_names[f]] for w, f in cycle.pairs]


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"
