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


def _all_names(values: list) -> bool:
    return all(isinstance(x, str) for x in values)


def _names(obj: Any, key: str) -> list[str]:
    value = obj.get(key)
    if not isinstance(value, list) or not _all_names(value):
        raise MarketFormatError(f"'{key}' must be a list of strings")
    if len(set(value)) != len(value):
        raise MarketFormatError(f"duplicate names in '{key}'")
    return value


def parse_market(obj: Any) -> Profile:
    if not isinstance(obj, dict):
        raise MarketFormatError("market must be a JSON object")
    firms = _names(obj, "firms")
    workers = _names(obj, "workers")
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
                if not isinstance(entry, list) or not entry:
                    raise MarketFormatError(f"{name}: every ranked set must be a nonempty list")
                if not _all_names(entry):
                    raise MarketFormatError(f"{name}: ranked set members must be strings")
                if len(set(entry)) != len(entry):
                    raise MarketFormatError(f"{name}: repeated member in {entry}")
                try:
                    mask = mask_of(index[p] for p in entry)
                except KeyError as e:
                    raise MarketFormatError(f"{name}: unknown partner {e.args[0]!r}") from None
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
    return {
        "firms": list(profile.firm_names),
        "workers": list(profile.worker_names),
        "firm_prefs": {
            profile.firm_names[f]: [
                _set_names(e, profile.worker_names) for e in profile.firm_prefs[f].ranked
            ]
            for f in range(profile.n_firms)
        },
        "worker_prefs": {
            profile.worker_names[w]: [
                _set_names(e, profile.firm_names) for e in profile.worker_prefs[w].ranked
            ]
            for w in range(profile.n_workers)
        },
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
        if not isinstance(members, list):
            raise MarketFormatError(f"{name}: assigned workers must be a list")
        if not _all_names(members):
            raise MarketFormatError(f"{name}: assigned workers must be strings")
        if len(set(members)) != len(members):
            raise MarketFormatError(f"{name}: worker assigned twice")
        try:
            assign[findex[name]] = mask_of(windex[w] for w in members)
        except KeyError as e:
            raise MarketFormatError(f"{name}: unknown worker {e.args[0]!r}") from None
    m = Matching(tuple(assign), profile.n_workers)
    if "unmatched" in obj:
        stated = obj["unmatched"]
        if not isinstance(stated, list):
            raise MarketFormatError("'unmatched' must be a list")
        if not _all_names(stated):
            raise MarketFormatError("'unmatched' members must be strings")
        if sorted(stated) != sorted(_unmatched_names(m, profile)):
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
