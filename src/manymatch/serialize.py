"""JSON interchange: the one module that knows the file format.

`load_json` reads every file, for the library and the CLI, and refuses a
repeated key. Markets and reduced profiles share one schema (ranked lists of
name lists); matchings use a firm-keyed assignment. Parsing checks names and
set-ness. Every JSON result is shaped here, sorted by name for stable bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .core import Preference, Profile, bit_indices, firm, worker
from .cycles import Cycle
from .enumeration import ComparisonReport
from .matching import Matching


class MarketFormatError(ValueError):
    """Malformed or inconsistent market/matching JSON."""


def load_json(path: str) -> Any:
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise MarketFormatError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as e:
        raise MarketFormatError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise MarketFormatError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise MarketFormatError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise MarketFormatError(f"{path} is nested too deeply") from None
    except MarketFormatError:
        raise
    except ValueError:  # an integer past the interpreter's digit limit
        raise MarketFormatError(f"{path} holds a number too long to read") from None


def _names(value: Any, where: str) -> list[str]:
    """`value` as a list of distinct names; `where` says which list it is."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MarketFormatError(f"{where} must be a list of strings")
    if len(set(value)) != len(value):
        raise MarketFormatError(f"{where} repeats a name")
    return value


def _mask(value: Any, bits: dict[str, int], owner: str, what: str) -> int:
    """`value`, read as `owner`'s `what`: a list of distinct names, each a key
    of `bits` (name -> its bit), as a mask. A well-formed list is read in one
    pass; anything else goes through `_names`, which says what is wrong."""
    try:
        mask = 0
        for name in value:
            mask |= bits[name]
        if type(value) is list and mask.bit_count() == len(value):
            return mask
    except (KeyError, TypeError):
        pass
    for name in _names(value, f"{owner}: {what}"):
        if name not in bits:
            raise MarketFormatError(f"{owner}: unknown name {name!r}")
    return sum(bits[name] for name in value)  # a list subclass of distinct known names


def parse_market(obj: Any) -> Profile:
    """A decoded object can no longer show a repeated key: read files with `load_json`."""
    if not isinstance(obj, dict):
        raise MarketFormatError("market must be a JSON object")
    firms = _names(obj.get("firms"), "'firms'")
    workers = _names(obj.get("workers"), "'workers'")
    if set(firms) & set(workers):
        raise MarketFormatError("firm and worker names must not collide")

    def side_prefs(key: str, owners: list[str], partners: list[str], make_owner):
        bits = {name: 1 << i for i, name in enumerate(partners)}
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
            ranked = {}  # an ordered set: a repeat is found without a scan
            for entry in entries:
                mask = _mask(entry, bits, name, "a ranked set")
                if not mask:
                    raise MarketFormatError(f"{name}: a ranked set is empty")
                if mask in ranked:
                    raise MarketFormatError(f"{name}: set {sorted(entry)} ranked twice")
                ranked[mask] = None
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
    bits = {name: 1 << i for i, name in enumerate(profile.worker_names)}
    assign = [0] * profile.n_firms
    for name, members in assignment.items():
        if name not in findex:
            raise MarketFormatError(f"unknown firm {name!r} in assignment")
        assign[findex[name]] = _mask(members, bits, name, "assigned workers")
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


def comparison_to_obj(report: ComparisonReport, profile: Profile) -> dict:
    return {
        "oracle": [matching_to_obj(m, profile) for m in report.oracle],
        "cycle_enumeration": [matching_to_obj(m, profile) for m in report.cycle_set],
        "truncation_enumeration": [matching_to_obj(m, profile) for m in report.truncation_set],
        "cycle_enumeration_matches_oracle": report.cycle_matches_oracle,
        "truncation_enumeration_matches_oracle": report.truncation_matches_oracle,
        "missing_from_truncation": [matching_to_obj(m, profile) for m in report.missing_from_truncation],
        "extra_in_truncation": [matching_to_obj(m, profile) for m in report.extra_in_truncation],
        "truncation_used_chained_rounds": report.truncation_trace.used_generic_step,
        "truncation_candidates": [
            {
                "step": c.step,
                "source": matching_to_obj(c.source, profile),
                "pair": [profile.firm_names[c.pair[0]], profile.worker_names[c.pair[1]]],
                "candidate": matching_to_obj(c.candidate, profile),
                "accepted": c.accepted,
                "failures": [
                    {
                        "worker": profile.worker_names[w],
                        "offered": _set_names(offered, profile.firm_names),
                        "chosen": _set_names(chosen, profile.firm_names),
                        "required": _set_names(required, profile.firm_names),
                    }
                    for w, offered, chosen, required in c.failures
                ],
            }
            for c in report.truncation_trace.candidates
        ],
    }


def cycle_to_obj(cycle: Cycle, profile: Profile) -> list[list[str]]:
    return [[profile.worker_names[w], profile.firm_names[f]] for w, f in cycle.pairs]


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"
