"""Outside-in tracing: wrappers around the names each library module imports.

Each wrapper records a span (name, start, end, parent span, op id) in memory
and, for some calls, counts taken from the returned value. `choice` is only
counted, never spanned: it runs hundreds of thousands of times per op. Spans
inside a library function that calls its own module's names directly are not
seen; those need spans in the library itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import manymatch.cli as cli
import manymatch.cycles as cycles
import manymatch.da as da
import manymatch.enumeration as enumeration
import manymatch.matching as matching
import manymatch.reduction as reduction
import manymatch.serialize as serialize

# (module, imported name, span name). One wrapper per function object, so a
# function imported into several modules is one span name wherever it is called.
SPANNED = (
    (enumeration, "validate_profile", "core.validate"),
    (enumeration, "deferred_acceptance", "da"),
    (enumeration, "reduce_profile", "reduction"),
    (enumeration, "find_cycles", "cycles"),
    (enumeration, "cyclic_matching", "cycles.cyclic_matching"),
    (enumeration, "brute_force_stable_set", "matching.oracle"),
    (enumeration, "stable_set", "enumeration.stable_set"),
    (enumeration, "mms_algorithm", "enumeration.mms"),
    (enumeration, "compare_algorithms", "enumeration.compare"),
    (reduction, "stability", "matching.stability"),
    (reduction, "deferred_acceptance", "da"),
    (cycles, "satisfies_cycle_conditions", "cycles.verify"),
    (serialize, "parse_market", "serialize.parse"),
    (serialize, "matching_to_obj", "serialize.emit"),
    (serialize, "dumps", "serialize.emit"),
    (cli, "parse_market", "serialize.parse"),
    (cli, "matching_to_obj", "serialize.emit"),
    (cli, "dumps", "serialize.emit"),
    (cli, "stable_set", "enumeration.stable_set"),
    (cli, "compare_algorithms", "enumeration.compare"),
)
CHOICE_USERS = (da, matching, reduction, enumeration)

# Per-layer metrics that are counts; they must repeat exactly between passes.
COUNTS = (
    "core.validate_calls",
    "core.choice_calls",
    "core.choice_distinct",
    "da.calls",
    "da.rounds",
    "matching.oracle_calls",
    "matching.stability_calls",
    "reduction.calls",
    "cycles.calls",
    "cycles.found",
    "cycles.verify_calls",
    "cycles.cyclic_matching_calls",
    "enumeration.expansions",
    "enumeration.produced",
    "enumeration.produced_distinct",
    "enumeration.mms_candidates",
    "enumeration.mms_accepted",
    "serialize.bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = 0
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.choice_seen: set = set()
        self.profiles: dict[int, object] = {}  # keeps ids unique while counting

    # --- recording ---

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [name, 0.0, 0.0, parent, self.op]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            self._count(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, result) -> None:
        c = self.counts
        if name == "da":
            c["da.rounds"] += len(result[1].rounds)
        elif name == "cycles":
            c["cycles.found"] += len(result)
        elif name == "enumeration.stable_set":
            produced = [m.assign for s in result[1].steps for e in s.expansions for m in e.produced]
            c["enumeration.expansions"] += sum(len(s.expansions) for s in result[1].steps)
            c["enumeration.produced"] += len(produced)
            c["enumeration.produced_distinct"] += len(set(produced))
        elif name == "enumeration.mms":
            candidates = result[1].candidates
            c["enumeration.mms_candidates"] += len(candidates)
            c["enumeration.mms_accepted"] += sum(1 for x in candidates if x.accepted)
        elif name == "serialize.emit" and isinstance(result, str):
            c["serialize.bytes"] += len(result.encode("utf-8"))

    def counted_choice(self, fn):
        seen, profiles, counts = self.choice_seen, self.profiles, self.counts

        def choice(profile, agent, available):
            counts["core.choice_calls"] += 1
            profiles[id(profile)] = profile
            seen.add((id(profile), agent, available))
            return fn(profile, agent, available)

        choice.__wrapped__ = fn
        return choice

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original names on exit."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in SPANNED]
        saved += [(module, "choice", module.choice) for module in CHOICE_USERS]
        wrappers: dict[int, object] = {}
        for module, attr, name in SPANNED:
            original = getattr(module, attr)
            setattr(module, attr, wrappers.setdefault(id(original), self.span(name, original)))
        choice = self.counted_choice(da.choice)
        for module in CHOICE_USERS:
            module.choice = choice
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def begin_pass(self) -> int:
        """Reset the counters; return the index of the pass's first span."""
        self.counts.clear()
        self.choice_seen.clear()
        self.profiles.clear()
        return len(self.spans)

    # --- summaries ---

    def summary(self, first: int) -> dict[str, float]:
        """Per-layer counts and times over the spans from index `first` on."""
        spans = self.spans[first:]
        total: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        child: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            self_time[name] += end - start - child[first + offset]

        c = self.counts
        out: dict[str, float] = {k: c[k] for k in COUNTS}
        out["core.validate_calls"] = calls["core.validate"]
        out["core.choice_distinct"] = len(self.choice_seen)
        out["da.calls"] = calls["da"]
        out["matching.oracle_calls"] = calls["matching.oracle"]
        out["matching.stability_calls"] = calls["matching.stability"]
        out["reduction.calls"] = calls["reduction"]
        out["cycles.calls"] = calls["cycles"]
        out["cycles.verify_calls"] = calls["cycles.verify"]
        out["cycles.cyclic_matching_calls"] = calls["cycles.cyclic_matching"]
        out.update(
            {
                "core.validate_s": total["core.validate"],
                "da.s": total["da"],
                "matching.oracle_s": total["matching.oracle"],
                "matching.stability_s": total["matching.stability"],
                "reduction.s": total["reduction"],
                "reduction.self_s": self_time["reduction"],
                "cycles.s": total["cycles"],
                "enumeration.self_s": sum(
                    self_time[n]
                    for n in ("enumeration.stable_set", "enumeration.mms", "enumeration.compare")
                ),
                "serialize.parse_s": total["serialize.parse"],
                "serialize.emit_s": total["serialize.emit"],
            }
        )
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
