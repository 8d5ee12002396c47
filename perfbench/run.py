#!/usr/bin/env python3
"""manymatch benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
installs the outside-in tracer (see tracing.py) and reports the per-layer
metrics. Human-readable lines come first; the last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. A full
record, with the environment and every sample, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MIN_TRACE_ROUNDS = 2  # the count check needs two traced passes
PROBES = 7  # interpreter and import probes in a traced cli run


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


class Failures:
    def __init__(self) -> None:
        self.count = 0

    def add(self, where: str, err: Exception) -> None:
        self.count += 1
        if self.count <= 5:
            print(f"FAILED {where}: {type(err).__name__}: {err}", file=sys.stderr)


def run_op(wl, i: int, failures: Failures):
    """Time op i and check it; return (seconds, markets, matchings) or None."""
    started = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception as err:  # an op that raises counts as failed
        failures.add(f"op {i}", err)
        return None
    elapsed = time.perf_counter() - started
    try:
        markets, matchings = wl.check(i, out)
    except Exception as err:  # includes WrongResult
        failures.add(f"check of op {i}", err)
        return None
    return elapsed, markets, matchings


def timed_setup(wl) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - started)
    return times


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, seconds: float) -> tuple[dict, dict, int, int, dict]:
    setups = timed_setup(wl)
    wl.warm_up()
    failures = Failures()
    samples = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        sample = run_op(wl, attempted, failures)
        if sample:
            samples.append((attempted, sample))
        attempted += 1
    n = len(samples)
    per_market = [s / m * 1e3 for _, (s, m, _) in samples]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "market_ms": (statistics.median(per_market) if n else 0.0, "ms", n),
        "ok_ratio": (n / attempted, "fraction", attempted),
        "peak_rss_mb": (peak_rss_mb(wl.name), "MB", 1),
    }
    info = {
        "markets_per_s": (1e3 / metrics["market_ms"][0] if n else 0.0, "1/s", n),
        "us_per_matching": (
            statistics.median(s / k * 1e6 for _, (s, _, k) in samples if k) if n else 0.0, "us", n),
    }
    detail = {"setup_s": setups, "ops": samples}
    return metrics, info, attempted, failures.count, detail


def probe_ms(wl) -> tuple[float, float]:
    """Median `python -c pass` time and median import time above it."""
    bare, imported = [], []
    for _ in range(PROBES):
        for args, into in ((("-c", "pass"), bare), (("-c", "import manymatch.cli"), imported)):
            started = time.perf_counter()
            done = wl.python(*args)
            into.append(time.perf_counter() - started)
            if done.returncode:
                raise RuntimeError(f"python {' '.join(args)} exited {done.returncode}")
    interp = statistics.median(bare) * 1e3
    return interp, statistics.median(imported) * 1e3 - interp


def per_layer(wl, seconds: float, spans_path: Path) -> tuple[dict, dict, int, int, dict]:
    from tracing import COUNTS, Tracer, ratio

    setups = timed_setup(wl)
    gen_s = wl.gen.s
    wl.warm_up()
    tracer = Tracer()
    failures = Failures()
    attempted = 0
    passes: list[dict] = []
    overheads: list[float] = []
    deadline = time.perf_counter() + seconds

    def one_pass(traced: bool) -> float:
        nonlocal attempted
        elapsed = 0.0
        for i in range(wl.trace_ops):
            tracer.op = attempted
            sample = run_op(wl, i, failures)
            attempted += 1
            if sample:
                elapsed += sample[0]
        return elapsed

    rounds = 0
    while rounds < MIN_TRACE_ROUNDS or time.perf_counter() < deadline:
        plain = traced = 0.0
        for is_traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if not is_traced:
                plain = one_pass(False)
                continue
            with tracer.installed():
                first = tracer.begin_pass()
                traced = one_pass(True)
                passes.append(tracer.summary(first))
        overheads.append(ratio(traced, plain))
        rounds += 1

    for k in COUNTS:
        values = {p[k] for p in passes}
        if len(values) != 1:
            failures.add("trace count check", ValueError(f"{k} differs between passes: {sorted(values)}"))
    tracer.write(spans_path)

    first = passes[0]
    values: dict[str, float] = {}
    for key in first:
        values[key] = first[key] if key in COUNTS else statistics.median(p[key] for p in passes)
    values["core.choice_hit_ratio"] = 1.0 - ratio(first["core.choice_distinct"], first["core.choice_calls"])
    values["enumeration.distinct_ratio"] = ratio(
        first["enumeration.produced_distinct"], first["enumeration.produced"])
    values["enumeration.mms_accept_ratio"] = ratio(
        first["enumeration.mms_accepted"], first["enumeration.mms_candidates"])
    values["cli.interpreter_ms"] = values["cli.import_ms"] = 0.0
    if wl.name == "cli":
        try:
            values["cli.interpreter_ms"], values["cli.import_ms"] = probe_ms(wl)
        except (OSError, subprocess.SubprocessError, RuntimeError) as err:
            failures.add("interpreter probe", err)
    values["gen.s"] = gen_s
    values["trace.overhead_ratio"] = statistics.median(overheads)

    metrics = {k: (v, unit_of(k), len(passes)) for k, v in sorted(values.items())}
    info = {"trace.pass_ops": (wl.trace_ops, "count", len(passes)),
            "trace.rounds": (rounds, "count", rounds)}
    detail = {"setup_s": setups, "passes": passes, "overheads": overheads}
    return metrics, info, attempted, failures.count, detail


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "serialize.bytes":
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "manymatch" / "__init__.py").is_file():
        print(f"error: no manymatch source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.trace and cls is workloads.Cli:
        cls = workloads.CliTraced
    wl = cls(ROOT, args.seed)

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, info, attempted, failed, detail = per_layer(wl, args.seconds, spans)
    else:
        metrics, info, attempted, failed, detail = end_to_end(wl, args.seconds)

    print(f"# manymatch benchmark {tag} seconds={args.seconds:g}")
    print("# " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    info["failed_ratio"] = (failed / attempted, "fraction", attempted)
    for name, (value, unit, n) in [*metrics.items(), *info.items()]:
        print(f"{name:34s} {value:14.6g} {unit:9s} n={n}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env,
                  samples={name: n for name, (_, _, n) in metrics.items()},
                  info={name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in info.items()},
                  detail=detail)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
