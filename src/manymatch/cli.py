"""Command-line front end.

`main` is the one pipeline: it reads the market with `serialize.load_json`,
runs the command, which returns its result as a JSON value that `serialize`
shapes, and writes `dumps(value)` to stdout or `--out`. `gen` reads no
market; `validate` prints a text report and returns its exit code.

Exit codes: 0 success, 1 malformed input (a malformed command line, or
parse/reference/contract errors), 2 axiom violation (every command but
`validate`, `oracle` and `gen` checks both axioms first), 3 combinatorial cap
exceeded. Results go to stdout, traces and diagnostics to stderr; identical
inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .core import AxiomViolation, CapExceeded, Side, _axiom_report, bit_indices, validate_profile
from .da import deferred_acceptance
from .enumeration import compare_algorithms, mms_algorithm, stable_set
from .gen import GenConfig, random_market
from .matching import Matching, brute_force_stable_set
from .reduction import reduce_profile, reduce_to_worker_optimal
from .cycles import find_cycles
from .serialize import (
    MarketFormatError,
    comparison_to_obj,
    cycle_to_obj,
    dumps,
    load_json,
    market_to_obj,
    matching_to_obj,
    parse_market,
    parse_matching,
)


def _print_line(text: str, file) -> None:
    """Print `text` with each unprintable character escaped as in a Python string
    literal, and each one `file` cannot encode escaped as `backslashreplace`
    does, so that an agent name can neither split a line nor fail to encode."""
    text = "".join(c if c.isprintable() else ascii(c)[1:-1] for c in text)
    encoding = file.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), file=file)


def _note(text: str) -> None:
    _print_line(text, sys.stderr)


def _fmt_rows(owners: tuple[str, ...], sep: str, partners: tuple[str, ...], masks: tuple[int, ...]) -> str:
    """Each owner's name, `sep`, then the partner names in its mask or `-` for none."""
    rows = (o + sep + ("".join(partners[i] for i in bit_indices(m)) or "-") for o, m in zip(owners, masks))
    return " ".join(rows)


def _fmt_matching(m: Matching, profile) -> str:
    return _fmt_rows(profile.firm_names, ":", profile.worker_names, m.assign)


def _cmd_validate(profile, args) -> int:
    failures = []
    for agent, (sub, lad), violations in _axiom_report(profile):
        yes_no = f"substitutable={'yes' if sub else 'NO'} lad={'yes' if lad else 'NO'}"
        _print_line(f"{profile.name(agent)}: {yes_no}", sys.stdout)
        failures += violations
    for err in failures:
        _note(str(err))
    return 2 if failures else 0


def _cmd_da(profile, args):
    validate_profile(profile)
    side = Side.FIRM if args.proposing == "firms" else Side.WORKER
    m, trace = deferred_acceptance(profile, side)
    if args.trace:
        prop_names = profile.firm_names if side is Side.FIRM else profile.worker_names
        recv_names = profile.worker_names if side is Side.FIRM else profile.firm_names
        for t, rnd in enumerate(trace.rounds, start=1):
            offers = _fmt_rows(prop_names, "->", recv_names, rnd.proposals)
            rejs = " ".join(f"{recv_names[r]}/{prop_names[p]}" for p, r in rnd.rejections) or "none"
            _note(f"round {t}: {offers}; rejections: {rejs}")
    return matching_to_obj(m, profile)


def _cmd_enumerate(profile, args):
    matchings, trace = stable_set(profile)
    if args.trace:
        _note(f"step 1: mu_F = {_fmt_matching(trace.mu_firm, profile)}")
        _note(f"step 1: mu_W = {_fmt_matching(trace.mu_worker, profile)}")
        for step in trace.steps:
            for exp in step.expansions:
                cyc = "; ".join(
                    "".join(f"({profile.worker_names[w]},{profile.firm_names[f]})" for w, f in c.pairs)
                    for c in exp.cycles
                ) or "none"
                prod = ", ".join(_fmt_matching(m, profile) for m in exp.produced) or "none"
                _note(
                    f"step {step.number}: expand {_fmt_matching(exp.source, profile)}"
                    f" | cycles: {cyc} | produced: {prod}"
                )
    return [matching_to_obj(m, profile) for m in matchings]


def _cmd_reduce(profile, args):
    validate_profile(profile)
    mu = parse_matching(load_json(args.mu), profile)
    if args.mu_tilde:
        reduced = reduce_profile(profile, mu, parse_matching(load_json(args.mu_tilde), profile))
    else:
        reduced = reduce_to_worker_optimal(profile, mu)
    return market_to_obj(reduced.materialized)


def _cmd_cycles(profile, args):
    validate_profile(profile)
    reduced = reduce_to_worker_optimal(profile, parse_matching(load_json(args.mu), profile))
    return [cycle_to_obj(c, profile) for c in find_cycles(reduced)]


def _cmd_oracle(profile, args):
    return [matching_to_obj(m, profile) for m in brute_force_stable_set(profile)]


def _cmd_mms(profile, args):
    return [matching_to_obj(m, profile) for m in mms_algorithm(profile)[0]]


def _cmd_compare(profile, args):
    return comparison_to_obj(compare_algorithms(profile), profile)


def _cmd_gen(args):
    # GenConfig checks the same ranges, but its messages name its fields, not the options.
    for option, value in (("--firms", args.firms), ("--workers", args.workers), ("--quota", args.quota)):
        if value < 1:
            raise ValueError(f"{option} must be at least 1, got {value}")
    if not 0.0 <= args.prob <= 1.0:
        raise ValueError(f"--prob must lie in [0, 1], got {args.prob}")
    cfg = GenConfig(
        n_firms=args.firms,
        n_workers=args.workers,
        quota=args.quota,
        acceptability_prob=args.prob,
        seed=args.seed,
    )
    return market_to_obj(random_market(cfg))


class _Parser(argparse.ArgumentParser):
    """Sends a usage error to `main`'s one error path instead of exiting 2."""

    def error(self, message: str):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="manymatch",
        description="Stable matchings of many-to-many markets with set preferences.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def market_command(name: str, func, help: str) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, help=help)
        parser.add_argument("market")
        parser.set_defaults(func=func)
        return parser

    market_command("validate", _cmd_validate, "per-agent substitutability and LAD report")

    d = market_command("da", _cmd_da, "deferred acceptance from one side")
    d.add_argument("--proposing", choices=("firms", "workers"), required=True)
    d.add_argument("--trace", action="store_true", help="print rounds to stderr")

    e = market_command("enumerate", _cmd_enumerate, "the full stable set, via preference cycles")
    e.add_argument("--trace", action="store_true", help="print steps and cycles to stderr")
    e.add_argument("--out", help="write the JSON result to a file instead of stdout")

    r = market_command("reduce", _cmd_reduce, "reduced profile between two stable matchings")
    r.add_argument("--mu", required=True, help="matching JSON file (the Blair-better one)")
    r.add_argument("--mu-tilde", help="matching JSON file; defaults to the worker optimum")

    c = market_command("cycles", _cmd_cycles, "all cycles of the profile reduced at --mu")
    c.add_argument("--mu", required=True, help="matching JSON file")

    market_command("oracle", _cmd_oracle, "brute-force stable set")
    market_command("mms", _cmd_mms, "truncation-based enumeration (may miss matchings)")
    market_command("compare", _cmd_compare, "cycle enumeration vs truncation vs oracle")

    g = sub.add_parser("gen", help="random market with both axioms by construction")
    g.add_argument("--firms", type=int, required=True)
    g.add_argument("--workers", type=int, required=True)
    g.add_argument("--quota", type=int, default=1)
    g.add_argument("--prob", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="write the market JSON to a file instead of stdout")
    g.set_defaults(func=_cmd_gen)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "gen":  # the one command without a market
            value = args.func(args)
        else:
            value = args.func(parse_market(load_json(args.market)), args)
            if args.command == "validate":  # its report is printed; the value is the exit code
                return value
        text = dumps(value)
        if getattr(args, "out", None):
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as e:
                raise MarketFormatError(f"cannot write {args.out}: {e.strerror}") from None
        else:
            sys.stdout.write(text)
        return 0
    except (AxiomViolation, CapExceeded, ValueError) as e:
        # MarketFormatError, NotStable and NotComparable are ValueErrors: malformed input exits 1.
        _note(f"error: {e}")
        return 2 if isinstance(e, AxiomViolation) else 3 if isinstance(e, CapExceeded) else 1


if __name__ == "__main__":
    sys.exit(main())
