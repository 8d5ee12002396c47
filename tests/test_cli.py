"""Command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import errno
import io
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import INT_DIGIT_LIMIT, MARKETS_DIR, build_profile, small_markets
from manymatch import (
    AxiomViolation,
    Matching,
    is_substitutable,
    load_json,
    market_to_obj,
    matching_to_obj,
    parse_market,
    satisfies_lad,
    stable_set,
    validate_profile,
)
from manymatch.cli import main
from manymatch.serialize import dumps

EX1 = str(MARKETS_DIR / "example1.json")
EX2 = str(MARKETS_DIR / "example2.json")

# A valid 1x1 market whose firm's name holds a newline, which the
# human-readable lines print escaped, as `a\nb`.
NEWLINE_NAME = {
    "firms": ["a\nb"],
    "workers": ["w"],
    "firm_prefs": {"a\nb": [["w"]]},
    "worker_prefs": {"w": [["a\nb"]]},
}

# globex's list is substitutable but fails LAD: it chooses {ann} from
# {ann, bob, cy} but {bob, cy} once ann leaves.
NOT_LAD = {
    "firms": ["acme", "globex"],
    "workers": ["ann", "bob", "cy"],
    "firm_prefs": {"acme": [["ann"]], "globex": [["ann"], ["bob", "cy"], ["bob"], ["cy"]]},
    "worker_prefs": {"ann": [["acme"], ["globex"]], "bob": [["globex"]], "cy": [["globex"]]},
}

# w1 accepts f1 and f2 only together, so it fails substitutability; the
# empty matching is the market's only stable one.
NOT_SUBSTITUTABLE_W1 = {
    "firms": ["f1", "f2"],
    "workers": ["w1"],
    "firm_prefs": {"f1": [["w1"]], "f2": []},
    "worker_prefs": {"w1": [["f1", "f2"]]},
}

# As above for w1, and f2 accepts w1 and w2 only together, so it fails
# substitutability too; everyone is unmatched in the only stable matching.
NOT_SUBSTITUTABLE_F2 = {
    "firms": ["f1", "f2"],
    "workers": ["w1", "w2"],
    "firm_prefs": {"f1": [["w1"]], "f2": [["w1", "w2"]]},
    "worker_prefs": {"w1": [["f1", "f2"]], "w2": []},
}

EMPTY_MATCHING = {"assignment": {}}

_FILES = {
    "NOT_LAD": NOT_LAD,
    "NOT_SUBSTITUTABLE_W1": NOT_SUBSTITUTABLE_W1,
    "NOT_SUBSTITUTABLE_F2": NOT_SUBSTITUTABLE_F2,
    "EMPTY": EMPTY_MATCHING,
}

# Arbitrary JSON of bounded size, and market- and matching-shaped objects
# with at most one field replaced by it, so that inputs reach every stage from
# parsing to enumeration. The shaped objects name two to four agents with
# arbitrary text, including line breaks, escapes and a lone surrogate, so that
# drawn names reach every line the CLI prints.
_FIRMS, _WORKERS = st.sampled_from(["f1", "f2"]), st.sampled_from(["w1", "w2"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | st.text(max_size=2) | _FIRMS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_FIRMS | _WORKERS, inner, max_size=2),
    max_leaves=4,
)
_NAMES = st.lists(
    st.text(st.characters(codec=None) | st.sampled_from("\n\r\x1b\u2028\ud800"), min_size=1, max_size=3),
    min_size=2,
    max_size=4,
    unique=True,
)


def _rankings(owners, partners):
    ranked_set = st.lists(partners, min_size=1, max_size=2, unique=True)
    return st.dictionaries(owners, st.lists(ranked_set, max_size=3), max_size=2)


@st.composite
def _with_junk(draw, shaped: dict, optional: dict):
    """A `shaped` object, or one with a field set to arbitrary JSON, or arbitrary JSON."""
    obj = draw(st.fixed_dictionaries(shaped, optional=optional))
    key = draw(st.sampled_from([None, None, "", *shaped, *optional]))
    if key == "":
        return draw(_JSON)
    if key is not None:
        obj[key] = draw(_JSON)
    return obj


@st.composite
def _market_and_matching(draw):
    names = draw(_NAMES)
    split = draw(st.integers(1, len(names) - 1))
    firms, workers = st.sampled_from(names[:split]), st.sampled_from(names[split:])
    market = _with_junk(
        {
            "firms": st.just(names[:split]),
            "workers": st.just(names[split:]),
            "firm_prefs": _rankings(firms, workers),
            "worker_prefs": _rankings(workers, firms),
        },
        {},
    )
    matching = _with_junk(
        {"assignment": st.dictionaries(firms, st.lists(workers, max_size=2, unique=True), max_size=2)},
        {"unmatched": st.lists(firms | workers, max_size=4, unique=True)},
    )
    return draw(market), draw(matching)


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestValidate:
    def test_good_market(self, capsys):
        code, out, err = run(capsys, "validate", EX1)
        assert code == 0
        assert "f1: substitutable=yes lad=yes" in out
        assert err == ""

    def test_bad_market_names_agent_and_axiom(self, capsys, tmp_path):
        market = write(
            tmp_path,
            "bad.json",
            {
                "firms": ["f1"],
                "workers": ["w1", "w2"],
                "firm_prefs": {"f1": [["w1", "w2"]]},
                "worker_prefs": {"w1": [["f1"]], "w2": [["f1"]]},
            },
        )
        code, out, err = run(capsys, "validate", market)
        assert code == 2
        assert "f1: substitutable=NO" in out
        assert "f1 violates substitutability" in err

    def test_lad_failure_names_agent(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", write(tmp_path, "bad.json", NOT_LAD))
        assert code == 2
        assert "globex: substitutable=yes lad=NO" in out
        assert err == "globex violates the law of aggregate demand\n"

    def test_cap_counts_acceptable_partners(self, capsys, tmp_path):
        # A 14-wide side where f2 accepts 13 workers: no cap on acceptable
        # partners, so every agent is checked and passes.
        workers = [f"w{i}" for i in range(1, 15)]
        market = write(
            tmp_path,
            "wide.json",
            {
                "firms": ["f1", "f2"],
                "workers": workers,
                "firm_prefs": {"f1": [["w1"], ["w2"]], "f2": [[w] for w in workers[:13]]},
                "worker_prefs": {w: [["f2"], ["f1"]] for w in workers},
            },
        )
        code, out, err = run(capsys, "validate", market)
        assert (code, err) == (0, "")
        assert out.count("substitutable=yes lad=yes") == out.count("\n") == 16

    def test_newline_in_a_name_keeps_one_line_per_agent(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", write(tmp_path, "market.json", NEWLINE_NAME))
        assert (code, out, err) == (0, "a\\nb: substitutable=yes lad=yes\nw: substitutable=yes lad=yes\n", "")

    def test_name_stdout_cannot_encode_is_escaped(self, monkeypatch, tmp_path):
        # As under PYTHONIOENCODING=ascii: stdout is strict, stderr escapes.
        market = {
            "firms": ["f\u0142"],
            "workers": ["w1"],
            "firm_prefs": {"f\u0142": [["w1"]]},
            "worker_prefs": {"w1": [["f\u0142"]]},
        }
        out, err = io.BytesIO(), io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="ascii"))
        monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(err, encoding="ascii", errors="backslashreplace"))
        code = main(["validate", write(tmp_path, "market.json", market)])
        sys.stdout.flush()
        sys.stderr.flush()
        assert (code, out.getvalue(), err.getvalue()) == (
            0,
            b"f\\u0142: substitutable=yes lad=yes\nw1: substitutable=yes lad=yes\n",
            b"",
        )

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(profile=small_markets())
    @example(profile=build_profile(["w1,w2w3"], ["f1", "f1", "f1"]))  # f1 fails both axioms
    def test_report_agrees_with_the_library_on_arbitrary_lists(self, capsys, tmp_path, profile):
        # Most drawn lists fail an axiom, so the error paths are the common case.
        market = write(tmp_path, "market.json", market_to_obj(profile))
        lines, violations = [], []
        for agent in profile.agents():
            name, sub, lad = profile.name(agent), is_substitutable(profile, agent), satisfies_lad(profile, agent)
            lines.append(f"{name}: substitutable={'yes' if sub else 'NO'} lad={'yes' if lad else 'NO'}\n")
            violations += [f"{name} violates substitutability\n"] * (not sub)
            violations += [f"{name} violates the law of aggregate demand\n"] * (not lad)
        code, out, err = run(capsys, "validate", market)
        assert (code, out, err) == (2 if violations else 0, "".join(lines), "".join(violations))
        if violations:
            with pytest.raises(AxiomViolation) as raised:
                validate_profile(profile)
            assert violations[0] == f"{raised.value}\n"
            assert run(capsys, "enumerate", market) == (2, "", f"error: {violations[0]}")
        else:
            validate_profile(profile)
            code, _, err = run(capsys, "enumerate", market)
            assert (code, err) == (0, "")


class TestDa:
    def test_firm_proposing(self, capsys):
        code, out, _ = run(capsys, "da", EX1, "--proposing", "firms")
        assert code == 0
        assert json.loads(out) == {
            "assignment": {"f1": ["w1", "w2"], "f2": ["w3", "w5"], "f3": ["w2", "w4"]},
            "unmatched": ["w6"],
        }

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "da", EX1, "--proposing", "workers", "--trace")
        assert code == 0
        assert "round 1:" in err
        assert json.loads(out)["assignment"]["f1"] == ["w3", "w4"]


class TestEnumerate:
    def test_example1_has_four(self, capsys):
        code, out, _ = run(capsys, "enumerate", EX1)
        assert code == 0
        assert len(json.loads(out)) == 4

    def test_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", EX1)
        _, second, _ = run(capsys, "enumerate", EX1)
        assert first == second

    def test_trace_mentions_cycles(self, capsys):
        _, _, err = run(capsys, "enumerate", EX1, "--trace")
        assert "step 2" in err and "(w1,f1)" in err

    def test_trace_keeps_one_line_per_step_with_a_newline_in_a_name(self, capsys, tmp_path):
        code, _, err = run(capsys, "enumerate", write(tmp_path, "market.json", NEWLINE_NAME), "--trace")
        assert (code, err) == (0, "step 1: mu_F = a\\nb:w\nstep 1: mu_W = a\\nb:w\n")

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        assert run(capsys, "enumerate", EX1, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == run(capsys, "enumerate", EX1)[1].encode("utf-8")


# The full `enumerate --trace` stderr and the `cycles --mu` result at every
# stable matching of both shipped markets, in enumeration order.
GOLDEN_TRACE = {
    EX1: (
        "step 1: mu_F = f1:w1w2 f2:w3w5 f3:w2w4\n"
        "step 1: mu_W = f1:w3w4 f2:w2w5 f3:w1w2\n"
        "step 2: expand f1:w1w2 f2:w3w5 f3:w2w4 | cycles: (w1,f1)(w4,f3); (w2,f1)(w3,f2)"
        " | produced: f1:w2w4 f2:w3w5 f3:w1w2, f1:w1w3 f2:w2w5 f3:w2w4\n"
        "step 3: expand f1:w1w3 f2:w2w5 f3:w2w4 | cycles: (w1,f1)(w4,f3)"
        " | produced: f1:w3w4 f2:w2w5 f3:w1w2\n"
        "step 3: expand f1:w2w4 f2:w3w5 f3:w1w2 | cycles: (w2,f1)(w3,f2)"
        " | produced: f1:w3w4 f2:w2w5 f3:w1w2\n"
    ),
    EX2: (
        "step 1: mu_F = f1:w1 f2:w2 f3:w4 f4:w3\n"
        "step 1: mu_W = f1:w4 f2:w1 f3:w3 f4:w2\n"
        "step 2: expand f1:w1 f2:w2 f3:w4 f4:w3 | cycles: (w1,f1)(w3,f4)(w2,f2)"
        " | produced: f1:w3 f2:w1 f3:w4 f4:w2\n"
        "step 3: expand f1:w3 f2:w1 f3:w4 f4:w2 | cycles: (w3,f1)(w4,f3)"
        " | produced: f1:w4 f2:w1 f3:w3 f4:w2\n"
    ),
}
GOLDEN_CYCLES = {
    EX1: [
        (
            {"f1": ["w1", "w2"], "f2": ["w3", "w5"], "f3": ["w2", "w4"]},
            [[["w1", "f1"], ["w4", "f3"]], [["w2", "f1"], ["w3", "f2"]]],
        ),
        ({"f1": ["w1", "w3"], "f2": ["w2", "w5"], "f3": ["w2", "w4"]}, [[["w1", "f1"], ["w4", "f3"]]]),
        ({"f1": ["w2", "w4"], "f2": ["w3", "w5"], "f3": ["w1", "w2"]}, [[["w2", "f1"], ["w3", "f2"]]]),
        ({"f1": ["w3", "w4"], "f2": ["w2", "w5"], "f3": ["w1", "w2"]}, []),
    ],
    EX2: [
        (
            {"f1": ["w1"], "f2": ["w2"], "f3": ["w4"], "f4": ["w3"]},
            [[["w1", "f1"], ["w3", "f4"], ["w2", "f2"]]],
        ),
        ({"f1": ["w3"], "f2": ["w1"], "f3": ["w4"], "f4": ["w2"]}, [[["w3", "f1"], ["w4", "f3"]]]),
        ({"f1": ["w4"], "f2": ["w1"], "f3": ["w3"], "f4": ["w2"]}, []),
    ],
}


# Exit code, stdout and stderr of every command on both shipped markets and
# of one fixed `gen`, byte for byte, keyed by the command line. `MU_F` stands
# for a file holding the firm optimum, as `da --proposing firms` prints it.
CLI_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def golden_argv(tmp_path, command_line: str) -> list[str]:
    argv = command_line.split()
    for i, arg in enumerate(argv):
        if arg.startswith("markets/"):
            market = arg
            argv[i] = str(MARKETS_DIR / arg.removeprefix("markets/"))
        elif arg == "MU_F":
            mu_f = CLI_GOLDEN[f"da {market} --proposing firms --trace"][1]
            argv[i] = str(tmp_path / "mu_f.json")
            Path(argv[i]).write_text(mu_f, encoding="utf-8")
    return argv


class TestGoldenOutput:
    @pytest.mark.parametrize("command_line", sorted(CLI_GOLDEN))
    def test_every_command(self, capsys, tmp_path, command_line):
        assert list(run(capsys, *golden_argv(tmp_path, command_line))) == CLI_GOLDEN[command_line]

    @pytest.mark.parametrize("market", [EX1, EX2], ids=["example1", "example2"])
    def test_enumerate_trace(self, capsys, market):
        code, _, err = run(capsys, "enumerate", market, "--trace")
        assert code == 0
        assert err == GOLDEN_TRACE[market]

    @pytest.mark.parametrize("market", [EX1, EX2], ids=["example1", "example2"])
    def test_cycles_at_every_stable_matching(self, capsys, tmp_path, market):
        stable = json.loads(run(capsys, "enumerate", market)[1])
        assert [m["assignment"] for m in stable] == [a for a, _ in GOLDEN_CYCLES[market]]
        for i, (m, (_, cycles)) in enumerate(zip(stable, GOLDEN_CYCLES[market])):
            code, out, err = run(capsys, "cycles", market, "--mu", write(tmp_path, f"mu{i}.json", m))
            assert (code, err) == (0, "")
            assert out == json.dumps(cycles, indent=2) + "\n"


class TestReduceAndCycles:
    def test_reduce_defaults_to_worker_optimal(self, capsys, tmp_path):
        mu = write(
            tmp_path,
            "mu.json",
            {"assignment": {"f1": ["w1", "w2"], "f2": ["w3", "w5"], "f3": ["w2", "w4"]}},
        )
        code, out, _ = run(capsys, "reduce", EX1, "--mu", mu)
        assert code == 0
        reduced = json.loads(out)
        assert reduced["firm_prefs"]["f2"] == [["w3", "w5"], ["w2", "w5"], ["w2", "w3"], ["w2"], ["w3"], ["w5"]]
        assert reduced["worker_prefs"]["w6"] == []

    def test_reduce_with_explicit_mu_tilde(self, capsys, tmp_path):
        mu = write(
            tmp_path,
            "mu.json",
            {"assignment": {"f1": ["w1", "w2"], "f2": ["w3", "w5"], "f3": ["w2", "w4"]}},
        )
        mu_tilde = write(
            tmp_path,
            "mu_tilde.json",
            {"assignment": {"f1": ["w3", "w4"], "f2": ["w2", "w5"], "f3": ["w1", "w2"]}},
        )
        _, default_out, _ = run(capsys, "reduce", EX1, "--mu", mu)
        code, explicit_out, _ = run(capsys, "reduce", EX1, "--mu", mu, "--mu-tilde", mu_tilde)
        assert code == 0
        assert explicit_out == default_out  # the worker optimum is the default

    def test_cycles_output(self, capsys, tmp_path):
        mu = write(
            tmp_path,
            "mu.json",
            {"assignment": {"f1": ["w1", "w2"], "f2": ["w3", "w5"], "f3": ["w2", "w4"]}},
        )
        code, out, _ = run(capsys, "cycles", EX1, "--mu", mu)
        assert code == 0
        assert json.loads(out) == [[["w1", "f1"], ["w4", "f3"]], [["w2", "f1"], ["w3", "f2"]]]

    def test_unstable_mu_is_rejected(self, capsys, tmp_path):
        mu = write(tmp_path, "mu.json", {"assignment": {"f1": ["w1"]}})
        code, _, err = run(capsys, "cycles", EX1, "--mu", mu)
        assert code == 1
        assert "not stable" in err

    @pytest.mark.parametrize("command", ["cycles", "reduce"])
    def test_unstable_mu_is_reported_by_name(self, capsys, tmp_path, command):
        # w1 holds f1 and f2 but accepts each only alone.
        mu = write(tmp_path, "mu.json", {"assignment": {"f1": ["w1"], "f2": ["w1"]}})
        code, out, err = run(capsys, command, EX1, "--mu", mu)
        assert (code, out) == (1, "")
        assert err == (
            "error: mu is not stable: irrational w1; blocking (f1,w2), (f1,w3), (f1,w4),"
            " (f2,w2), (f2,w3), (f2,w5), (f3,w1), (f3,w2), (f3,w4)\n"
        )


class TestComparisonCommands:
    def test_oracle_counts(self, capsys):
        assert len(json.loads(run(capsys, "oracle", EX2)[1])) == 3

    def test_mms_misses_one(self, capsys):
        assert len(json.loads(run(capsys, "mms", EX2)[1])) == 2

    def test_compare_report(self, capsys):
        code, out, _ = run(capsys, "compare", EX2)
        assert code == 0
        report = json.loads(out)
        assert report["cycle_enumeration_matches_oracle"] is True
        assert report["truncation_enumeration_matches_oracle"] is False
        assert report["truncation_used_chained_rounds"] is False
        assert report["missing_from_truncation"] == [
            {
                "assignment": {"f1": ["w3"], "f2": ["w1"], "f3": ["w4"], "f4": ["w2"]},
                "unmatched": [],
            }
        ]
        rejected = [c for c in report["truncation_candidates"] if not c["accepted"]]
        assert len(rejected) == 4
        assert rejected[0]["failures"] == [
            {"worker": "w1", "offered": ["f1", "f4"], "chosen": ["f1"], "required": ["f4"]}
        ]

    def test_oracle_and_compare_on_1200_firms(self, capsys, tmp_path):
        # Two firms rank a worker, and one worker ranks a firm: the oracle
        # searches two firms deep, not one level per firm of the market.
        market = str(tmp_path / "tall.json")
        argv = ["gen", "--firms", "1200", "--workers", "2", "--prob", "0.001", "--seed", "3"]
        assert run(capsys, *argv, "--out", market) == (0, "", "")
        profile = parse_market(load_json(market))
        everyone_unmatched = [Matching((0,) * 1200, 2)]
        assert stable_set(profile)[0] == everyone_unmatched
        code, out, _ = run(capsys, "oracle", market)
        assert code == 0
        assert out == dumps([matching_to_obj(m, profile) for m in everyone_unmatched])
        code, out, _ = run(capsys, "compare", market)
        assert code == 0
        assert json.loads(out)["cycle_enumeration_matches_oracle"] is True

    def test_oracle_past_the_cap_exits_3(self, capsys, tmp_path):
        # 24 firms with one singleton each: 2^24 candidates pass the cap of 10^7.
        names = [str(i) for i in range(1, 25)]
        market = {
            "firms": [f"f{i}" for i in names],
            "workers": [f"w{i}" for i in names],
            "firm_prefs": {f"f{i}": [[f"w{i}"]] for i in names},
            "worker_prefs": {},
        }
        code, out, err = run(capsys, "oracle", write(tmp_path, "wide.json", market))
        assert (code, out, err) == (3, "", "error: more than 10000000 candidate matchings\n")


class TestGen:
    def test_gen_validates_and_is_deterministic(self, capsys, tmp_path):
        argv = ["gen", "--firms", "3", "--workers", "4", "--quota", "2", "--prob", "0.6", "--seed", "42"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        # --out writes exactly the bytes stdout would.
        assert a.read_bytes() == b.read_bytes() == run(capsys, *argv)[1].encode("utf-8")
        assert run(capsys, "validate", str(a))[0] == 0

    def test_past_the_old_side_limit(self, capsys, tmp_path):
        # 100 firms and 120 workers, past the 64-agent side limit the library
        # once had; each agent accepts few enough partners to be validated.
        market = str(tmp_path / "wide.json")
        argv = ["gen", "--firms", "100", "--workers", "120", "--quota", "2", "--prob", "0.04", "--seed", "2"]
        assert run(capsys, *argv, "--out", market) == (0, "", "")
        assert run(capsys, "validate", market)[0] == 0
        code, out, _ = run(capsys, "enumerate", market)
        assert code == 0
        profile = parse_market(load_json(market))
        assert out == dumps([matching_to_obj(m, profile) for m in stable_set(profile)[0]])

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--prob", "2", "--prob must lie in [0, 1], got 2.0"),
            ("--prob", "nan", "--prob must lie in [0, 1], got nan"),
            ("--firms", "0", "--firms must be at least 1, got 0"),
            ("--workers", "0", "--workers must be at least 1, got 0"),
            ("--quota", "0", "--quota must be at least 1, got 0"),
        ],
        ids=["prob-above-1", "prob-nan", "no-firms", "no-workers", "no-quota"],
    )
    def test_out_of_range_option_is_named(self, capsys, option, value, message):
        argv = {"--firms": "2", "--workers": "2", option: value}
        assert run(capsys, "gen", *(x for pair in argv.items() for x in pair)) == (1, "", f"error: {message}\n")

    def test_gen_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "gen", "--firms", "1", "--workers", "13", "--prob", "1.0"
        )
        assert code == 3
        assert "error" in err


class TestErrorPaths:
    @pytest.mark.parametrize(
        "firm_prefs, mu, message",
        [
            ({"f1": 5}, None, "f1: the ranking must be a list"),
            ({"f1": None}, None, "f1: the ranking must be a list"),
            ({"f1": [[["w1"]]]}, None, "f1: a ranked set must be a list of strings"),
            ({"f1": [[]]}, None, "f1: a ranked set is empty"),
            (["f1"], None, "'firm_prefs' must be an object"),
            (None, {"assignment": {"f1": [["w1"]]}}, "f1: assigned workers must be a list of strings"),
            (None, {"assignment": {"f1": ["w1", "w1"]}}, "f1: assigned workers repeats a name"),
            (None, {"assignment": {"f1": ["w1"]}, "unmatched": [1, "a"]}, "'unmatched' must be a list of strings"),
            (None, {"assignment": {"f1": ["w1"]}, "unmatched": ["w6", "w6"]}, "'unmatched' repeats a name"),
            (None, ["f1"], "matching must be a JSON object"),
            (None, {"assignment": ["f1"]}, "'assignment' must be an object"),
            (None, {"assignment": {"f1": "w1"}}, "f1: assigned workers must be a list"),
            (None, {"assignment": {"f1": ["w1"]}, "unmatched": "w6"}, "'unmatched' must be a list"),
        ],
        ids=[
            "ranking-int",
            "ranking-null",
            "member-list",
            "ranked-set-empty",
            "prefs-list",
            "assigned-list",
            "assigned-repeat",
            "unmatched-int",
            "unmatched-repeat",
            "matching-list",
            "assignment-list",
            "assigned-str",
            "unmatched-str",
        ],
    )
    def test_wrong_json_types_exit_1(self, capsys, tmp_path, firm_prefs, mu, message):
        market = json.loads((MARKETS_DIR / "example1.json").read_text())
        if firm_prefs is not None:
            market["firm_prefs"] = firm_prefs
        argv = ["enumerate", write(tmp_path, "market.json", market)]
        if mu is not None:
            argv = ["cycles", argv[1], "--mu", write(tmp_path, "mu.json", mu)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["da", EX1], "the following arguments are required: --proposing"),
            (["gen", "--firms", "x"], "argument --firms: invalid int value: 'x'"),
            ([], "the following arguments are required: command"),
            (["enumerate", EX1, "--bogus"], "unrecognized arguments: --bogus"),
            (["validate", EX1, "--cap", "2"], "unrecognized arguments: --cap 2"),
        ],
        ids=["missing-option", "bad-int", "no-command", "unknown-option", "removed-cap"],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["da", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit_.value.code, err) == (0, "") and out.startswith("usage: manymatch")

    @pytest.mark.parametrize("role", ["market", "mu"])
    def test_duplicate_key_exits_1(self, capsys, tmp_path, role):
        path = tmp_path / "dup.json"
        if role == "market":
            path.write_text(
                '{"firms": ["f1"], "workers": ["w1", "w2"], "firm_prefs": {"f1": [["w1"]], "f1": [["w2"]]},'
                ' "worker_prefs": {"w1": [["f1"]], "w2": [["f1"]]}}'
            )
            argv = ["enumerate", str(path)]
        else:
            path.write_text('{"assignment": {"f1": ["w1", "w2"], "f1": ["w3"]}}')
            argv = ["cycles", EX1, "--mu", str(path)]
        assert run(capsys, *argv) == (1, "", f"error: {path}: duplicate key 'f1'\n")

    @pytest.mark.parametrize(
        "argv", [["enumerate", EX1], ["gen", "--firms", "2", "--workers", "2"]], ids=["enumerate", "gen"]
    )
    def test_unwritable_out_exits_1(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: {os.strerror(errno.ENOENT)}\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize("role", ["market", "mu"])
    def test_deeply_nested_json_exits_1(self, capsys, tmp_path, role):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["validate", str(path)] if role == "market" else ["cycles", EX1, "--mu", str(path)]
        assert run(capsys, *argv) == (1, "", f"error: {path} is nested too deeply\n")

    @pytest.mark.parametrize("role", ["market", "mu"])
    def test_non_utf8_json_exits_1(self, capsys, tmp_path, role):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        argv = ["validate", str(path)] if role == "market" else ["cycles", EX1, "--mu", str(path)]
        assert run(capsys, *argv) == (1, "", f"error: {path} is not UTF-8 text\n")

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="this interpreter reads integers of any length")
    def test_number_past_the_digit_limit_exits_1(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"firms": [' + "9" * (INT_DIGIT_LIMIT + 1) + "]}", encoding="utf-8")
        assert run(capsys, "enumerate", str(path)) == (1, "", f"error: {path} holds a number too long to read\n")

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(
            [
                ["validate"],
                ["da", "--proposing", "firms", "--trace"],
                ["da", "--proposing", "workers", "--trace"],
                ["enumerate"],
                ["enumerate", "--trace"],
                ["oracle"],
                ["mms"],
                ["compare"],
                ["cycles", "--mu"],
                ["reduce", "--mu"],
            ]
        ),
        market_and_mu=_market_and_matching(),
    )
    def test_arbitrary_json_ends_in_a_documented_exit(self, capsys, tmp_path, command, market_and_mu):
        market, mu = market_and_mu
        argv = [command[0], write(tmp_path, "market.json", market), *command[1:]]
        if argv[-1] == "--mu":
            argv.append(write(tmp_path, "mu.json", mu))
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        # Every drawn name is printed escaped: no line break, escape or
        # surrogate reaches the terminal.
        assert (out + err).replace("\n", "").isprintable()
        if code == 2 and command == ["validate"]:  # the per-agent report, not an error
            assert not err.startswith("error:") and out
        elif code:
            assert err.startswith("error: ") and err.count("\n") == 1 and out == ""

    def test_newline_in_a_name_keeps_one_error_line(self, capsys, tmp_path):
        market = {"firms": ["a\nb"], "workers": [], "firm_prefs": {"a\nb": 5}, "worker_prefs": {}}
        code, out, err = run(capsys, "enumerate", write(tmp_path, "market.json", market))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_lone_surrogate_in_a_name_validates(self, capsys, tmp_path):
        path = tmp_path / "market.json"
        path.write_text('{"firms": ["\\ud800"], "workers": [], "firm_prefs": {}, "worker_prefs": {}}')
        assert run(capsys, "validate", str(path)) == (0, "\\ud800: substitutable=yes lad=yes\n", "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "enumerate", "/nonexistent.json")
        assert code == 1 and "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert run(capsys, "oracle", str(path))[0] == 1

    def test_unknown_reference(self, capsys, tmp_path):
        market = write(
            tmp_path,
            "bad.json",
            {"firms": ["f1"], "workers": ["w1"], "firm_prefs": {"f1": [["w7"]]}, "worker_prefs": {}},
        )
        assert run(capsys, "enumerate", market)[0] == 1

    def test_axiom_violation_exit_code(self, capsys, tmp_path):
        market = write(
            tmp_path,
            "bad.json",
            {
                "firms": ["f1"],
                "workers": ["w1", "w2"],
                "firm_prefs": {"f1": [["w1", "w2"]]},
                "worker_prefs": {"w1": [["f1"]], "w2": [["f1"]]},
            },
        )
        assert run(capsys, "enumerate", market)[0] == 2

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["enumerate", "NOT_LAD"], "globex violates the law of aggregate demand"),
            (["mms", "NOT_LAD"], "globex violates the law of aggregate demand"),
            (["compare", "NOT_LAD"], "globex violates the law of aggregate demand"),
            (["da", "NOT_LAD", "--proposing", "firms"], "globex violates the law of aggregate demand"),
            (["reduce", "NOT_LAD", "--mu", "EMPTY"], "globex violates the law of aggregate demand"),
            (["cycles", "NOT_LAD", "--mu", "EMPTY"], "globex violates the law of aggregate demand"),
            # Without the axiom check, the reduction calls the only stable
            # matching of NOT_SUBSTITUTABLE_W1 unstable (exit 1), and
            # firm-proposing DA matches f1 to w1 in NOT_SUBSTITUTABLE_F2,
            # which w1 does not accept alone (exit 0).
            (["cycles", "NOT_SUBSTITUTABLE_W1", "--mu", "EMPTY"], "w1 violates substitutability"),
            (["reduce", "NOT_SUBSTITUTABLE_W1", "--mu", "EMPTY"], "w1 violates substitutability"),
            (["da", "NOT_SUBSTITUTABLE_F2", "--proposing", "firms"], "f2 violates substitutability"),
        ],
        ids=["enumerate", "mms", "compare", "da", "reduce", "cycles", "cycles-w1", "reduce-w1", "da-f2"],
    )
    def test_axiom_violation_names_the_agent(self, capsys, tmp_path, argv, culprit):
        argv = [write(tmp_path, f"{a}.json", _FILES[a]) if a in _FILES else a for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {culprit}\n")

    def test_oracle_does_not_check_the_axioms(self, capsys, tmp_path):
        code, _, err = run(capsys, "oracle", write(tmp_path, "bad.json", NOT_LAD))
        assert (code, err) == (0, "")
