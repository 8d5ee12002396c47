"""Command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from conftest import MARKETS_DIR
from manymatch.cli import main

EX1 = str(MARKETS_DIR / "example1.json")
EX2 = str(MARKETS_DIR / "example2.json")


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

    def test_cap_counts_acceptable_partners(self, capsys, tmp_path):
        # A 14-wide side; only f2, which accepts 13 workers, is past the cap.
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
        assert (code, out) == (3, "")
        assert "2^13 subsets exceeds cap 12" in err
        code, out, _ = run(capsys, "validate", market, "--cap", "13")
        assert code == 0
        assert out.count("substitutable=yes lad=yes") == 16


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

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "enumerate", EX1, "--out", str(target))
        assert code == 0
        assert out == ""
        assert len(json.loads(target.read_text())) == 4


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


class TestGoldenOutput:
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


class TestGen:
    def test_gen_validates_and_is_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                capsys, "gen", "--firms", "3", "--workers", "4", "--quota", "2",
                "--prob", "0.6", "--seed", "42", "--out", str(target),
            )
            assert code == 0
        assert a.read_text() == b.read_text()
        assert run(capsys, "validate", str(a))[0] == 0

    def test_gen_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "gen", "--firms", "1", "--workers", "13", "--prob", "1.0"
        )
        assert code == 3
        assert "error" in err


class TestErrorPaths:
    @pytest.mark.parametrize(
        "firm_prefs, mu",
        [
            ({"f1": 5}, None),
            ({"f1": None}, None),
            ({"f1": [[["w1"]]]}, None),
            (None, {"assignment": {"f1": [["w1"]]}}),
            (None, {"assignment": {"f1": ["w1"]}, "unmatched": [1, "a"]}),
        ],
        ids=["ranking-int", "ranking-null", "member-list", "assigned-list", "unmatched-int"],
    )
    def test_wrong_json_types_exit_1(self, capsys, tmp_path, firm_prefs, mu):
        market = json.loads((MARKETS_DIR / "example1.json").read_text())
        if firm_prefs is not None:
            market["firm_prefs"] = firm_prefs
        argv = ["enumerate", write(tmp_path, "market.json", market)]
        if mu is not None:
            argv = ["cycles", argv[1], "--mu", write(tmp_path, "mu.json", mu)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
