"""Tests of the benchmark's own pieces.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

from pathlib import Path

import pytest

import manymatch.enumeration as enumeration
import manymatch.matching as matching
from manymatch.matching import Matching, brute_force_stable_set, stability
import tracing
import workloads
from workloads import WrongResult, build_lattice, fresh_profile

ROOT = Path(__file__).resolve().parent.parent


def test_lattice_builder_knows_the_stable_set():
    market, expected = build_lattice(seed=3, target=4)
    profile = fresh_profile(market)
    assert market[0] == market[1] == 6
    assert len(expected) == len(set(expected)) == 4
    assert [m.assign for m in brute_force_stable_set(profile)] == expected
    found, _ = enumeration.stable_set(profile, validate=False)
    assert [m.assign for m in found] == expected
    assert all(stability(profile, m).stable for m in found)


def test_lattice_builder_is_seeded():
    assert build_lattice(seed=5, target=8) == build_lattice(seed=5, target=8)
    assert build_lattice(seed=5, target=8) != build_lattice(seed=6, target=8)
    with pytest.raises(ValueError):
        build_lattice(seed=5, target=6)


def test_lattice_check_rejects_a_wrong_set():
    wl = workloads.Lattice(ROOT, seed=2)
    wl.setup()
    out = wl.op(0)
    assert wl.check(0, out) == (1, workloads.LATTICE_TARGET)
    with pytest.raises(WrongResult):
        wl.check(0, out[1:])
    with pytest.raises(WrongResult):
        wl.check(0, out[:-1] + [out[0]])


def test_mms_check_rejects_a_matching_outside_the_set():
    wl = workloads.Mms(ROOT, seed=2)
    wl.setup()
    n_firms, n_workers = wl.markets[0][:2]
    with pytest.raises(WrongResult):
        wl.check(0, [Matching((0,) * n_firms, n_workers)])


def test_tracer_counts_repeat_and_wrappers_are_restored():
    market, _ = build_lattice(seed=1, target=8)
    originals = {(m, a): getattr(m, a) for m, a, _ in tracing.SPANNED}
    original_choice = matching.choice
    tracer = tracing.Tracer()
    passes = []
    for _ in range(2):
        with tracer.installed():
            first = tracer.begin_pass()
            enumeration.stable_set(fresh_profile(market), validate=False)
            passes.append(tracer.summary(first))
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    assert matching.choice is original_choice
    counts = [{k: p[k] for k in tracing.COUNTS} for p in passes]
    assert counts[0] == counts[1]
    assert counts[0]["enumeration.expansions"] == counts[0]["reduction.calls"] == 7
    assert counts[0]["matching.stability_calls"] == 14
    assert counts[0]["da.calls"] == 2
    assert counts[0]["core.choice_calls"] > counts[0]["core.choice_distinct"] > 0
    p = passes[0]
    assert 0 <= p["reduction.self_s"] <= p["reduction.s"]
