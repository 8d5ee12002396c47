"""The benchmark's workloads: how each builds its inputs from a seed, what one
timed operation ("op") does, and how its output is checked.

Every workload is a closed loop with one client: the next op starts when the
previous one (and its untimed check) has finished. Each op builds its own
`Profile`, so it starts with a cold choice cache, as every CLI call does.
Program functions are looked up on their modules at call time (`E.stable_set`,
not a name imported once), so the outside-in tracer in `tracing.py` sees the
benchmark's own calls as well as the calls between library modules.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import manymatch.cli as C
import manymatch.enumeration as E
import manymatch.serialize as S
from manymatch.core import Preference, Profile, Side, bit_indices, firm, worker
from manymatch.da import deferred_acceptance
from manymatch.gen import GenConfig, random_market
from manymatch.matching import Matching, brute_force_stable_set, rural_hospitals_holds, stability


class WrongResult(Exception):
    """An op returned an output that fails the workload's check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


# --- markets kept as plain ranked lists, so each op can build a fresh Profile ---


def ranked_lists(profile: Profile) -> tuple[int, int, tuple, tuple]:
    return (
        profile.n_firms,
        profile.n_workers,
        tuple(p.ranked for p in profile.firm_prefs),
        tuple(p.ranked for p in profile.worker_prefs),
    )


def fresh_profile(market: tuple[int, int, tuple, tuple]) -> Profile:
    n_firms, n_workers, firm_ranked, worker_ranked = market
    return Profile(
        n_firms,
        n_workers,
        tuple(Preference(firm(i), r) for i, r in enumerate(firm_ranked)),
        tuple(Preference(worker(i), r) for i, r in enumerate(worker_ranked)),
    )


class GenTimer:
    """Sums the time set-up spends in `random_market`, reported as `gen.s`."""

    def __init__(self) -> None:
        self.s = 0.0

    def market(self, cfg: GenConfig) -> Profile:
        started = time.perf_counter()
        profile = random_market(cfg)
        self.s += time.perf_counter() - started
        return profile


# --- lattice: a disjoint union of small blocks with a known stable set ---

BLOCK_FIRMS = 3
BLOCK_WORKERS = 3
LATTICE_TARGET = 128
LATTICE_MARKETS = 4


def _remap(mask: int, offset: int, perm: list[int]) -> int:
    out = 0
    for i in bit_indices(mask):
        out |= 1 << perm[offset + i]
    return out


def build_lattice(seed: int, target: int = LATTICE_TARGET, gen: GenTimer | None = None):
    """A market whose stable set is known without running the enumeration.

    Blocks are 3x3 responsive markets (quota 2, every partner acceptable);
    only 3-firm blocks ever have several stable matchings at quota 2, and a
    block is kept when the oracle finds exactly 2. Keeping exactly 2 makes
    the product of the block counts a power of two that reaches `target`
    exactly (it must be one), so every seed gives the same lattice shape:
    for 128, 7 blocks, 127 reductions and 448 cyclic matchings. In the union no
    agent finds an agent of another block acceptable, so the union's stable
    set is the product of the blocks' stable sets. Agent indices are then
    shuffled by the seed.

    Returns the market as ranked lists and the expected stable set as sorted
    firm-side assignment tuples.
    """
    if target < 2 or target & (target - 1):
        raise ValueError("target must be a power of two, at least 2")
    gen = gen or GenTimer()
    rng = random.Random(seed)
    blocks: list[tuple[Profile, list[Matching]]] = []
    while 1 << len(blocks) < target:
        block = gen.market(
            GenConfig(BLOCK_FIRMS, BLOCK_WORKERS, quota=2, acceptability_prob=1.0,
                      seed=rng.randrange(1 << 31))
        )
        stable = brute_force_stable_set(block)
        if len(stable) == 2:
            blocks.append((block, stable))

    n_firms = BLOCK_FIRMS * len(blocks)
    n_workers = BLOCK_WORKERS * len(blocks)
    fperm = list(range(n_firms))
    wperm = list(range(n_workers))
    rng.shuffle(fperm)
    rng.shuffle(wperm)
    firm_ranked: list[tuple[int, ...]] = [()] * n_firms
    worker_ranked: list[tuple[int, ...]] = [()] * n_workers
    block_assigns = []  # per block: its stable matchings as {union firm: union worker mask}
    for b, (block, stable) in enumerate(blocks):
        fo, wo = b * BLOCK_FIRMS, b * BLOCK_WORKERS
        for i, pref in enumerate(block.firm_prefs):
            firm_ranked[fperm[fo + i]] = tuple(_remap(e, wo, wperm) for e in pref.ranked)
        for i, pref in enumerate(block.worker_prefs):
            worker_ranked[wperm[wo + i]] = tuple(_remap(e, fo, fperm) for e in pref.ranked)
        block_assigns.append(
            [{fperm[fo + i]: _remap(ws, wo, wperm) for i, ws in enumerate(m.assign)} for m in stable]
        )
    expected = []
    for combo in itertools.product(*block_assigns):
        assign = [0] * n_firms
        for part in combo:
            for f, ws in part.items():
                assign[f] = ws
        expected.append(tuple(assign))
    expected.sort()
    return (n_firms, n_workers, tuple(firm_ranked), tuple(worker_ranked)), expected


# --- workloads ---


class Workload:
    """One named workload. `setup` is timed (and repeated), `op` is timed,
    `check` is not. `check` raises WrongResult and returns how many markets
    and stable matchings the op handled."""

    name = ""
    inputs = 1  # op i works on input i % inputs
    trace_ops = 1  # ops in one traced pass; a pass always covers the same ops

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.gen = GenTimer()

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[int, int]:
        raise NotImplementedError


class _LatticeBase(Workload):
    inputs = LATTICE_MARKETS
    trace_ops = LATTICE_MARKETS

    def setup(self) -> None:
        self.gen = GenTimer()
        rng = random.Random(self.seed)
        built = [build_lattice(rng.randrange(1 << 31), gen=self.gen) for _ in range(self.inputs)]
        self.markets = [market for market, _ in built]
        self.expected = [expected for _, expected in built]
        self.expected_sets = [set(expected) for expected in self.expected]
        self.verified: set[int] = set()

    def _verify_once(self, k: int, matchings: list[Matching]) -> None:
        # A full stability() diagnosis runs on the first output for each
        # market; later outputs are held to the expected set it covered.
        if k in self.verified:
            return
        profile = fresh_profile(self.markets[k])
        for m in matchings:
            require(stability(profile, m).stable, "unstable matching in the output")
        self.verified.add(k)


class Lattice(_LatticeBase):
    name = "lattice"

    def op(self, i: int):
        profile = fresh_profile(self.markets[i % self.inputs])
        matchings, _ = E.stable_set(profile, validate=False)
        return matchings

    def check(self, i: int, out) -> tuple[int, int]:
        k = i % self.inputs
        # The expected set is sorted and distinct, so equality also checks
        # that the output is distinct and that its count is the product.
        got = sorted(m.assign for m in out)
        require(got == self.expected[k],
                f"{len(got)} matchings differ from the {len(self.expected[k])} of the block product")
        self._verify_once(k, out)
        return 1, len(out)


class Mms(_LatticeBase):
    name = "mms"

    def op(self, i: int):
        profile = fresh_profile(self.markets[i % self.inputs])
        matchings, _ = E.mms_algorithm(profile, validate=False)
        return matchings

    def check(self, i: int, out) -> tuple[int, int]:
        k = i % self.inputs
        got = [m.assign for m in out]
        require(len(set(got)) == len(got), "duplicate matchings")
        require(all(a in self.expected_sets[k] for a in got), "a matching outside the stable set")
        self._verify_once(k, out)
        return 1, len(out)


DENSE_MARKETS = 8


class Dense(Workload):
    """12x12 markets at the validation cap; what `enumerate` does in process."""

    name = "dense"
    inputs = DENSE_MARKETS
    trace_ops = 2

    def setup(self) -> None:
        self.gen = GenTimer()
        rng = random.Random(self.seed)
        self.texts = []
        for i in range(DENSE_MARKETS):
            quota, prob = (1, 1.0) if i % 2 == 0 else (2, 0.5)
            profile = self.gen.market(GenConfig(12, 12, quota, prob, rng.randrange(1 << 31)))
            self.texts.append(S.dumps(S.market_to_obj(profile)))

    def op(self, i: int):
        profile = S.parse_market(json.loads(self.texts[i % self.inputs]))
        matchings, _ = E.stable_set(profile)
        text = S.dumps([S.matching_to_obj(m, profile) for m in matchings])
        return profile, matchings, text

    def check(self, i: int, out) -> tuple[int, int]:
        profile, matchings, text = out
        # 13^12 candidates put this market beyond the oracle: check what holds
        # for every stable set instead.
        require(matchings, "empty stable set")
        require(all(stability(profile, m).stable for m in matchings), "unstable matching")
        require(rural_hospitals_holds(matchings), "rural hospitals theorem fails")
        have = {m.assign for m in matchings}
        for side in (Side.FIRM, Side.WORKER):
            require(deferred_acceptance(profile, side)[0].assign in have, f"{side.value} optimum missing")
        emitted = [S.parse_matching(obj, profile).assign for obj in json.loads(text)]
        require(emitted == [m.assign for m in matchings], "emitted JSON differs from the result")
        return 1, len(matchings)


CORPUS_MARKETS = 250


def corpus_config(i: int, seed: int) -> GenConfig:
    """The acceptance corpus's blend (2-4 firms, 2-5 workers, quota at most
    2), with market seeds drawn from the benchmark seed."""
    if i % 2 == 0:
        return GenConfig((3, 4)[(i // 2) % 2], (4, 5)[(i // 4) % 2], 1, 1.0, seed)
    return GenConfig((2, 3, 4)[i % 3], (2, 3, 4, 4)[i % 4], 2, (0.9, 1.0)[(i // 2) % 2], seed)


class Corpus(Workload):
    """`compare_algorithms` over many small markets, as a property tester runs it."""

    name = "corpus"
    inputs = CORPUS_MARKETS
    trace_ops = 100

    def setup(self) -> None:
        self.gen = GenTimer()
        rng = random.Random(self.seed)
        self.markets = [
            ranked_lists(self.gen.market(corpus_config(i, rng.randrange(1 << 31))))
            for i in range(CORPUS_MARKETS)
        ]

    def op(self, i: int):
        return E.compare_algorithms(fresh_profile(self.markets[i % self.inputs]))

    def check(self, i: int, out) -> tuple[int, int]:
        require(out.cycle_matches_oracle, "cycle enumeration differs from the oracle")
        return 1, len(out.oracle)


CLI_COMMANDS = (("enumerate", "markets/example1.json"), ("compare", "markets/example2.json"))


class Cli(Workload):
    """The shipped examples through `python -m manymatch.cli`, one subprocess
    at a time. Op i runs command i % 2; the inputs are the committed example
    files, so the seed does not change them."""

    name = "cli"
    inputs = len(CLI_COMMANDS)
    trace_ops = len(CLI_COMMANDS)

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)

    def setup(self) -> None:
        # The expected stdout of each command, computed in this process, and
        # the stable matchings in it: the enumerated set, or the oracle's set.
        self.expected = []
        self.matchings = []
        for command, market in CLI_COMMANDS:
            if command == "enumerate":
                path = self.root / market
                profile = S.parse_market(json.loads(path.read_text(encoding="utf-8")))
                matchings, _ = E.stable_set(profile)
                text = S.dumps([S.matching_to_obj(m, profile) for m in matchings])
                self.matchings.append(len(matchings))
            else:
                text = self.in_process(command, market)
                self.matchings.append(len(json.loads(text)["oracle"]))
            self.expected.append(text.encode("utf-8"))

    def in_process(self, command: str, market: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = C.main([command, str(self.root / market)])
        require(code == 0, f"in-process {command} exited {code}")
        return out.getvalue()

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env, capture_output=True, timeout=120
        )

    def warm_up(self) -> None:
        # The first run of a checkout compiles .pyc files; users pay that once.
        for command, market in CLI_COMMANDS:
            self.python("-m", "manymatch.cli", command, market)

    def op(self, i: int):
        return self.python("-m", "manymatch.cli", *CLI_COMMANDS[i % self.inputs])

    def check(self, i: int, out) -> tuple[int, int]:
        k = i % self.inputs
        command = CLI_COMMANDS[k][0]
        require(out.returncode == 0, f"{command} exited {out.returncode}: {out.stderr[-300:]!r}")
        require(out.stdout == self.expected[k], f"{command} output differs from the in-process result")
        return 1, self.matchings[k]


class CliTraced(Cli):
    """In a traced run the same commands go through `cli.main` in process,
    so the tracer sees parsing, validation, enumeration and emission."""

    def op(self, i: int):
        return self.in_process(*CLI_COMMANDS[i % self.inputs])

    def check(self, i: int, out) -> tuple[int, int]:
        k = i % self.inputs
        require(out.encode("utf-8") == self.expected[k], f"{CLI_COMMANDS[k][0]} output differs")
        return 1, self.matchings[k]


WORKLOADS = {w.name: w for w in (Lattice, Mms, Dense, Corpus, Cli)}
