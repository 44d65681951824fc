"""The four workloads: seeded inputs, rounds of jobs, and their checks.

Each workload draws its inputs from fixed pools with a seeded generator.
Pools are drawn round-robin (a seeded permutation, then the next), and
every pool's size divides the workload's cycle, so each whole cycle of
rounds runs every pool entry equally often: the seed changes the order,
not the mix, and medians compare across seeds.  A round is one draw from
every pool, run one job at a time.  Jobs marked as repeats ask the same
question again within the round and must return the same bytes: from the
result cache where the command caches, as a plain repeated call for
classify.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import idemfree
from idemfree import SemigroupParams, Sequence, format_index_multiset

import facts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_TIMEOUT_S = 120


class JobFailure(Exception):
    """A job ended without a payload: bad exit code, stderr output, timeout."""


@dataclass
class Context:
    cache_dir: Path
    tracer: object = None          # the Tracer of a traced round, else None
    cli_workers: int = 2
    span_seq: int = 0


@dataclass
class Job:
    key: str                                   # equal keys give equal payloads
    call: Callable[[Context], str]             # runs the job, returns the payload
    check: Callable[[str], str | None]         # error text for a wrong payload
    repeat: bool = False                       # asks a question asked earlier in the round


class Picker:
    """Seeded round-robin draw: a permutation of the pool, then another."""

    def __init__(self, rng: random.Random, pool):
        self._rng, self._pool, self._queue = rng, list(pool), []

    def __call__(self):
        if not self._queue:
            self._queue = self._rng.sample(self._pool, len(self._pool))
        return self._queue.pop()


def _payload(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _repeats(jobs: list[Job]) -> list[Job]:
    return [Job(j.key, j.call, j.check, repeat=True) for j in jobs]


# ---------------------------------------------------------------------------
# thresholds: in-process DFS searches

def threshold_job(which: str, k: int, n: int) -> Job:
    def call(ctx: Context) -> str:
        cache = str(ctx.cache_dir)
        if which == "index":
            return _payload(idemfree.index_threshold(n, cache=cache))
        fn = (idemfree.free_smooth_threshold if which == "free-smooth"
              else idemfree.minimal_smooth_threshold)
        return _payload(fn(SemigroupParams(k, n), cache=cache))

    def check(payload: str) -> str | None:
        return facts.check_invariant(json.loads(payload), which, k, n)

    label = f"n={n}" if which == "index" else f"C_{{{k};{n}}}"
    return Job(f"lib {which} {label}", call, check)


class Thresholds:
    """free/minimal-smooth thresholds of one pair per regime, plus one index threshold."""

    name = "thresholds"
    burst = "cpu"
    cycle = 4
    cycle_seconds = 3.6
    POOLS = {
        "group": [(8, 11), (8, 12), (9, 11), (9, 12)],
        "odd": [(17, 1), (19, 1), (19, 3), (15, 7)],
        "even": [(11, 9), (13, 8), (14, 8), (15, 6)],
        "period2": [(17, 2), (18, 2), (19, 2), (20, 2)],
    }
    INDEX_POOL = [11, 12, 13, 14]

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.pickers = {regime: Picker(rng, pool) for regime, pool in self.POOLS.items()}
        self.pick_index = Picker(rng, self.INDEX_POOL)
        self.probe_pair = rng.choice(self.POOLS["group"])

    def round(self) -> list[Job]:
        jobs = []
        for pick in self.pickers.values():
            k, n = pick()
            jobs += [threshold_job("free-smooth", k, n), threshold_job("minimal-smooth", k, n)]
        jobs.append(threshold_job("index", 1, self.pick_index()))
        return jobs + _repeats(jobs)

    def fanout_call(self, workers: int) -> str:
        return _payload(idemfree.minimal_smooth_threshold(
            SemigroupParams(*self.probe_pair), workers=workers))


# ---------------------------------------------------------------------------
# verify: exhaustive windows and the critical-case split

def verify_job(what: str, k: int, n: int, max_length: int | None = None) -> Job:
    def call(ctx: Context) -> str:
        params = SemigroupParams(k, n)
        if what == "structure":
            return _payload(idemfree.verify_structure(params, max_length,
                                                      cache=str(ctx.cache_dir)))
        return _payload(idemfree.verify_critical_cases(params, cache=str(ctx.cache_dir)))

    def check(payload: str) -> str | None:
        return facts.check_verify(json.loads(payload), what, k, n, max_length)

    suffix = f" len<={max_length}" if max_length else ""
    return Job(f"lib verify-{what} C_{{{k};{n}}}{suffix}", call, check)


class Verify:
    """One tail-regime window, one group-regime window and one case split."""

    name = "verify"
    burst = "cpu"
    cycle = 4
    cycle_seconds = 1.4
    TAIL_WINDOWS = [(7, 4, 8), (8, 3, 8), (9, 2, 8), (6, 4, 9)]
    GROUP_WINDOWS = [(5, 5, 7), (5, 6, 7), (4, 5, 8), (6, 6, 7)]
    CASES = [(8, 1), (7, 2), (8, 2), (9, 1)]

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.tail = Picker(rng, self.TAIL_WINDOWS)
        self.group = Picker(rng, self.GROUP_WINDOWS)
        self.cases = Picker(rng, self.CASES)
        self.probe_window = rng.choice(self.TAIL_WINDOWS)

    def round(self) -> list[Job]:
        jobs = [verify_job("structure", *self.tail()),
                verify_job("structure", *self.group()),
                verify_job("cases", *self.cases())]
        return jobs + _repeats(jobs)

    def fanout_call(self, workers: int) -> str:
        k, n, max_length = self.probe_window
        return _payload(idemfree.verify_structure(SemigroupParams(k, n), max_length,
                                                  workers=workers))


# ---------------------------------------------------------------------------
# classify: single-sequence reports and the text format

CLASSIFY_PAIRS = [(5, 3), (7, 4), (4, 9), (6, 6), (13, 2), (11, 5), (3, 12), (9, 1),
                  (10, 7), (8, 8)]


def random_sequence(rng: random.Random, k: int, n: int) -> list[int]:
    """Length 1 to past t+n-2; one in five carries a long run of one index."""
    size = k + n - 1
    longest = facts.threshold(k, n) + n + 2
    values = [rng.randint(1, size) for _ in range(rng.randint(1, longest))]
    if rng.random() < 0.2:
        values += [rng.randint(1, size)] * rng.randint(longest, 4 * longest)
    return sorted(values)


def scrambled_text(rng: random.Random, values: list[int]) -> str:
    """A valid but non-canonical rendering: runs split, tokens shuffled."""
    tokens = []
    for v, left in sorted(Counter(values).items()):
        while left:
            take = rng.randint(1, left)
            tokens.append(f"{v}^{take}" if take > 1 or rng.random() < 0.3 else str(v))
            left -= take
    rng.shuffle(tokens)
    return ",".join(tokens)


def classify_job(batch: list[tuple[int, int, list[int], str]]) -> Job:
    """Classify each (k, n, values, text) of a batch; payloads one per line."""
    canonical = [facts.format_multiset(values) for _, _, values, _ in batch]

    def call(ctx: Context) -> str:
        lines = []
        for (k, n, _, text), want in zip(batch, canonical):
            seq = Sequence.parse(SemigroupParams(k, n), text)
            lines.append(json.dumps(idemfree.classify(seq).to_json_dict(), sort_keys=True))
            if format_index_multiset(seq.indices) != want:
                raise JobFailure(f"{text!r} formats as {format_index_multiset(seq.indices)!r}")
        return "\n".join(lines)

    def check(payload: str) -> str | None:
        for (k, n, values, _), line in zip(batch, payload.split("\n")):
            error = facts.check_classification(json.loads(line), k, n, values)
            if error:
                return f"C_{{{k};{n}}} {facts.format_multiset(values)}: {error}"
        return None

    key = " ".join(f"C_{{{k};{n}}}:{c}" for (k, n, _, _), c in zip(batch, canonical))
    return Job(f"lib classify {key}", call, check)


class Classify:
    """Jobs of five random sequences per pair in the pool; the first job asked twice.

    A job spans every pair many times, so job costs vary little between
    seeds, and pauses of a few milliseconds do not set the tail.
    """

    name = "classify"
    burst = "cpu"
    cycle = 40
    cycle_seconds = 1.0
    JOBS = 2
    PER_PAIR = 5

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def round(self) -> list[Job]:
        jobs = []
        for _ in range(self.JOBS):
            batch = []
            pairs = CLASSIFY_PAIRS * self.PER_PAIR
            for k, n in self.rng.sample(pairs, len(pairs)):
                values = random_sequence(self.rng, k, n)
                batch.append((k, n, values, scrambled_text(self.rng, values)))
            jobs.append(classify_job(batch))
        return jobs + _repeats(jobs[:1])

    fanout_call = None


# ---------------------------------------------------------------------------
# cli: one process per call

def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("IDEMFREE_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CLI_ENV = cli_env()


def run_cli(argv: list[str], ctx: Context) -> str:
    """Run one CLI process to completion; its stdout, or JobFailure."""
    span_file = None
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "idemfree.cli", *argv]
    else:
        ctx.span_seq += 1
        span_file = ctx.cache_dir.parent / f"spans-{ctx.span_seq}.json"
        cmd = [sys.executable, str(HERE / "launch.py"), str(span_file), *argv]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=CLI_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise JobFailure(f"timed out after {CLI_TIMEOUT_S}s")
    wall = perf_counter() - t0
    if span_file is not None and span_file.is_file():
        data = json.loads(span_file.read_text(encoding="utf-8"))
        span_file.unlink()
        ctx.tracer.merge(data)
        ctx.tracer.samples.setdefault("cli.import", []).append(data["import_s"])
        ctx.tracer.samples.setdefault("cli.interp", []).append(wall - data["inproc_s"])
    if proc.returncode != 0:
        raise JobFailure(f"exit code {proc.returncode}: {err.strip()[-300:]}")
    if err:
        raise JobFailure(f"unexpected stderr: {err.strip()[-300:]}")
    return out


def _text_payload(out: str) -> dict:
    key_values = (line.split(": ", 1) for line in out.splitlines())
    return {key: json.loads(value) for key, value in key_values}


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return text


def _table_rows(out: str, fmt: str) -> list[dict]:
    lines = (list(csv.reader(io.StringIO(out))) if fmt == "csv"
             else [line.split("\t") for line in out.splitlines()])
    header, body = lines[0], lines[1:]
    return [{h: _cell(c) for h, c in zip(header, row)} for row in body]


def check_table_row(row: dict, command: str) -> str | None:
    k, n = row["k"], row["n"]
    want = facts.proven_thresholds(k, n)
    for which in ("free_smooth", "minimal_smooth"):
        lo, hi = want[which.replace("_", "-")]
        if (row[f"{which}_lo"], row[f"{which}_hi"]) != (lo, hi):
            return f"C_{{{k};{n}}} {which} bounds {row[f'{which}_lo']}..{row[f'{which}_hi']}"
        if row[f"{which.split('_')[0]}_frontier_hit"] is not False:
            return f"C_{{{k};{n}}} {which} frontier hit"
        if not lo <= row[which] <= hi:
            return f"C_{{{k};{n}}} {which} = {row[which]} outside [{lo}, {hi}]"
    if command == "sweep" and row["status"] != "ok":
        return f"C_{{{k};{n}}} status {row['status']}"
    if command == "explore" and row["within_bounds"] is not True:
        return f"C_{{{k};{n}}} not within bounds"
    return None


def cli_job(argv: list[str], check: Callable[[str], str | None],
            cached: bool = False) -> Job:
    """argv without --workers/--cache-dir; cached calls get both."""
    def call(ctx: Context) -> str:
        extra = (["--workers", str(ctx.cli_workers), "--cache-dir", str(ctx.cache_dir)]
                 if cached else [])
        return run_cli(argv + extra, ctx)

    return Job("cli " + " ".join(argv), call, check)


def _cli_invariant(which: str, k: int, n: int) -> Job:
    argv = ["invariant", "--which", which, "--n", str(n)]
    if which != "index":
        argv += ["--k", str(k)]
    return cli_job(argv, lambda out: facts.check_invariant(json.loads(out), which, k, n),
                   cached=True)


def _cli_search(kind: str, k: int, n: int) -> Job:
    which = f"{kind}-smooth"
    return cli_job(["search", "--k", str(k), "--n", str(n), "--kind", kind],
                   lambda out: facts.check_invariant(json.loads(out), which, k, n),
                   cached=True)


def _cli_verify(what: str, k: int, n: int, max_length: int | None = None) -> Job:
    argv = ["verify", "--k", str(k), "--n", str(n), "--what", what]
    if max_length is not None:
        argv += ["--max-length", str(max_length)]
    return cli_job(argv, lambda out: facts.check_verify(json.loads(out), what, k, n,
                                                        max_length), cached=True)


def _cli_classify(k: int, n: int, values: list[int], fmt: str) -> Job:
    argv = ["classify", "--k", str(k), "--n", str(n),
            "--seq", facts.format_multiset(values), "--format", fmt]

    def check(out: str) -> str | None:
        payload = json.loads(out) if fmt == "json" else _text_payload(out)
        return facts.check_classification(payload, k, n, values)

    return cli_job(argv, check)


def _cli_table(command: str, fmt: str, spec: tuple[str, ...]) -> Job:
    if command == "sweep":
        argv = ["sweep", "--k-range", spec[0], "--n-range", spec[1], "--format", fmt]
        k_lo, k_hi = map(int, spec[0].split(":"))
        n_lo, n_hi = map(int, spec[1].split(":"))
        rows_expected = (k_hi - k_lo + 1) * (n_hi - n_lo + 1)
    else:
        argv = ["explore", "--pairs", spec[0], "--format", fmt]
        rows_expected = len(spec[0].split(","))

    def check(out: str) -> str | None:
        rows = _table_rows(out, fmt)
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        for row in rows:
            error = check_table_row(row, command)
            if error:
                return error
        return None

    return cli_job(argv, check)


class Cli:
    """Cold cached calls with --workers 2, the same calls warm, one classify, one table."""

    name = "cli"
    burst = "process"
    cycle = 4
    cycle_seconds = 7.0
    INVARIANT_PAIRS = [(7, 5), (9, 4), (8, 8), (11, 3)]
    INDEX_ORDERS = [8, 9, 10, 11]
    SEARCHES = [("free", 8, 3), ("minimal", 9, 5), ("free", 6, 6), ("minimal", 10, 2)]
    WINDOWS = [(5, 3, 9), (4, 5, 7), (6, 2, 9), (3, 6, 8)]
    CASES = [(5, 3), (6, 3), (8, 1), (7, 1)]
    CLASSIFY = [(5, 3, "json"), (4, 9, "text"), (13, 2, "json"), (9, 1, "text")]
    TABLES = [("sweep", "csv", ("2:6", "1:3")), ("sweep", "text", ("3:7", "2:3")),
              ("explore", "csv", ("4:3,5:4,7:5,8:3",)), ("explore", "text", ("6:5,8:4,9:3",))]

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        draw = lambda pool: Picker(self.rng, pool)  # noqa: E731
        self.invariant, self.index = draw(self.INVARIANT_PAIRS), draw(self.INDEX_ORDERS)
        self.search, self.window = draw(self.SEARCHES), draw(self.WINDOWS)
        self.cases, self.classify = draw(self.CASES), draw(self.CLASSIFY)
        self.tables = draw(self.TABLES)
        self.probe_pair = self.rng.choice(self.INVARIANT_PAIRS)

    def round(self) -> list[Job]:
        k, n = self.invariant()
        kind, sk, sn = self.search()
        cold = [_cli_invariant("free-smooth", k, n), _cli_invariant("minimal-smooth", k, n),
                _cli_invariant("index", 1, self.index()), _cli_search(kind, sk, sn),
                _cli_verify("structure", *self.window()), _cli_verify("cases", *self.cases())]
        ck, cn, fmt = self.classify()
        other = [_cli_classify(ck, cn, random_sequence(self.rng, ck, cn), fmt),
                 _cli_table(*self.tables())]
        return cold + _repeats(cold) + other

    def fanout_call(self, workers: int) -> str:
        return _payload(idemfree.minimal_smooth_threshold(
            SemigroupParams(*self.probe_pair), workers=workers))


WORKLOADS = {w.name: w for w in (Thresholds, Verify, Classify, Cli)}
