"""Benchmark for idemfree: four workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

NAME is one of thresholds, verify, classify, cli (see workloads.py and
README.md).  --trace 0 runs rounds of jobs for S seconds and reports the
end-to-end metrics.  --trace 1 runs a fixed number of rounds, each once
plainly and once with spans around idemfree's public functions, and
reports the per-layer metrics; its node and call counts repeat exactly for
a seed.  Every payload is checked against facts.py and, where recorded,
against the payload digests in digests.json; --record-digests rewrites
that file from the default seed.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
DIGEST_FILE = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_PROBES = 11
TAIL_BEYOND = 10
FANOUT_REPEATS = 3
KERNEL_BUDGET = 10**9
CAL_INTERVAL_S = 0.2

# The six kernel timings of benchmarks/bench_kernels.py, as (metric, kernel,
# spec): a scan spec is (k, n, free_bad_mode, minimal_bad_mode), a verify
# spec is (k, n, max_length).
REFERENCE_KERNELS = {
    "thresholds": [
        ("kernel.ref.scan_minimal_c13_13_s", "scan", (13, 13, 0, 2)),
        ("kernel.ref.scan_free_c12_12_s", "scan", (12, 12, 2, 0)),
        ("kernel.ref.scan_both_c17_2_s", "scan", (17, 2, 1, 1)),
        ("kernel.ref.scan_index_c1_12_s", "scan", (1, 12, 0, 3)),
    ],
    "verify": [
        ("kernel.ref.verify_c8_5_len12_s", "verify_window", (8, 5, 12)),
        ("kernel.ref.verify_c7_4_len11_s", "verify_window", (7, 4, 11)),
    ],
}


# ---------------------------------------------------------------------------
# machine-speed calibration

CAL_DOC = {"rows": [{"k": k, "n": k % 7 + 1, "witnesses": [str(w) for w in range(k)]}
                    for k in range(40)]}


def cpu_burst() -> float:
    """Seconds for fixed pure-Python work like the program's own.

    Half is a subset-sum bitmask DFS (the kernels); half is a JSON round
    trip of a small report (rendering, caching, parsing).
    """
    t0 = perf_counter()
    full = (1 << 40) - 1

    def visit(v, mask, depth):
        mask = (mask | (mask << v) | (1 << v)) & full
        if depth < 7:
            for w in range(v, 12):
                visit(w, mask, depth + 1)

    for v in range(1, 12):
        visit(v, 0, 1)
    for _ in range(8):
        json.loads(json.dumps(CAL_DOC, sort_keys=True, indent=1))
    return perf_counter() - t0


def process_burst() -> float:
    """Seconds to start and stop a bare interpreter, for jobs that are processes."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], stdout=subprocess.PIPE,
                   check=True, timeout=60)
    return perf_counter() - t0


# burst kind -> (burst, its duration at the reference speed)
BURSTS = {"cpu": (cpu_burst, 0.015), "process": (process_burst, 0.010)}


class Clock:
    """Calibration bursts interleaved with the jobs, to scale timings to one speed.

    The speed of a shared host drifts by tens of percent within seconds,
    which would swamp any regression bound.  So every end-to-end time is
    reported scaled to a reference speed: measured seconds times the
    burst's reference duration over the mean duration of the bursts around
    it (one before and after the pair that brackets it, to damp the
    jitter of single bursts).  The raw times are printed beside them.
    """

    def __init__(self, kind: str = "cpu"):
        self._burst, self._reference = BURSTS[kind]
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self, force: bool = False) -> int:
        """Run a burst if one is due; index of the latest burst."""
        if force or perf_counter() - self._last >= CAL_INTERVAL_S:
            self.samples.append(self._burst())
            self._last = perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for a timing taken between bursts index and index + 1."""
        return self._reference / statistics.fmean(self.samples[max(index - 1, 0):index + 3])


# ---------------------------------------------------------------------------
# running and checking rounds

@dataclass
class Outcome:
    key: str
    repeat: bool
    seconds: float           # as measured
    slot: int                # index of the last calibration burst before it
    payload: str | None      # dropped once checked; digest keeps its fingerprint
    error: str | None
    digest: str | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_digests() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8")) if DIGEST_FILE.is_file() else {}


def execute(jobs, ctx, clock: Clock) -> list[Outcome]:
    """Run a round's jobs in order, timing each between calibration bursts."""
    from workloads import JobFailure

    outcomes = []
    for job in jobs:
        slot = clock.tick()
        if ctx.tracer is not None:
            ctx.tracer.job += 1
        t0 = perf_counter()
        payload = error = None
        try:
            payload = job.call(ctx)
        except JobFailure as exc:
            error = str(exc)
        except Exception:  # a failing job is counted, and the run goes on
            error = traceback.format_exc(limit=-3)
        outcomes.append(Outcome(job.key, job.repeat, perf_counter() - t0, slot, payload, error))
    return outcomes


def check_round(jobs, outcomes: list[Outcome], digests: dict[str, str]) -> None:
    """Fill in outcome.error for wrong payloads, outside the timed region."""
    answers: dict[str, str] = {}
    for job, out in zip(jobs, outcomes):
        if out.error is None:
            try:
                out.error = job.check(out.payload)
            except Exception:
                out.error = "payload could not be read: " + traceback.format_exc(limit=-1)
        if out.error is None and out.key in digests and digest(out.payload) != digests[out.key]:
            out.error = "payload bytes differ from the digest recorded for this job"
        if out.error is None and out.repeat and answers.get(out.key) != out.payload:
            out.error = "repeated call returned different bytes"
        if not out.repeat and out.payload is not None:
            answers.setdefault(out.key, out.payload)
    for out in outcomes:
        if out.payload is not None:
            out.digest, out.payload = digest(out.payload), None


def run_round(jobs, ctx, clock: Clock, digests: dict[str, str]) -> list[Outcome]:
    """Execute a round in a fresh cache directory, then check it."""
    ctx.cache_dir.mkdir(parents=True)
    try:
        outcomes = execute(jobs, ctx, clock)
    finally:
        shutil.rmtree(ctx.cache_dir, ignore_errors=True)
    check_round(jobs, outcomes, digests)
    return outcomes


def make_ctx_factory(workdir: Path, tracer=None, cli_workers: int = 2):
    from workloads import Context

    def factory(label: str):
        return Context(cache_dir=workdir / label, tracer=tracer, cli_workers=cli_workers)
    return factory


class Tally:
    """What a run keeps of its jobs: raw times with their bursts, and the failures."""

    def __init__(self):
        self.seconds, self.slots = array("d"), array("l")
        self.repeats, self.round_of = array("b"), array("l")
        self.rounds = 0
        self.failures: list[tuple[str, str]] = []

    def add(self, outcomes: list[Outcome]) -> None:
        for out in outcomes:
            self.seconds.append(out.seconds)
            self.slots.append(out.slot)
            self.repeats.append(out.repeat)
            self.round_of.append(self.rounds)
            if out.error is not None:
                self.failures.append((out.key, out.error))
        self.rounds += 1

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def times(self, clock: Clock, scaled: bool = True) -> dict[str, list[float]]:
        """Per-round totals and cold and repeat job times, scaled or raw."""
        if scaled and self.slots[-1] + 1 >= len(clock.samples):
            clock.tick(force=True)
        out = {"rounds": [0.0] * self.rounds, "cold": [], "repeat": []}
        for seconds, slot, repeat, index in zip(self.seconds, self.slots, self.repeats,
                                                self.round_of):
            value = seconds * clock.scale(slot) if scaled else seconds
            out["rounds"][index] += value
            out["repeat" if repeat else "cold"].append(value)
        return out


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# probes: set-up time, fan-out, reference kernels

def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median (scaled, raw) set-up time over fresh processes.

    Each probe process times, from inside, importing idemfree and building
    the workload's first round; interpreter start-up is left out here (it
    is cli.interp_ms in the traced cli run).
    """
    clock, scaled, raw = Clock(), [], []
    for _ in range(SETUP_PROBES):
        slot = clock.tick(force=True)
        probe = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                "--seed", str(seed), "--setup-probe"],
                               cwd=ROOT, check=True, timeout=120, capture_output=True,
                               text=True)
        raw.append(float(probe.stdout))
        clock.tick(force=True)
        scaled.append(raw[-1] * clock.scale(slot))
    return statistics.median(scaled), statistics.median(raw)


def shard_share(fanout_call) -> float:
    """Largest shard's share of kernel nodes, over the shards search makes at workers=2.

    The shards run serially here so that their kernel calls can be counted.
    """
    from idemfree import _kernels, search

    if not hasattr(search, "_run_shards"):
        print("note: search._run_shards is gone; top_shard_share not measured",
              file=sys.stderr)
        return 0.0
    nodes: list[int] = []
    saved = (search._run_shards, _kernels.scan, _kernels.verify_window)

    def counted(fn):
        def inner(*args):
            result = fn(*args)
            nodes.append(result["nodes"])
            return result
        return inner

    search._run_shards = lambda worker, arg_lists, workers: [worker(a) for a in arg_lists]
    _kernels.scan, _kernels.verify_window = counted(saved[1]), counted(saved[2])
    try:
        fanout_call(2)
    finally:
        search._run_shards, _kernels.scan, _kernels.verify_window = saved
    return max(nodes) / sum(nodes) if sum(nodes) else 0.0


def fanout(workload) -> tuple[dict[str, float], list[str]]:
    """Same call at workers=1 and 2: speed-up, byte equality, shard balance."""
    if workload.fanout_call is None:
        return {"search.fanout.speedup_w2": 0.0, "search.fanout.top_shard_share": 0.0}, []
    times: dict[int, list[float]] = {1: [], 2: []}
    payloads: dict[int, str] = {}
    for _ in range(FANOUT_REPEATS):
        for workers in (1, 2):
            t0 = perf_counter()
            payloads[workers] = workload.fanout_call(workers)
            times[workers].append(perf_counter() - t0)
    errors = [] if payloads[1] == payloads[2] else ["fan-out probe: workers=2 bytes differ"]
    return {
        "search.fanout.speedup_w2": statistics.median(times[1]) / statistics.median(times[2]),
        "search.fanout.top_shard_share": shard_share(workload.fanout_call),
    }, errors


def kernel_args(kernel: str, spec: tuple) -> tuple:
    import facts

    k, n = spec[0], spec[1]
    size, t = k + n - 1, facts.threshold(k, n)
    if kernel == "scan":
        return (size, n, t, t + n, 1, size, spec[2], spec[3], KERNEL_BUDGET)
    return (size, n, t, k > n, facts.structure_bound(k, n), spec[2], 1, size, KERNEL_BUDGET)


def reference_kernels(workload: str, digests: dict[str, str]):
    """Time the bench_kernels workloads on the active backend; compare backends."""
    from idemfree import _kernels, _pykernels

    try:
        from idemfree import _ckernels
    except ImportError:
        _ckernels = None
    metrics = {metric: 0.0 for refs in REFERENCE_KERNELS.values() for metric, _, _ in refs}
    errors, ratios, results = [], [], {}
    for metric, kernel, spec in REFERENCE_KERNELS.get(workload, []):
        args = kernel_args(kernel, spec)
        t0 = perf_counter()
        result = getattr(_kernels, kernel)(*args)
        metrics[metric] = perf_counter() - t0
        text = json.dumps(result, sort_keys=True)
        results["ref " + metric] = text
        if digests.get("ref " + metric, digest(text)) != digest(text):
            errors.append(f"{metric}: kernel result differs from the recorded digest")
        if _ckernels is not None:
            seconds, answers = [], []
            for module in (_pykernels, _ckernels):
                t0 = perf_counter()
                answers.append(getattr(module, kernel)(*args))
                seconds.append(perf_counter() - t0)
            if answers[0] != answers[1]:
                errors.append(f"{metric}: compiled and pure kernels disagree")
            ratios.append(seconds[0] / seconds[1])
    metrics["kernel.compiled_speedup"] = (
        math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else 0.0)
    return metrics, errors, results


# ---------------------------------------------------------------------------
# the two kinds of run

def tail(values) -> tuple[float, float]:
    """Value with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def plain_run(workload, name: str, seed: int, seconds: float, workdir: Path,
              digests: dict[str, str]):
    factory = make_ctx_factory(workdir)
    clock, tally = Clock(workload.burst), Tally()
    cycles = max(1, round(seconds / workload.cycle_seconds))
    for i in range(cycles * workload.cycle):
        tally.add(run_round(workload.round(), factory(f"round-{i}"), clock, digests))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli"
                               else resource.RUSAGE_SELF)
    scaled, raw = tally.times(clock), tally.times(clock, scaled=False)
    setup, setup_raw = setup_seconds(name, seed)
    tail_s, tail_pct = tail(scaled["cold"])
    metrics = {
        "wall_s": (statistics.fmean(scaled["rounds"]), statistics.fmean(raw["rounds"])),
        "setup_s": (setup, setup_raw),
        "job_ms_p50": (statistics.median(scaled["cold"]) * 1000,
                       statistics.median(raw["cold"]) * 1000),
        "job_ms_tail": (tail_s * 1000, tail(raw["cold"])[0] * 1000),
        "peak_rss_mb": (usage.ru_maxrss / 1024, None),
    }
    notes = [f"rounds: {tally.rounds}, jobs: {len(scaled['cold'])}, "
             f"repeats: {len(scaled['repeat'])}",
             f"job_ms_tail is p{tail_pct:.2f} of {len(scaled['cold'])} jobs",
             f"repeat_ms_p50 = {statistics.median(scaled['repeat']) * 1000:.6g} ms "
             f"(raw {statistics.median(raw['repeat']) * 1000:.6g}; not gated)",
             f"times are scaled by {workload.burst} calibration bursts; "
             f"median burst here {statistics.median(clock.samples) * 1000:.3f} ms"]
    units = metric_units("end_to_end")
    return {m: (*metrics[m], units[m]) for m in units}, tally, [], notes


def traced_run(workload, name: str, seed: int, workdir: Path, digests: dict[str, str]):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = make_ctx_factory(workdir), make_ctx_factory(workdir, tracer)
    clock, tally, spanned = Clock(workload.burst), Tally(), []
    for i in range(workload.cycle):
        jobs = workload.round()
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            ctx = (traced if with_spans else plain)(f"round-{i}-{int(with_spans)}")
            if with_spans:
                tracer.install()
            try:
                outcomes = run_round(jobs, ctx, clock, digests)
            finally:
                tracer.uninstall()
            tally.add(outcomes)
            spanned.append(with_spans)
    rounds = {True: [], False: []}
    for with_spans, seconds in zip(spanned, tally.times(clock)["rounds"]):
        rounds[with_spans].append(seconds)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (statistics.median(rounds[True])
                                      / statistics.median(rounds[False]))
    fan, errors = fanout(workload)
    metrics.update(fan)
    refs, ref_errors, _ = reference_kernels(name, digests)
    metrics.update(refs)
    errors += ref_errors
    SCRATCH.mkdir(exist_ok=True)
    trace_file = SCRATCH / f"trace-{name}-seed{seed}.json"
    dump = tracer.dump()
    dump["layer_metrics"] = metrics
    trace_file.write_text(json.dumps(dump), encoding="utf-8")
    notes = [f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped; "
             f"written to {trace_file.relative_to(ROOT)}",
             "per-layer times are as measured (not scaled)"]
    units = metric_units("per_layer")
    return {m: (metrics[m], None, units[m]) for m in units}, tally, errors, notes


# ---------------------------------------------------------------------------
# digests

def record_digests() -> int:
    """Write digests.json from the default seed, CLI searches at --workers 1."""
    from workloads import WORKLOADS

    digests: dict[str, str] = {}
    workdir = SCRATCH / f"record-{os.getpid()}"
    clock = Clock()
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED)
            factory = make_ctx_factory(workdir, cli_workers=1)
            for i in range(4):  # a whole cycle of every 4-entry pool
                for out in run_round(workload.round(), factory(f"{name}-{i}"), clock, {}):
                    if out.error is not None:
                        print(f"{out.key}: {out.error}", file=sys.stderr)
                        return 1
                    if digests.setdefault(out.key, out.digest) != out.digest:
                        print(f"{out.key}: two runs gave different bytes", file=sys.stderr)
                        return 1
            _, _, results = reference_kernels(name, {})
            digests.update({key: digest(text) for key, text in results.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGEST_FILE.relative_to(ROOT)}")
    return 0


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("thresholds", "verify", "classify", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    opts = parser.parse_args()

    if not (ROOT / "src" / "idemfree" / "__init__.py").is_file():
        print(f"error: no idemfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = perf_counter()
    from workloads import WORKLOADS

    if opts.record_digests:
        return record_digests()
    if opts.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[opts.workload](opts.seed)
    if opts.setup_probe:
        workload.round()
        print(perf_counter() - t0)
        return 0

    import idemfree

    digests = load_digests()
    workdir = SCRATCH / f"{opts.workload}-{os.getpid()}"
    try:
        if opts.trace:
            metrics, tally, errors, notes = traced_run(
                workload, opts.workload, opts.seed, workdir, digests)
        else:
            metrics, tally, errors, notes = plain_run(
                workload, opts.workload, opts.seed, opts.seconds, workdir, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, error in tally.failures[:10]:
        print(f"FAILED {key}: {error}", file=sys.stderr)
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    failed = len(tally.failures)
    print(f"workload {opts.workload}, seed {opts.seed}, backend {idemfree.backend_name()}")
    for note in notes:
        print(note)
    print(f"failed_frac = {failed / tally.attempted:.4f} ({failed} of {tally.attempted} jobs)")
    for name, (value, raw, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f" (raw {raw:.6g})" if raw is not None else ""))
    print(json.dumps({
        "correct": not tally.failures and not errors,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
