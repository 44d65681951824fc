"""Exhaustive verification and extremal threshold searches.

Three threshold invariants are computed by pruned depth-first enumeration
over multisets whose proper prefixes stay idempotent-sum free:

  free-smooth      least length beyond which every idempotent-sum free
                   sequence has the smooth structure
  minimal-smooth   same for minimal idempotent-sum sequences
  index            least length beyond which every minimal zero-sum
                   sequence over the residue group has sequence index 1

Each search runs up to a length cap and reports the longest "bad"
sequences found; with the default caps the enumeration provably closes
(free sequences cannot reach threshold+period-1 terms, minimal ones cannot
reach threshold+period), so frontier_hit=false certifies exactness.

Sharding: work splits by the smallest element of the multiset, and the
reduction is order-insensitive, so results are identical for any worker
count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from idemfree import _kernels
from idemfree.classify import structure_condition
from idemfree.errors import BudgetError, DomainError
from idemfree.semigroup import SemigroupParams
from idemfree.sequences import (
    Sequence,
    format_index_multiset,
    parse_index_multiset,
)

DEFAULT_NODE_BUDGET = 10**8

FREE_SMOOTH = "free-smooth"
MINIMAL_SMOOTH = "minimal-smooth"
INDEX = "index"

CASE_SMOOTH_BELOW_THRESHOLD = "smooth_below_threshold"
CASE_ALL_TWOS = "all_twos_period_ge3"
CASE_ODD_HEAD_TWOS = "odd_head_twos_period2"
CASE_ONES_PLUS_HALF = "ones_plus_half_period1"
CASE_ALL_TWOS_PERIOD1 = "all_twos_period1"

CASE_LABELS = (
    CASE_SMOOTH_BELOW_THRESHOLD,
    CASE_ALL_TWOS,
    CASE_ODD_HEAD_TWOS,
    CASE_ONES_PLUS_HALF,
    CASE_ALL_TWOS_PERIOD1,
)

FAMILY_IDS = (
    "free-all-twos",
    "free-three-twos",
    "free-ones-pair",
    "free-ones-half",
    "minimal-all-twos",
    "minimal-group-small",
)


# ---------------------------------------------------------------------------
# length bounds

def structure_bound(params: SemigroupParams) -> int:
    """Length from which freeness is equivalent to the smooth structure."""
    if params.k > params.n:
        q = params.threshold // params.n
        return (q + 1) * params.n // 2
    return params.n // 2 + 1


def critical_length(params: SemigroupParams) -> int:
    """Length from which the five-case split of free sequences applies."""
    if params.k <= params.n:
        raise DomainError("the case split applies only when the index exceeds the period")
    q = params.threshold // params.n
    return ((q + 1) * params.n + 1) // 2 - 1


def max_free_length(params: SemigroupParams) -> int:
    """Hard upper bound on the length of an idempotent-sum free sequence."""
    return params.threshold + params.n - 2


def default_free_cap(params: SemigroupParams) -> int:
    return params.threshold + params.n - 1


def default_minimal_cap(params: SemigroupParams) -> int:
    return params.threshold + params.n


def expected_thresholds(k: int, n: int) -> dict[str, int]:
    """Proven values/bounds for the two smoothness thresholds.

    Exact values have lo == hi; for index-dominant parameters with period
    >= 3 and even threshold only an interval is known.
    """
    params = SemigroupParams(k, n)
    if k <= n:
        if n == 1:
            free = (0, 0)
            minimal = (1, 1)
        elif n == 5:
            free = (1, 1)
            minimal = (3, 3)
        else:
            base = n // 2 if (n <= 4 or n == 7) else n // 2 + 1
            free = (base, base)
            minimal = (base + 1, base + 1)
    else:
        t = params.threshold
        q = t // n
        if n >= 3 and t % 2 == 0:
            free = (t // 2 + 1, ((q + 1) * n + 1) // 2 - 1)
            minimal = (t // 2 + 1, ((q + 1) * n + 1) // 2)
        elif n == 2:
            free = (q + 1, q + 1)
            minimal = (q + 1, q + 1)
        else:
            v = (q + 1) * n // 2
            free = (v, v)
            minimal = (v + 1, v + 1)
    return {
        "free_smooth_lo": free[0],
        "free_smooth_hi": free[1],
        "minimal_smooth_lo": minimal[0],
        "minimal_smooth_hi": minimal[1],
    }


def regime_label(k: int, n: int) -> str:
    if k <= n:
        return "k<=n"
    return "k>n-even" if SemigroupParams(k, n).threshold % 2 == 0 else "k>n-odd"


# ---------------------------------------------------------------------------
# result types

@dataclass(frozen=True)
class InvariantResult:
    which: str
    k: int
    n: int
    value: int
    search_cap: int
    frontier_hit: bool
    witnesses: tuple[tuple[int, ...], ...]
    witness_total: int
    bad_by_length: tuple[int, ...]
    candidate_by_length: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "k": self.k,
            "n": self.n,
            "value": self.value,
            "search_cap": self.search_cap,
            "frontier_hit": self.frontier_hit,
            "witnesses": [format_index_multiset(w) for w in self.witnesses],
            "witness_total": self.witness_total,
            "bad_by_length": list(self.bad_by_length),
            "candidate_by_length": list(self.candidate_by_length),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> InvariantResult:
        return cls(
            which=payload["which"],
            k=payload["k"],
            n=payload["n"],
            value=payload["value"],
            search_cap=payload["search_cap"],
            frontier_hit=payload["frontier_hit"],
            witnesses=tuple(parse_index_multiset(w) for w in payload["witnesses"]),
            witness_total=payload["witness_total"],
            bad_by_length=tuple(payload["bad_by_length"]),
            candidate_by_length=tuple(payload["candidate_by_length"]),
        )


@dataclass(frozen=True)
class VerificationReport:
    check: str
    k: int
    n: int
    min_length: int
    max_length: int
    total_sequences: int
    counterexamples: tuple[tuple[int, ...], ...]
    case_tallies: dict[str, int] | None

    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "k": self.k,
            "n": self.n,
            "min_length": self.min_length,
            "max_length": self.max_length,
            "total_sequences": self.total_sequences,
            "counterexamples": [format_index_multiset(c) for c in self.counterexamples],
            "case_tallies": self.case_tallies,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> VerificationReport:
        return cls(
            check=payload["check"],
            k=payload["k"],
            n=payload["n"],
            min_length=payload["min_length"],
            max_length=payload["max_length"],
            total_sequences=payload["total_sequences"],
            counterexamples=tuple(parse_index_multiset(c)
                                  for c in payload["counterexamples"]),
            case_tallies=payload["case_tallies"],
        )


# ---------------------------------------------------------------------------
# result cache

class ResultCache:
    """One JSON file per (operation, k, n, cap), written atomically."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path(self, op: str, k: int, n: int, cap: int) -> Path:
        return self.directory / f"{op}_k{k}_n{n}_c{cap}.json"

    def load(self, op: str, k: int, n: int, cap: int) -> dict | None:
        """The stored payload, or None when there is none that answers this request.

        A file that does not hold a payload exactly as this module writes
        it, or whose payload is not the result of (op, k, n, cap), is a
        miss; the caller recomputes and overwrites it.
        """
        path = self.path(op, k, n, cap)
        if not path.is_file():
            return None
        result_type, field, label, cap_field = _CACHE_OPS[op]
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            stored = result_type.from_json_dict(payload)
        except (OSError, AttributeError, KeyError, TypeError, ValueError):
            return None
        if (stored.to_json_dict() != payload
                or (payload[field], payload["k"], payload["n"], payload[cap_field])
                != (label, k, n, cap)):
            return None
        return payload

    def store(self, op: str, k: int, n: int, cap: int, payload: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path(op, k, n, cap)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# cache op -> (result type, payload field naming the operation, its value,
# payload field holding the cap in the file name)
_CACHE_OPS = {
    "free_smooth": (InvariantResult, "which", FREE_SMOOTH, "search_cap"),
    "minimal_smooth": (InvariantResult, "which", MINIMAL_SMOOTH, "search_cap"),
    "index": (InvariantResult, "which", INDEX, "search_cap"),
    "verify_structure": (VerificationReport, "check", "structure", "max_length"),
    "verify_cases": (VerificationReport, "check", "critical-cases", "max_length"),
}


def _as_cache(cache: ResultCache | str | Path | None) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# ---------------------------------------------------------------------------
# sharded kernel execution

def _scan_shard(args):
    return _kernels.scan(*args)


def _verify_shard(args):
    return _kernels.verify_window(*args)


def _run_shards(worker, arg_lists, workers: int) -> list[dict]:
    if workers <= 1 or len(arg_lists) <= 1:
        return [worker(args) for args in arg_lists]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(worker, arg_lists)


def _shard_ranges(universe: int, workers: int) -> list[tuple[int, int]]:
    if workers <= 1:
        return [(1, universe)]
    return [(v, v) for v in range(1, universe + 1)]


def _run_sharded(worker, shard_args, universe: int, workers: int,
                 node_budget: int) -> list[dict]:
    """Run a kernel over shards of the smallest element, one result per shard.

    shard_args(lo, hi) gives one shard's kernel arguments.  Every shard gets
    the whole node budget and the merged node count is held to it as well,
    so a refusal does not depend on the worker count.
    """
    results = _run_shards(worker, [shard_args(lo, hi) for lo, hi
                                   in _shard_ranges(universe, workers)], workers)
    if sum(r["nodes"] for r in results) > node_budget:
        raise _kernels.over_budget(node_budget)
    return results


def _settle_window(params: SemigroupParams, tail_regime: bool, len_lo: int, len_hi: int,
                   workers: int, node_budget: int, shapes=()) -> list[dict]:
    """Run the settle-mode verify DFS over a window, one result per shard."""
    return _run_sharded(
        _verify_shard,
        lambda lo, hi: (params.size, params.n, params.threshold, tail_regime,
                        len_lo, len_hi, lo, hi, node_budget, True, shapes),
        params.size, workers, node_budget)


def _merge_scans(results: list[dict], max_len: int) -> dict:
    merged = {
        "free_count_by_len": [0] * (max_len + 1),
        "minimal_count_by_len": [0] * (max_len + 1),
        "free_bad_by_len": [0] * (max_len + 1),
        "minimal_bad_by_len": [0] * (max_len + 1),
    }
    for key in ("free", "minimal"):
        best_len = max((r[f"{key}_bad_len"] for r in results), default=0)
        pool: list[tuple[int, ...]] = []
        for r in results:
            if r[f"{key}_bad_len"] == best_len:
                pool.extend(tuple(w) for w in r[f"{key}_bad_witnesses"])
        pool.sort()
        merged[f"{key}_bad_len"] = best_len
        merged[f"{key}_bad_witnesses"] = pool[:_kernels.WITNESS_LIMIT]
    for r in results:
        for key in ("free_count_by_len", "minimal_count_by_len",
                    "free_bad_by_len", "minimal_bad_by_len"):
            for i, c in enumerate(r[key]):
                merged[key][i] += c
    return merged


# ---------------------------------------------------------------------------
# invariants

def _threshold(which: str, params: SemigroupParams, cap: int | None, workers: int,
               node_budget: int, cache: ResultCache | str | Path | None) -> InvariantResult:
    """The three threshold searches: cap default, cache lookup, scan, cache store."""
    cache = _as_cache(cache)
    op = which.replace("-", "_")
    kind = "free" if which == FREE_SMOOTH else "minimal"
    if cap is None:
        cap = default_free_cap(params) if kind == "free" else default_minimal_cap(params)
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    if cache is not None:
        hit = cache.load(op, params.k, params.n, cap)
        if hit is not None:
            return InvariantResult.from_json_dict(hit)
    if which != INDEX and params.k == params.n == 1:
        # C_{1;1}: no sequence is free and the single term is the only minimal one
        result = InvariantResult(which, 1, 1, 0 if kind == "free" else 1, cap, False, (), 0,
                                 (0,) * (cap + 1), (0,) * (cap + 1))
    else:
        if which == INDEX:
            modes = (0, 3)
        else:
            mode = 1 if params.k > params.n else 2
            modes = (mode, 0) if kind == "free" else (0, mode)
        merged = _merge_scans(_run_sharded(
            _scan_shard,
            lambda lo, hi: (params.size, params.n, params.threshold, cap, lo, hi,
                            *modes, node_budget),
            params.size, workers, node_budget), cap)
        bad_by_len = merged[f"{kind}_bad_by_len"]
        best_len = merged[f"{kind}_bad_len"]
        result = InvariantResult(
            which=which,
            k=params.k,
            n=params.n,
            value=best_len + 1,
            search_cap=cap,
            frontier_hit=bad_by_len[cap] > 0,
            witnesses=tuple(merged[f"{kind}_bad_witnesses"]),
            witness_total=bad_by_len[best_len] if best_len else 0,
            bad_by_length=tuple(bad_by_len),
            candidate_by_length=tuple(merged[f"{kind}_count_by_len"]),
        )
    if cache is not None:
        cache.store(op, params.k, params.n, cap, result.to_json_dict())
    return result


def free_smooth_threshold(params: SemigroupParams, cap: int | None = None,
                          workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                          cache: ResultCache | str | Path | None = None) -> InvariantResult:
    """Least length from which every free sequence has the smooth structure."""
    return _threshold(FREE_SMOOTH, params, cap, workers, node_budget, cache)


def minimal_smooth_threshold(params: SemigroupParams, cap: int | None = None,
                             workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                             cache: ResultCache | str | Path | None = None) -> InvariantResult:
    """Least length from which every minimal idempotent-sum sequence is smooth."""
    return _threshold(MINIMAL_SMOOTH, params, cap, workers, node_budget, cache)


def index_threshold(n: int, cap: int | None = None,
                    workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                    cache: ResultCache | str | Path | None = None) -> InvariantResult:
    """Least length from which every minimal zero-sum sequence has index 1.

    Computed over the residue group of order n, represented by the
    semigroup with index 1.
    """
    return _threshold(INDEX, SemigroupParams(1, n), cap, workers, node_budget, cache)


def search_bad_sequences(params: SemigroupParams, kind: str, cap: int | None = None,
                         workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                         cache: ResultCache | str | Path | None = None) -> InvariantResult:
    """Witness-oriented view of a threshold search (kind "free" or "minimal")."""
    if kind == "free":
        return free_smooth_threshold(params, cap, workers, node_budget, cache)
    if kind == "minimal":
        return minimal_smooth_threshold(params, cap, workers, node_budget, cache)
    raise DomainError(f"unknown search kind {kind!r}")


# ---------------------------------------------------------------------------
# verifications

def verify_structure(params: SemigroupParams, max_length: int | None = None,
                     workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                     cache: ResultCache | str | Path | None = None) -> VerificationReport:
    """Check freeness <=> smooth structure on every sequence in a length window.

    The window starts at the proven structure bound; max_length defaults to
    bound+3.
    """
    cache = _as_cache(cache)
    bound = structure_bound(params)
    if max_length is None:
        max_length = bound + 3
    if max_length < bound:
        raise DomainError(f"max_length {max_length} below the structure bound {bound}")
    if cache is not None:
        hit = cache.load("verify_structure", params.k, params.n, max_length)
        if hit is not None:
            return VerificationReport.from_json_dict(hit)
    results = _settle_window(params, params.k > params.n, bound, max_length,
                             workers, node_budget)
    violations: list[tuple[int, ...]] = []
    for r in results:
        violations.extend(tuple(v) for v in r["violations"])
    violations.sort()
    report = VerificationReport(
        check="structure",
        k=params.k,
        n=params.n,
        min_length=bound,
        max_length=max_length,
        total_sequences=sum(r["total"] for r in results),
        counterexamples=tuple(violations),
        case_tallies=None,
    )
    if cache is not None:
        cache.store("verify_structure", params.k, params.n, max_length,
                    report.to_json_dict())
    return report


def case_shapes(params: SemigroupParams) -> list[tuple[str, tuple[int, ...]]]:
    """The explicit multisets of the four non-generic case shapes, as (label, multiset).

    A label may list several multisets and a multiset several labels; pairs
    come in CASE_LABELS order.
    """
    if params.k <= params.n:
        raise DomainError("the case split applies only when the index exceeds the period")
    k, n = params.k, params.n
    t = params.threshold
    q = t // n
    shapes = []
    if n >= 3 and t % 2 == 1:
        shapes.append((CASE_ALL_TWOS, (2,) * ((q + 1) * n // 2 - 1)))
    if n == 2:
        shapes.extend((CASE_ODD_HEAD_TWOS, (2,) * (q - 1) + (head,))
                      for head in range(3, params.size + 1, 2))
    if n == 1 and k % 2 == 1:
        shapes.append((CASE_ONES_PLUS_HALF, (1,) * ((k - 3) // 2) + ((k + 1) // 2,)))
        shapes.append((CASE_ALL_TWOS_PERIOD1, (2,) * ((k - 1) // 2)))
    return shapes


def matched_cases(params: SemigroupParams, indices: tuple[int, ...]) -> tuple[str, ...]:
    """Which of the five free-structure case shapes the multiset matches."""
    shapes = case_shapes(params)
    ordered = tuple(sorted(indices))
    out = []
    if ordered and structure_condition(Sequence(params, ordered)):
        out.append(CASE_SMOOTH_BELOW_THRESHOLD)
    out.extend(label for label, shape in shapes if shape == ordered)
    return tuple(out)


def verify_critical_cases(params: SemigroupParams,
                          node_budget: int = DEFAULT_NODE_BUDGET,
                          cache: ResultCache | str | Path | None = None) -> VerificationReport:
    """Check that long free sequences are exactly the five case shapes.

    Checks every multiset from the critical length up to the hard freeness
    bound, counting settled subtrees in closed form; a counterexample is a
    free sequence matching no case or a non-free sequence matching some
    case.
    """
    cache = _as_cache(cache)
    if params.k <= params.n:
        raise DomainError("the case split applies only when the index exceeds the period")
    lo = critical_length(params)
    hi = max(lo, max_free_length(params))
    if cache is not None:
        hit = cache.load("verify_cases", params.k, params.n, hi)
        if hit is not None:
            return VerificationReport.from_json_dict(hit)
    result, = _settle_window(params, True, lo, hi, 1, node_budget, case_shapes(params))
    tallies = {label: 0 for label in CASE_LABELS}
    tallies[CASE_SMOOTH_BELOW_THRESHOLD] = result["condition_hits"]
    tallies.update(result["shape_hits"])
    report = VerificationReport(
        check="critical-cases",
        k=params.k,
        n=params.n,
        min_length=lo,
        max_length=hi,
        total_sequences=result["total"],
        counterexamples=tuple(sorted(result["violations"], key=lambda v: (len(v), v))),
        case_tallies=tallies,
    )
    if cache is not None:
        cache.store("verify_cases", params.k, params.n, hi, report.to_json_dict())
    return report


# ---------------------------------------------------------------------------
# witness families

def generate_family(params: SemigroupParams, family_id: str) -> Sequence:
    """Build a named extremal witness family for the given parameters."""
    k, n = params.k, params.n
    t = params.threshold
    q = t // n
    if family_id == "free-all-twos":
        if not (k > n and (n == 1 or t % 2 == 1)):
            raise DomainError(f"{family_id} requires index > period with period 1 or odd threshold")
        return Sequence(params, (2,) * ((q + 1) * n // 2 - 1))
    if family_id == "free-three-twos":
        if not (k > n >= 2 and t % 2 == 0):
            raise DomainError(f"{family_id} requires index > period >= 2, even threshold")
        return Sequence(params, (2,) * (t // 2 - 1) + (3,))
    if family_id == "free-ones-pair":
        if not (k <= n and (n == 6 or n >= 8)):
            raise DomainError(f"{family_id} requires index <= period and period 6 or >= 8")
        half = (n + 3) // 2 if n % 2 else (n + 2) // 2
        return Sequence(params, (1,) * (n // 2 - 2) + (half, half))
    if family_id == "free-ones-half":
        if not (n == 1 and k % 2 == 1 and k >= 3):
            raise DomainError(f"{family_id} requires period 1 and odd index >= 3")
        return Sequence(params, (1,) * ((k - 3) // 2) + ((k + 1) // 2,))
    if family_id == "minimal-all-twos":
        if k <= n:
            raise DomainError(f"{family_id} requires index > period")
        length = t // 2 if t % 2 == 0 else (q + 1) * n // 2
        return Sequence(params, (2,) * length)
    if family_id == "minimal-group-small":
        if not (k <= n and n in (2, 3, 4, 5, 7)):
            raise DomainError(f"{family_id} requires index <= period in {{2,3,4,5,7}}")
        if n in (2, 3):
            return Sequence(params, (n,))
        if n in (4, 5):
            return Sequence(params, (1, n - 1))
        return Sequence(params, (1, 1, 5))
    raise DomainError(f"unknown family id {family_id!r}; known: {', '.join(FAMILY_IDS)}")


# ---------------------------------------------------------------------------
# open-regime exploration and parameter sweeps

ROW_COLUMNS = (
    "k", "n", "regime", "free_smooth", "minimal_smooth",
    "free_smooth_lo", "free_smooth_hi", "minimal_smooth_lo", "minimal_smooth_hi",
    "free_frontier_hit", "minimal_frontier_hit",
)

SWEEP_COLUMNS = ROW_COLUMNS + ("status",)


def _bounds_row(k: int, n: int, results) -> tuple[dict, bool]:
    """The ROW_COLUMNS row of one pair, and whether both values lie within the bounds.

    results is the (free-smooth, minimal-smooth) pair of InvariantResults,
    or None for a refused search, which leaves the computed columns empty.
    """
    expected = expected_thresholds(k, n)
    row = {"k": k, "n": n, "regime": regime_label(k, n), **expected}
    within = results is not None
    for kind, result in zip(("free", "minimal"), results or (None, None)):
        row[f"{kind}_smooth"] = None if result is None else result.value
        row[f"{kind}_frontier_hit"] = None if result is None else result.frontier_hit
        within = within and (expected[f"{kind}_smooth_lo"] <= result.value
                             <= expected[f"{kind}_smooth_hi"])
    return row, within


def _both_thresholds(params, cap, workers, node_budget, cache):
    return (free_smooth_threshold(params, cap, workers, node_budget, cache),
            minimal_smooth_threshold(params, cap, workers, node_budget, cache))


def explore_bounds(pairs, cap: int | None = None, workers: int = 1,
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   cache: ResultCache | str | Path | None = None) -> list[dict]:
    """Compute both thresholds for index-dominant pairs and compare to theory.

    Accepts (k, n) with k > n >= 3; each row records the computed values,
    the proven bounds, and whether the computation landed inside them.
    """
    rows = []
    for k, n in pairs:
        if not k > n >= 3:
            raise DomainError(f"exploration requires k > n >= 3, got ({k}, {n})")
        row, within = _bounds_row(k, n, _both_thresholds(SemigroupParams(k, n), cap, workers,
                                                         node_budget, cache))
        row["within_bounds"] = (within and not row["free_frontier_hit"]
                                and not row["minimal_frontier_hit"])
        rows.append(row)
    return rows


def sweep(pairs, cap: int | None = None, workers: int = 1,
          node_budget: int = DEFAULT_NODE_BUDGET,
          cache: ResultCache | str | Path | None = None) -> list[dict]:
    """Compute both thresholds over a parameter grid, one row per pair.

    Rows come out sorted by (k, n) with status ok, out-of-bounds, or
    refused; a pair whose search exceeds the budget is marked refused and
    the sweep continues.
    """
    rows = []
    for k, n in sorted(set(pairs)):
        params = SemigroupParams(k, n)
        try:
            results = _both_thresholds(params, cap, workers, node_budget, cache)
        except BudgetError:
            results = None
        row, within = _bounds_row(k, n, results)
        row["status"] = "refused" if results is None else "ok" if within else "out-of-bounds"
        rows.append(row)
    return rows
