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

Every threshold request goes through one planner, _thresholds: it serves
cache hits, groups the misses into the fewest scans (_walk) and stores
every miss.  The free-smooth and minimal-smooth searches of one pair visit
the same free multisets, so one scan with both modes answers both: explore
and sweep ask for both searches of every pair, and a cached search at its
default cap that misses asks for its sibling too.  An uncached single
search walks for itself alone.

Every search runs in this process, as one DFS over the whole range.  The
workers= parameters are accepted for compatibility and ignored, so results
and refusals are identical for any worker count.
"""

from __future__ import annotations

import json
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
        return cls(**{**payload,
                      "witnesses": tuple(parse_index_multiset(w) for w in payload["witnesses"]),
                      "bad_by_length": tuple(payload["bad_by_length"]),
                      "candidate_by_length": tuple(payload["candidate_by_length"])})


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
        return cls(**{**payload, "counterexamples": tuple(parse_index_multiset(c)
                                                          for c in payload["counterexamples"])})


# ---------------------------------------------------------------------------
# result cache

class ResultCache:
    """One JSON file per (operation, k, n, cap), written atomically."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path(self, op: str, k: int, n: int, cap: int) -> Path:
        return self.directory / f"{op}_k{k}_n{n}_c{cap}.json"

    def load(self, op: str, k: int, n: int,
             cap: int) -> InvariantResult | VerificationReport | None:
        """The stored result, or None when there is none that answers this request.

        The result is parsed once.  A file that does not hold a payload
        exactly as this module writes it, or whose payload is not the
        result of (op, k, n, cap), is a miss; the caller recomputes and
        overwrites it.
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
        return stored

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
    return cache if cache is None or isinstance(cache, ResultCache) else ResultCache(cache)


def _cached(op: str, params: SemigroupParams, cap: int,
            cache: ResultCache | str | Path | None, compute):
    """The result of (op, k, n, cap) from the cache, else compute() stored there."""
    cache = _as_cache(cache)
    if cache is not None:
        hit = cache.load(op, params.k, params.n, cap)
        if hit is not None:
            return hit
    result = compute()
    if cache is not None:
        cache.store(op, params.k, params.n, cap, result.to_json_dict())
    return result


# ---------------------------------------------------------------------------
# kernel execution

def _settle_window(params: SemigroupParams, tail_regime: bool, len_lo: int, len_hi: int,
                   node_budget: int, shapes=()) -> dict:
    """Run the settle-mode verify DFS over a window."""
    return _kernels.verify_window(params.size, params.n, params.threshold, tail_regime,
                                  len_lo, len_hi, 1, params.size, node_budget, True, shapes)


# ---------------------------------------------------------------------------
# invariants

def _cap(which: str, params: SemigroupParams, cap: int | None) -> int:
    """The search cap of one threshold search: cap, or the default that closes it."""
    if cap is None:
        cap = default_free_cap(params) if which == FREE_SMOOTH else default_minimal_cap(params)
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    return cap


def _invariant(which: str, params: SemigroupParams, cap: int, result: dict) -> InvariantResult:
    """One search's InvariantResult from a scan result dict, its per-length counts fitted to cap.

    The counts are cut or zero-padded to cap + 1 entries.  Padding is exact
    only for a walk at a cap of at least max_free_length + 1: no free
    multiset is longer than max_free_length, so such a walk has counted
    every free and minimal multiset and has nothing at greater lengths.
    """
    kind = "free" if which == FREE_SMOOTH else "minimal"
    width = cap + 1

    def fit(counts) -> tuple[int, ...]:
        return tuple(counts[:width]) + (0,) * (width - len(counts))

    bad_by_len = fit(result[f"{kind}_bad_by_len"])
    best_len = result[f"{kind}_bad_len"]
    # the DFS meets multisets in lexicographic order, so the witnesses come sorted
    return InvariantResult(
        which=which,
        k=params.k,
        n=params.n,
        value=best_len + 1,
        search_cap=cap,
        frontier_hit=bad_by_len[cap] > 0,
        witnesses=tuple(result[f"{kind}_bad_witnesses"]),
        witness_total=bad_by_len[best_len] if best_len else 0,
        bad_by_length=bad_by_len,
        candidate_by_length=fit(result[f"{kind}_count_by_len"]),
    )


def _walk(params: SemigroupParams, caps: dict[str, int],
          node_budget: int) -> dict[str, InvariantResult]:
    """The results of the searches caps {which: cap} from one scan at the first cap.

    The modes are (0, 3) for index, and for the smoothness searches m in the
    slot of each one asked for (m = 1 for 1-smooth indices when k > n,
    2 for g-smooth residues).  C_{1;1} needs no walk: no sequence is free
    and the single term is the only minimal one.
    """
    if params.k == params.n == 1 and INDEX not in caps:
        return {which: InvariantResult(which, 1, 1, 0 if which == FREE_SMOOTH else 1, cap,
                                       False, (), 0, (0,) * (cap + 1), (0,) * (cap + 1))
                for which, cap in caps.items()}
    if INDEX in caps:
        modes = (0, 3)
    else:
        mode = 1 if params.k > params.n else 2
        modes = tuple(mode if which in caps else 0 for which in (FREE_SMOOTH, MINIMAL_SMOOTH))
    result = _kernels.scan(params.size, params.n, params.threshold, next(iter(caps.values())),
                           1, params.size, *modes, node_budget)
    return {which: _invariant(which, params, cap, result) for which, cap in caps.items()}


def _op(which: str) -> str:
    """The cache operation of a threshold search."""
    return which.replace("-", "_")


_SIBLING = {FREE_SMOOTH: MINIMAL_SMOOTH, MINIMAL_SMOOTH: FREE_SMOOTH}


def _thresholds(params: SemigroupParams, requests: dict[str, int | None], node_budget: int,
                cache: ResultCache | str | Path | None) -> dict[str, InvariantResult]:
    """The results of the threshold searches requests {which: cap}, in the fewest walks.

    With a cache, each requested file is loaded once, in request order,
    and a hit is served as it is.  A lone smoothness search at its default
    cap that misses asks for its sibling at its default cap too (not for
    C_{1;1}, which needs no walk): the two default caps close both
    searches, so one walk serves both.

    Two misses share one walk when their caps are equal, or when both are
    past max_free_length: no free multiset is longer, so beyond that length
    the walk, its nodes and its refusals do not depend on the cap.  It runs
    at the cap of the search asked for first, whose refusal a caller would
    meet first.  Otherwise each miss walks on its own, in request order.
    Every miss is stored as soon as its walk ends.
    """
    caps = {which: _cap(which, params, cap) for which, cap in requests.items()}
    cache = _as_cache(cache)
    results = {}
    pending = list(caps) if cache is not None else []
    while pending:
        which = pending.pop(0)
        hit = cache.load(_op(which), params.k, params.n, caps[which])
        if hit is not None:
            results[which] = hit
        elif (len(caps) == 1 and which in _SIBLING and not params.k == params.n == 1
              and caps[which] == _cap(which, params, None)):
            sibling = _SIBLING[which]
            caps[sibling] = _cap(sibling, params, None)
            pending.append(sibling)
    missing = {which: cap for which, cap in caps.items() if which not in results}
    if len(missing) == 2 and (len(set(missing.values())) == 1
                              or min(missing.values()) > max_free_length(params)):
        walks = [missing]
    else:
        walks = [{which: cap} for which, cap in missing.items()]
    for walk in walks:
        walked = _walk(params, walk, node_budget)
        results.update(walked)
        if cache is not None:
            for which, result in walked.items():
                cache.store(_op(which), params.k, params.n, result.search_cap,
                            result.to_json_dict())
    return results


def free_smooth_threshold(params: SemigroupParams, cap: int | None = None,
                          workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                          cache: ResultCache | str | Path | None = None) -> InvariantResult:
    """Least length from which every free sequence has the smooth structure."""
    return _thresholds(params, {FREE_SMOOTH: cap}, node_budget, cache)[FREE_SMOOTH]


def minimal_smooth_threshold(params: SemigroupParams, cap: int | None = None,
                             workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                             cache: ResultCache | str | Path | None = None) -> InvariantResult:
    """Least length from which every minimal idempotent-sum sequence is smooth."""
    return _thresholds(params, {MINIMAL_SMOOTH: cap}, node_budget, cache)[MINIMAL_SMOOTH]


def index_threshold(n: int, cap: int | None = None,
                    workers: int = 1, node_budget: int = DEFAULT_NODE_BUDGET,
                    cache: ResultCache | str | Path | None = None) -> InvariantResult:
    """Least length from which every minimal zero-sum sequence has index 1.

    Computed over the residue group of order n, represented by the
    semigroup with index 1.
    """
    return _thresholds(SemigroupParams(1, n), {INDEX: cap}, node_budget, cache)[INDEX]


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
    bound = structure_bound(params)
    if max_length is None:
        max_length = bound + 3
    if max_length < bound:
        raise DomainError(f"max_length {max_length} below the structure bound {bound}")

    def compute() -> VerificationReport:
        result = _settle_window(params, params.k > params.n, bound, max_length, node_budget)
        return VerificationReport(
            check="structure",
            k=params.k,
            n=params.n,
            min_length=bound,
            max_length=max_length,
            total_sequences=result["total"],
            # the DFS meets multisets in lexicographic order, so the violations come sorted
            counterexamples=tuple(result["violations"]),
            case_tallies=None,
        )

    return _cached("verify_structure", params, max_length, cache, compute)


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
    if params.k <= params.n:
        raise DomainError("the case split applies only when the index exceeds the period")
    lo = critical_length(params)
    hi = max(lo, max_free_length(params))

    def compute() -> VerificationReport:
        result = _settle_window(params, True, lo, hi, node_budget, case_shapes(params))
        tallies = {label: 0 for label in CASE_LABELS}
        tallies[CASE_SMOOTH_BELOW_THRESHOLD] = result["condition_hits"]
        tallies.update(result["shape_hits"])
        return VerificationReport(
            check="critical-cases",
            k=params.k,
            n=params.n,
            min_length=lo,
            max_length=hi,
            total_sequences=result["total"],
            counterexamples=tuple(sorted(result["violations"], key=lambda v: (len(v), v))),
            case_tallies=tallies,
        )

    return _cached("verify_cases", params, hi, cache, compute)


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


def _bounds_row(k: int, n: int, results: dict[str, InvariantResult] | None) -> tuple[dict, bool]:
    """The ROW_COLUMNS row of one pair, and whether both values lie within the bounds.

    results holds the free-smooth and minimal-smooth InvariantResults, or is
    None for a refused search, which leaves the computed columns empty.
    """
    expected = expected_thresholds(k, n)
    row = {"k": k, "n": n, "regime": regime_label(k, n), **expected}
    within = results is not None
    for kind, which in (("free", FREE_SMOOTH), ("minimal", MINIMAL_SMOOTH)):
        result = None if results is None else results[which]
        row[f"{kind}_smooth"] = None if result is None else result.value
        row[f"{kind}_frontier_hit"] = None if result is None else result.frontier_hit
        within = within and (expected[f"{kind}_smooth_lo"] <= result.value
                             <= expected[f"{kind}_smooth_hi"])
    return row, within


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
        results = _thresholds(SemigroupParams(k, n), {FREE_SMOOTH: cap, MINIMAL_SMOOTH: cap},
                              node_budget, cache)
        row, within = _bounds_row(k, n, results)
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
        try:
            results = _thresholds(SemigroupParams(k, n), {FREE_SMOOTH: cap, MINIMAL_SMOOTH: cap},
                                  node_budget, cache)
        except BudgetError:
            results = None
        row, within = _bounds_row(k, n, results)
        row["status"] = "refused" if results is None else "ok" if within else "out-of-bounds"
        rows.append(row)
    return rows
