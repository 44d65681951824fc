"""Independent brute-force oracles for the test suite.

Everything here is built from first principles: the semigroup is driven
only by its defining relation (index k+n collapses to index k), subset
sums use plain set unions, and smooth structure is checked against the
literal definition (subsequence sums form a full initial segment of the
generated subgroup).  No bitmask or prefix shortcuts, except in the last
section, which keeps an earlier, unpruned implementation as a reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

from idemfree import _kernels
from idemfree.classify import structure_condition
from idemfree.search import (
    CASE_ALL_TWOS,
    CASE_ALL_TWOS_PERIOD1,
    CASE_LABELS,
    CASE_ODD_HEAD_TWOS,
    CASE_ONES_PLUS_HALF,
    CASE_SMOOTH_BELOW_THRESHOLD,
    VerificationReport,
    critical_length,
    max_free_length,
)
from idemfree.sequences import Sequence


def wrap_index(k: int, n: int, m: int) -> int:
    while m > k + n - 1:
        m -= n
    return m


def add_oracle(k: int, n: int, i: int, j: int) -> int:
    return wrap_index(k, n, i + j)


def idempotent_oracle(k: int, n: int) -> int:
    found = [e for e in range(1, k + n) if add_oracle(k, n, e, e) == e]
    assert len(found) == 1
    return found[0]


def subset_sums(values) -> set[int]:
    """All nonempty submultiset integer sums."""
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    sums.discard(0)
    return sums


def semigroup_subset_sums(k: int, n: int, indices) -> set[int]:
    return {wrap_index(k, n, s) for s in subset_sums(indices)}


def idempotent_sum_free_oracle(k: int, n: int, indices) -> bool:
    return idempotent_oracle(k, n) not in semigroup_subset_sums(k, n, indices)


def minimal_idempotent_sum_oracle(k: int, n: int, indices) -> bool:
    e = idempotent_oracle(k, n)
    vals = list(indices)
    if not vals or wrap_index(k, n, sum(vals)) != e:
        return False
    return all(idempotent_sum_free_oracle(k, n, vals[:i] + vals[i + 1:])
               for i in range(len(vals)))


def one_smooth_oracle(values) -> bool:
    if not values:
        return False
    return subset_sums(values) == set(range(1, sum(values) + 1))


def residue_subset_sums(n: int, residues) -> set[int]:
    seen: set[int] = set()
    for r in residues:
        seen = seen | {(s + r) % n for s in seen} | {r % n}
    return seen


def zero_sum_free_oracle(n: int, residues) -> bool:
    return 0 not in residue_subset_sums(n, residues)


def minimal_zero_sum_oracle(n: int, residues) -> bool:
    vals = list(residues)
    if not vals or sum(vals) % n != 0:
        return False
    return all(zero_sum_free_oracle(n, vals[:i] + vals[i + 1:])
               for i in range(len(vals)))


def units(n: int) -> list[int]:
    return [g for g in range(1, n) if gcd(g, n) == 1]


def g_smooth_oracle(n: int, residues, g: int, zero_sum: bool) -> bool:
    """Literal definition: the decomposition by g sums to n (zero-sum) or
    below (strict), and the subsequence sums are exactly g, 2g, ..., Sg."""
    vals = list(residues)
    if not vals:
        return False
    inv = pow(g, -1, n)
    total = sum(((r * inv) % n) or n for r in vals)
    if (total != n) if zero_sum else (total >= n):
        return False
    want = {(j * g) % n for j in range(1, total + 1)}
    return residue_subset_sums(n, vals) == want


def smooth_for_some_unit_oracle(n: int, residues, zero_sum: bool) -> bool:
    return any(g_smooth_oracle(n, residues, g, zero_sum) for g in units(n))


def sequence_index_oracle(n: int, residues) -> Fraction | None:
    vals = list(residues)
    best = None
    for g in units(n):
        inv = pow(g, -1, n)
        total = sum(((r * inv) % n) or n for r in vals)
        value = Fraction(total, n)
        if best is None or value < best:
            best = value
    return best


def all_multisets(universe: int, max_len: int, min_len: int = 1):
    for length in range(min_len, max_len + 1):
        yield from combinations_with_replacement(range(1, universe + 1), length)


def one_smooth_counts(universe: int, threshold: int, max_len: int) -> list[int]:
    """Per length up to max_len, the 1-smooth multisets over [1, universe] with total < threshold.

    The multisets are nondecreasing, and the count of length 0 is 0.  A DP over (last term, total), one length at a time: a term w may follow
    last iff last <= w <= total + 1.  In the tail regime these are exactly
    the free multisets that are 1-smooth, which scan's mode 1 counts as
    free_count - free_bad, by a walk that shares no code with this.
    """
    counts = [0] * (max_len + 1)
    # (last, total) -> multisets; the empty one takes any first term >= 1
    level = {(1, 0): 1}
    for length in range(1, max_len + 1):
        grown: dict[tuple[int, int], int] = {}
        for (last, total), ways in level.items():
            for w in range(last, min(universe, total + 1, threshold - 1 - total) + 1):
                key = (w, total + w)
                grown[key] = grown.get(key, 0) + ways
        counts[length] = sum(grown.values())
        level = grown
    return counts


# --- the critical-case split, one multiset at a time -------------------------
# The per-multiset implementation verify_critical_cases had before it moved
# onto the settle-mode DFS: every multiset of the window is profiled and
# pattern-matched, nothing is skipped.  It is the reference for the DFS.

def matched_cases_by_pattern(params, indices) -> tuple[str, ...]:
    n = params.n
    t = params.threshold
    q = t // n
    ordered = tuple(sorted(indices))
    out = []
    seq = Sequence(params, ordered)
    if ordered and structure_condition(seq):
        out.append(CASE_SMOOTH_BELOW_THRESHOLD)
    if n >= 3 and t % 2 == 1 and ordered == (2,) * ((q + 1) * n // 2 - 1):
        out.append(CASE_ALL_TWOS)
    if n == 2 and len(ordered) == q and ordered[:-1] == (2,) * (q - 1) \
            and ordered[-1] >= 3 and ordered[-1] % 2 == 1:
        out.append(CASE_ODD_HEAD_TWOS)
    if n == 1 and params.k % 2 == 1:
        k = params.k
        if ordered == (1,) * ((k - 3) // 2) + ((k + 1) // 2,):
            out.append(CASE_ONES_PLUS_HALF)
        if ordered == (2,) * ((k - 1) // 2):
            out.append(CASE_ALL_TWOS_PERIOD1)
    return tuple(out)


def critical_cases_by_enumeration(params) -> dict:
    """The verify_critical_cases payload, from a visit to every multiset."""
    lo = critical_length(params)
    hi = max(lo, max_free_length(params))
    tallies = {label: 0 for label in CASE_LABELS}
    violations = []
    total = 0
    for indices in all_multisets(params.size, hi, lo):
        total += 1
        _, high = _kernels.profile(indices, params.threshold, params.n)
        free = not high & 1
        cases = matched_cases_by_pattern(params, indices)
        for label in cases:
            tallies[label] += 1
        if free != bool(cases):
            violations.append(indices)
    report = VerificationReport(
        check="critical-cases",
        k=params.k,
        n=params.n,
        min_length=lo,
        max_length=hi,
        total_sequences=total,
        counterexamples=tuple(violations),
        case_tallies=tallies,
    )
    return report.to_json_dict()


# --- the settle-mode verify walk, one index multiset at a time ---------------
# The walk verify_window ran in settle mode before it moved onto scan's walk:
# it reaches every child of a free multiset, settles a non-free subtree in
# closed form and never skips a listed shape or a proper prefix of one.  It
# shares no walk with the kernel: its own recursion profiles each child with
# profile_step and counts it in DFS order.  It is the reference for
# verify_window(settle=True).

def settle_window(universe, period, threshold, tail_regime, len_lo, len_hi,
                  first_lo, first_hi, node_budget, shapes=()) -> dict:
    """verify_window(..., settle=True)'s dict, by the reference walk over indices."""
    labels: dict[tuple[int, ...], list[str]] = {}
    for label, shape in shapes:
        labels.setdefault(tuple(shape), []).append(label)
    prefixes = {shape[:i] for shape in labels for i in range(1, len(shape))}
    rows = () if tail_regime else _kernels.generator_rows(period, universe)
    out = {"nodes": 0, "total": 0, "violations": [], "condition_hits": 0,
           "shape_hits": dict.fromkeys((label for label, _ in shapes), 0)}

    def extensions(last, length):
        # the in-window proper extensions: C(u-last+j, j) multisets add j terms from [last, u]
        return sum(comb(universe - last + j, j)
                   for j in range(max(1, len_lo - length), len_hi - length + 1))

    def descend(prefix, exact, high, total, smooth):
        terms = range(first_lo, first_hi + 1) if not prefix else range(prefix[-1], universe + 1)
        for w in terms:
            out["nodes"] += 1
            if out["nodes"] > node_budget:
                raise _kernels.over_budget(node_budget)
            child = prefix + (w,)
            child_exact, child_high = _kernels.profile_step(exact, high, w, threshold, period)
            child_total, child_smooth = total + w, smooth and w <= total + 1
            free = not child_high & 1
            if len(child) >= len_lo:
                out["total"] += 1
                if tail_regime:
                    predicted = child_smooth and child_total < threshold
                else:
                    predicted = _kernels.smooth_for_some_generator(rows, child, period, False)
                out["condition_hits"] += predicted
                for label in labels.get(child, ()):
                    out["shape_hits"][label] += 1
                    predicted = True
                if free != predicted:
                    out["violations"].append(child)
            if len(child) < len_hi:
                if free or child in prefixes:
                    descend(child, child_exact, child_high, child_total, child_smooth)
                else:
                    out["total"] += extensions(w, len(child))

    if len_hi >= 1:
        descend((), 0, 0, 0, True)
    return out


# --- scan in modes 0 and 1, one free multiset at a time ---------------------
# The reference for _kernels.scan without generator rows.  It shares no walk
# with the kernel: no free-term mask, no settled child and no memo.  Its own
# recursion visits every free multiset, profiles each child with
# profile_step, decides minimality with is_minimal_extension and counts every
# multiset it reaches, in DFS order.

def scan_tallies(universe, period, threshold, max_len) -> dict:
    """Per first term, per length up to max_len: what scan counts and tallies.

    Each entry maps "nodes" to the reached multisets (those whose proper
    prefixes are all free), "free" and "minimal" to the free and minimal
    idempotent-sum ones, "free_bad" and "minimal_bad" to those of them
    that are not 1-smooth, and "free_wit" and "minimal_wit" to the first
    WITNESS_LIMIT of those, in DFS (lexicographic) order.
    """
    multiples = _kernels.period_multiples(threshold, period)

    def visit(prefix, exact, high, total, smooth, terms, row):
        for w in terms:
            child = prefix + (w,)
            length = len(child)
            row["nodes"][length] += 1
            child_exact, child_high = _kernels.profile_step(exact, high, w, threshold, period)
            child_smooth = smooth and w <= total + 1
            if not child_high & 1:
                kind = "free"
            elif _kernels.is_minimal_extension(exact, total + w, threshold, period, multiples):
                kind = "minimal"
            else:
                continue
            row[kind][length] += 1
            if not child_smooth:
                row[f"{kind}_bad"][length] += 1
                if len(row[f"{kind}_wit"][length]) < _kernels.WITNESS_LIMIT:
                    row[f"{kind}_wit"][length].append(child)
            if kind == "free" and length < max_len:
                visit(child, child_exact, child_high, total + w, child_smooth,
                      range(w, universe + 1), row)

    out = {}
    for first in range(1, universe + 1):
        out[first] = row = {key: [0] * (max_len + 1)
                            for key in ("nodes", "free", "minimal", "free_bad", "minimal_bad")}
        row["free_wit"] = [[] for _ in range(max_len + 1)]
        row["minimal_wit"] = [[] for _ in range(max_len + 1)]
        visit((), 0, 0, 0, True, (first,), row)
    return out


def scan_from_tallies(tallies, max_len, first_lo, free_bad_mode, minimal_bad_mode) -> dict:
    """scan's dict over the first terms from first_lo on, at cap max_len, from scan_tallies."""
    rows = [row for first, row in tallies.items() if first >= first_lo]

    def summed(key):
        return [sum(row[key][length] for row in rows) for length in range(max_len + 1)]

    out = {"nodes": sum(summed("nodes"))}
    for kind, mode in (("free", free_bad_mode), ("minimal", minimal_bad_mode)):
        counted = kind == "free" or mode
        out[f"{kind}_count_by_len"] = summed(kind) if counted else [0] * (max_len + 1)
        bad = summed(f"{kind}_bad") if mode else [0] * (max_len + 1)
        best = max((length for length, count in enumerate(bad) if count), default=0)
        out[f"{kind}_bad_by_len"] = bad
        out[f"{kind}_bad_len"] = best
        out[f"{kind}_bad_witnesses"] = ([w for row in rows for w in row[f"{kind}_wit"][best]]
                                        [:_kernels.WITNESS_LIMIT] if best else [])
    return out
