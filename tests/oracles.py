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
from math import gcd

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
# it visits every free multiset, settles a non-free subtree in closed form
# and never skips a listed shape or a proper prefix of one.  It is the
# reference for verify_window(settle=True).

class SettleVerify(_kernels._Dfs):
    def __init__(self, universe, period, threshold, tail_regime,
                 len_lo, len_hi, node_budget, settle, shapes):
        # a non-free tail-regime multiset has index total >= threshold, so it
        # fails the condition by arithmetic and its leaf test can settle it
        super().__init__(universe, period, threshold, len_hi, node_budget,
                         settle and tail_regime)
        self.tail_regime = tail_regime
        # only the group condition reads the generator rows
        self.rows = () if tail_regime else _kernels.generator_rows(period, universe)
        self.len_lo = len_lo
        self.total = 0
        self.violations: list[tuple[int, ...]] = []
        self.settle = settle
        self.condition_hits = 0
        self.shape_labels: dict[tuple[int, ...], list[str]] = {}
        self.shape_hits: dict[str, int] = {}
        self.shape_prefixes: set[tuple[int, ...]] = set()
        for label, shape in shapes:
            shape = tuple(shape)
            self.shape_labels.setdefault(shape, []).append(label)
            self.shape_hits[label] = 0
            self.shape_prefixes.update(shape[:i] for i in range(1, len(shape)))

    def _children(self, terms, sums, exact, total, smooth, depth):
        leaf = self.leaf
        if leaf is None:
            return terms
        # settle mode, tail regime: a non-free child is not a violation, so
        # it is settled, unless it is a listed shape or a proper prefix of
        # one, which it can be only at the root or under such a prefix
        children = []
        shapes, prefixes = self.shape_labels, self.shape_prefixes
        shaped = shapes and (not depth or tuple(self.stack) in prefixes)
        for w in terms:
            if sums & leaf[w] and not (shaped and ((child := (*self.stack, w)) in shapes
                                                   or child in prefixes)):
                self.total += (depth + 1 >= self.len_lo) + self._extensions(w, depth + 1)
            else:
                children.append(w)
        return children

    def _node(self, depth, parent_exact, high, total, smooth):
        if depth >= self.len_lo:
            self.total += 1
            if self.tail_regime:
                predicted = smooth and total <= self.threshold - 1
            else:
                predicted = _kernels.smooth_for_some_generator(
                    self.rows, self.stack, self.n, False)
            if self.settle:
                self.condition_hits += predicted
                if self.shape_labels:
                    for label in self.shape_labels.get(tuple(self.stack), ()):
                        self.shape_hits[label] += 1
                        predicted = True
            if (not high & 1) != predicted:
                self.violations.append(tuple(self.stack))
        if (self.settle and high & 1 and depth < self.max_len
                and not (self.shape_prefixes and tuple(self.stack) in self.shape_prefixes)):
            self.total += self._extensions(self.stack[-1], depth)
            return False
        return True

    def _extensions(self, last: int, depth: int) -> int:
        """The in-window proper extensions of a multiset of length depth ending in last."""
        # C(u-last+j, j) multisets add j terms from [last, u]
        return _kernels._multisets(self.u - last + 1, max(1, self.len_lo - depth),
                                   self.max_len - depth)


def settle_window(universe, period, threshold, tail_regime, len_lo, len_hi,
                  first_lo, first_hi, node_budget, shapes=()) -> dict:
    """verify_window(..., settle=True)'s dict, by the reference walk over indices."""
    state = SettleVerify(universe, period, threshold, tail_regime,
                         len_lo, len_hi, node_budget, True, shapes)
    state.run(first_lo, first_hi)
    return {"nodes": state.nodes, "total": state.total, "violations": state.violations,
            "condition_hits": state.condition_hits, "shape_hits": state.shape_hits}
