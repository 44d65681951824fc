"""Pure-Python enumeration kernels.

Self-contained integer routines shared by the higher-level modules; the
compiled extension (_ckernels) mirrors these signatures exactly.  Subset
sums are tracked as bitmasks: bit s of the exact mask marks an achievable
nonempty subsequence index-sum s below the cap, bit r of the high mask
marks an achievable sum >= cap with residue r mod the period.

Free/minimal/bad classification modes for scan():
  free_bad_mode     0 none, 1 bad = index multiset not 1-smooth,
                    2 bad = residues not g-smooth for any generator
  minimal_bad_mode  0 none, 1 bad = index multiset not 1-smooth,
                    2 bad = residues not zero-sum g-smooth for any generator,
                    3 bad = no generator decomposes the residues with sum
                      exactly one period (sequence index != 1)
"""

from __future__ import annotations

from math import comb, gcd

from idemfree.errors import BudgetError

WITNESS_LIMIT = 200


def profile(values, cap: int, period: int) -> tuple[int, int]:
    """Return (exact_mask, high_mask) for the given index multiset."""
    below = (1 << cap) - 2
    nmask = (1 << period) - 1
    exact = 0
    high = 0
    for v in values:
        shifted = (exact << v) | (1 << v)
        if high:
            d = v % period
            high |= ((high << d) | (high >> (period - d))) & nmask
        over = shifted >> cap
        while over:
            low = over & -over
            high |= 1 << ((cap + low.bit_length() - 1) % period)
            over ^= low
        exact = (exact | shifted) & below
    return exact, high


def _decomposition_tables(universe: int, period: int) -> tuple[list[int], list[list[int]]]:
    """Per-generator lookup of the multiplier n_i with index*inv(g) = n_i mod period."""
    gens = [g for g in range(1, period) if gcd(g, period) == 1]
    tables = []
    for g in gens:
        inv = pow(g, -1, period)
        row = [0] * (universe + 1)
        for e in range(1, universe + 1):
            row[e] = (e * inv) % period or period
        tables.append(row)
    return gens, tables


def _is_one_smooth_sorted(values) -> bool:
    reach = 0
    for v in values:
        if v > reach + 1:
            return False
        reach += v
    return True


class _Scan:
    def __init__(self, universe, period, threshold, max_len,
                 free_bad_mode, minimal_bad_mode, node_budget):
        self.u = universe
        self.n = period
        self.threshold = threshold
        self.max_len = max_len
        self.free_bad_mode = free_bad_mode
        self.minimal_bad_mode = minimal_bad_mode
        self.budget = node_budget
        self.below = (1 << threshold) - 2
        self.nmask = (1 << period) - 1
        self.nodes = 0
        self.stack: list[int] = []
        self.free_count = [0] * (max_len + 1)
        self.minimal_count = [0] * (max_len + 1)
        self.free_bad = [0] * (max_len + 1)
        self.minimal_bad = [0] * (max_len + 1)
        self.free_best: list[tuple[int, ...]] = []
        self.free_best_len = 0
        self.minimal_best: list[tuple[int, ...]] = []
        self.minimal_best_len = 0
        if free_bad_mode == 2 or minimal_bad_mode in (2, 3):
            self.gens, self.dtabs = _decomposition_tables(universe, period)
        else:
            self.gens, self.dtabs = [], []

    def _smooth_for_some_generator(self, want_sum_period: bool) -> bool:
        n = self.n
        for tab in self.dtabs:
            ds = sorted(tab[v] for v in self.stack)
            total = sum(ds)
            if (total == n if want_sum_period else total < n) and _is_one_smooth_sorted(ds):
                return True
        return False

    def _index_is_one(self) -> bool:
        if not self.gens:
            return True
        n = self.n
        return any(sum(tab[v] for v in self.stack) == n for tab in self.dtabs)

    def _record_free_bad(self, depth: int) -> None:
        self.free_bad[depth] += 1
        if depth > self.free_best_len:
            self.free_best_len = depth
            self.free_best = [tuple(self.stack)]
        elif depth == self.free_best_len and len(self.free_best) < WITNESS_LIMIT:
            self.free_best.append(tuple(self.stack))

    def _record_minimal_bad(self, depth: int) -> None:
        self.minimal_bad[depth] += 1
        if depth > self.minimal_best_len:
            self.minimal_best_len = depth
            self.minimal_best = [tuple(self.stack)]
        elif depth == self.minimal_best_len and len(self.minimal_best) < WITNESS_LIMIT:
            self.minimal_best.append(tuple(self.stack))

    def _is_minimal(self, total: int) -> bool:
        if total < self.threshold or total % self.n:
            return False
        # every single-term removal must leave a free multiset; removing the
        # final (maximal) term gives the parent, already known free
        last = self.stack[-1]
        seen = set()
        for i, w in enumerate(self.stack[:-1]):
            if w == last or w in seen:
                continue
            seen.add(w)
            rest = self.stack[:i] + self.stack[i + 1:]
            _, high = profile(rest, self.threshold, self.n)
            if high & 1:
                return False
        return True

    def run(self, first_lo: int, first_hi: int) -> None:
        for v in range(first_lo, first_hi + 1):
            self._visit(v, 0, 0, 0, True)

    def _visit(self, v: int, exact: int, high: int, total: int, smooth: bool) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetError(
                f"enumeration aborted: visited multisets exceed the node budget {self.budget}")
        n = self.n
        shifted = (exact << v) | (1 << v)
        if high:
            d = v % n
            high |= ((high << d) | (high >> (n - d))) & self.nmask
        over = shifted >> self.threshold
        while over:
            low = over & -over
            high |= 1 << ((self.threshold + low.bit_length() - 1) % n)
            over ^= low
        exact = (exact | shifted) & self.below
        total += v
        smooth = smooth and v <= 1 + (total - v)
        self.stack.append(v)
        depth = len(self.stack)
        if high & 1:
            # not free: a minimal idempotent-sum candidate, then prune
            if self.minimal_bad_mode and self._is_minimal(total):
                self.minimal_count[depth] += 1
                mode = self.minimal_bad_mode
                if mode == 1:
                    bad = not smooth
                elif mode == 2:
                    bad = not self._smooth_for_some_generator(want_sum_period=True)
                else:
                    bad = not self._index_is_one()
                if bad:
                    self._record_minimal_bad(depth)
        else:
            self.free_count[depth] += 1
            if self.free_bad_mode:
                if self.free_bad_mode == 1:
                    bad = not smooth
                else:
                    bad = not self._smooth_for_some_generator(want_sum_period=False)
                if bad:
                    self._record_free_bad(depth)
            if depth < self.max_len:
                for w in range(v, self.u + 1):
                    self._visit(w, exact, high, total, smooth)
        self.stack.pop()


def scan(universe: int, period: int, threshold: int, max_len: int,
         first_lo: int, first_hi: int,
         free_bad_mode: int, minimal_bad_mode: int, node_budget: int) -> dict:
    """Enumerate free multisets (and their one-term extensions) by DFS.

    Visits exactly the nondecreasing multisets over [1, universe] whose
    proper prefixes are all free, up to length max_len, with the smallest
    element in [first_lo, first_hi]; classifies each as free or as a
    minimal idempotent-sum candidate and tallies the "bad" ones per the
    modes above.
    """
    state = _Scan(universe, period, threshold, max_len,
                  free_bad_mode, minimal_bad_mode, node_budget)
    if max_len >= 1:
        state.run(first_lo, first_hi)
    return {
        "nodes": state.nodes,
        "free_count_by_len": state.free_count,
        "minimal_count_by_len": state.minimal_count,
        "free_bad_by_len": state.free_bad,
        "minimal_bad_by_len": state.minimal_bad,
        "free_bad_len": state.free_best_len,
        "free_bad_witnesses": state.free_best,
        "minimal_bad_len": state.minimal_best_len,
        "minimal_bad_witnesses": state.minimal_best,
    }


class _Verify:
    def __init__(self, universe, period, threshold, tail_regime,
                 len_lo, len_hi, node_budget, settle, shapes):
        self.u = universe
        self.n = period
        self.threshold = threshold
        self.tail_regime = tail_regime
        self.len_lo = len_lo
        self.len_hi = len_hi
        self.budget = node_budget
        self.below = (1 << threshold) - 2
        self.nmask = (1 << period) - 1
        self.nodes = 0
        self.total = 0
        self.stack: list[int] = []
        self.violations: list[tuple[int, ...]] = []
        if tail_regime:
            self.gens, self.dtabs = [], []
        else:
            self.gens, self.dtabs = _decomposition_tables(universe, period)
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

    def _condition(self, total: int, smooth: bool) -> bool:
        if self.tail_regime:
            return smooth and total <= self.threshold - 1
        n = self.n
        for tab in self.dtabs:
            ds = sorted(tab[v] for v in self.stack)
            if sum(ds) < n and _is_one_smooth_sorted(ds):
                return True
        return False

    def run(self, first_lo: int, first_hi: int) -> None:
        for v in range(first_lo, first_hi + 1):
            self._visit(v, 0, 0, 0, True)

    def _visit(self, v, exact, high, total, smooth) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetError(
                f"enumeration aborted: visited multisets exceed the node budget {self.budget}")
        n = self.n
        shifted = (exact << v) | (1 << v)
        if high:
            d = v % n
            high |= ((high << d) | (high >> (n - d))) & self.nmask
        over = shifted >> self.threshold
        while over:
            low = over & -over
            high |= 1 << ((self.threshold + low.bit_length() - 1) % n)
            over ^= low
        exact = (exact | shifted) & self.below
        total += v
        smooth = smooth and v <= 1 + (total - v)
        self.stack.append(v)
        depth = len(self.stack)
        if depth >= self.len_lo:
            self.total += 1
            free = not (high & 1)
            predicted = self._condition(total, smooth)
            if self.settle:
                self.condition_hits += predicted
                for label in self.shape_labels.get(tuple(self.stack), ()):
                    self.shape_hits[label] += 1
                    predicted = True
            if free != predicted:
                self.violations.append(tuple(self.stack))
        if depth < self.len_hi:
            if self.settle and high & 1 and tuple(self.stack) not in self.shape_prefixes:
                # count the in-window proper extensions instead of visiting them:
                # C(u-v+j, j) multisets add j terms from [v, u]
                spare = self.u - v
                self.total += sum(comb(spare + j, j) for j in
                                  range(max(1, self.len_lo - depth), self.len_hi - depth + 1))
            else:
                for w in range(v, self.u + 1):
                    self._visit(w, exact, high, total, smooth)
        self.stack.pop()


def verify_window(universe: int, period: int, threshold: int, tail_regime: bool,
                  len_lo: int, len_hi: int, first_lo: int, first_hi: int,
                  node_budget: int, settle: bool = False, shapes=()) -> dict:
    """Check free <=> smooth-structure over all multisets in a length window.

    tail_regime selects the structure condition: True compares against
    "1-smooth with index sum below the threshold" (index exceeds period),
    False against "g-smooth residues for some generator" (index within
    period).

    settle=True skips the subtree under every node that is not free,
    adding its in-window multisets to total in closed form; nodes counts
    visited multisets only.  Each skipped multiset is not free (that is
    upward-closed) and fails the condition, which implies freeness: it
    keeps every subsequence sum below the threshold (tail) or off 0 mod
    the period (group).  So none is a violation.  shapes, a sequence of
    (label, multiset) pairs, makes each listed multiset predict free as
    well (the critical-case split), and a proper prefix of a shape is
    never skipped.  Settle mode adds the keys condition_hits and
    shape_hits (per label), both over the window.
    """
    state = _Verify(universe, period, threshold, tail_regime,
                    len_lo, len_hi, node_budget, settle, shapes)
    if len_hi >= 1:
        state.run(first_lo, first_hi)
    result = {
        "nodes": state.nodes,
        "total": state.total,
        "violations": state.violations,
    }
    if settle:
        result["condition_hits"] = state.condition_hits
        result["shape_hits"] = state.shape_hits
    return result
