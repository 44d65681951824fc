"""Enumeration kernels: subset-sum profiles and one multiset DFS.

Self-contained integer routines shared by the higher-level modules.
Subset sums are tracked as bitmasks: bit s of the exact mask marks an
achievable nonempty subsequence index-sum s below the cap, bit r of the
high mask marks an achievable sum >= cap with residue r mod the period.

scan() and verify_window() walk the same depth-first enumeration of
nondecreasing multisets (_Dfs) and differ only in what each visited
multiset does: scan prunes at the first non-free multiset, verify_window
checks the structure condition and, in settle mode, counts the subtree
under a non-free multiset in closed form.

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

__all__ = ["WITNESS_LIMIT", "backend_name", "over_budget", "profile", "profile_step",
           "scan", "verify_window"]


def backend_name() -> str:
    """Kernel backend; the kernels are pure Python, so always "python"."""
    return "python"


def over_budget(budget: int) -> BudgetError:
    """The refusal raised when an enumeration visits more than budget multisets."""
    return BudgetError(
        f"enumeration aborted: visited multisets exceed the node budget {budget}")


def profile_step(exact: int, high: int, v: int, cap: int, period: int) -> tuple[int, int]:
    """(exact_mask, high_mask) after appending the term v to a multiset."""
    shifted = (exact << v) | (1 << v)
    if high:
        d = v % period
        high |= ((high << d) | (high >> (period - d))) & ((1 << period) - 1)
    over = shifted >> cap
    while over:
        low = over & -over
        high |= 1 << ((cap + low.bit_length() - 1) % period)
        over ^= low
    return (exact | shifted) & ((1 << cap) - 2), high


def profile(values, cap: int, period: int) -> tuple[int, int]:
    """Return (exact_mask, high_mask) for the given index multiset."""
    exact = high = 0
    for v in values:
        exact, high = profile_step(exact, high, v, cap, period)
    return exact, high


def _decomposition_tables(universe: int, period: int) -> list[list[int]]:
    """Per-generator lookup of the multiplier n_i with index*inv(g) = n_i mod period."""
    tables = []
    for g in range(1, period):
        if gcd(g, period) != 1:
            continue
        inv = pow(g, -1, period)
        row = [0] * (universe + 1)
        for e in range(1, universe + 1):
            row[e] = (e * inv) % period or period
        tables.append(row)
    return tables


def _is_one_smooth_sorted(values) -> bool:
    reach = 0
    for v in values:
        if v > reach + 1:
            return False
        reach += v
    return True


class _Dfs:
    """Depth-first walk over nondecreasing multisets of [1, universe].

    Each visited multiset is self.stack.  The walk hands the subclass's
    _node(depth, parent_exact, high, total, smooth) the multiset's length,
    the exact mask of its parent (the multiset less its last term), its
    high mask, index total and 1-smoothness; _node returns whether to
    descend.  The walk never goes past max_len terms and refuses with
    BudgetError once it has visited more than node_budget multisets.
    """

    def __init__(self, universe: int, period: int, threshold: int, max_len: int,
                 node_budget: int, tables: bool):
        self.u = universe
        self.n = period
        self.threshold = threshold
        self.max_len = max_len
        self.budget = node_budget
        self.below = (1 << threshold) - 2
        self.nmask = (1 << period) - 1
        self.nodes = 0
        self.stack: list[int] = []
        self.dtabs = _decomposition_tables(universe, period) if tables else []

    def run(self, first_lo: int, first_hi: int) -> None:
        if self.max_len >= 1:
            for v in range(first_lo, first_hi + 1):
                self._visit(v, 0, 0, 0, True)

    def _visit(self, v: int, exact: int, high: int, total: int, smooth: bool) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise over_budget(self.budget)
        n = self.n
        cap = self.threshold
        # profile_step, inlined: a call per node would cost the scan about 3%
        shifted = (exact << v) | (1 << v)
        if high:
            d = v % n
            high |= ((high << d) | (high >> (n - d))) & self.nmask
        over = shifted >> cap
        while over:
            low = over & -over
            high |= 1 << ((cap + low.bit_length() - 1) % n)
            over ^= low
        total += v
        smooth = smooth and v <= 1 + (total - v)
        stack = self.stack
        stack.append(v)
        depth = len(stack)
        if self._node(depth, exact, high, total, smooth) and depth < self.max_len:
            exact = (exact | shifted) & self.below
            visit = self._visit
            for w in range(v, self.u + 1):
                visit(w, exact, high, total, smooth)
        stack.pop()

    def _node(self, depth: int, parent_exact: int, high: int, total: int,
              smooth: bool) -> bool:
        raise NotImplementedError

    def _smooth_for_some_generator(self, want_sum_period: bool) -> bool:
        n = self.n
        for tab in self.dtabs:
            ds = sorted(tab[v] for v in self.stack)
            total = sum(ds)
            if (total == n if want_sum_period else total < n) and _is_one_smooth_sorted(ds):
                return True
        return False


class _Tally:
    """Per-length counts of one kind of bad multiset, and the longest ones."""

    def __init__(self, max_len: int):
        self.by_len = [0] * (max_len + 1)
        self.best_len = 0
        self.best: list[tuple[int, ...]] = []

    def record(self, stack: list[int]) -> None:
        depth = len(stack)
        self.by_len[depth] += 1
        if depth > self.best_len:
            self.best_len = depth
            self.best = [tuple(stack)]
        elif depth == self.best_len and len(self.best) < WITNESS_LIMIT:
            self.best.append(tuple(stack))


class _Scan(_Dfs):
    def __init__(self, universe, period, threshold, max_len,
                 free_bad_mode, minimal_bad_mode, node_budget):
        super().__init__(universe, period, threshold, max_len, node_budget,
                         free_bad_mode == 2 or minimal_bad_mode in (2, 3))
        self.free_bad_mode = free_bad_mode
        self.minimal_bad_mode = minimal_bad_mode
        self.free_count = [0] * (max_len + 1)
        self.minimal_count = [0] * (max_len + 1)
        self.free_bad = _Tally(max_len)
        self.minimal_bad = _Tally(max_len)
        # bits n, 2n, ... below the threshold: a base-2**n repunit, shifted
        count = (threshold - 1) // period
        self.period_multiples = (((1 << count * period) - 1) // self.nmask) << period

    def _index_is_one(self) -> bool:
        if not self.dtabs:
            return True
        n = self.n
        return any(sum(tab[v] for v in self.stack) == n for tab in self.dtabs)

    def _is_minimal(self, parent_exact: int, total: int) -> bool:
        """Whether S = stack, whose parent P = S - last is free, is minimal idempotent-sum.

        S is idempotent-sum iff t <= total and n | total.  Then S is minimal
        iff no nonempty C within P has n | sum(C) <= total - t: such a C
        makes S - C idempotent-sum while it misses a term of C, and an
        idempotent-sum T within S - x holds last (P is free), so C = S - T
        lies in P.  Every such sum(C) is below t (else C would make P not
        free), so the test reads P's exact mask.
        """
        t = self.threshold
        if total < t or total % self.n:
            return False
        return not parent_exact & self.period_multiples & ((2 << (total - t)) - 1)

    def _node(self, depth, parent_exact, high, total, smooth):
        if high & 1:
            # not free: a minimal idempotent-sum candidate, then prune
            mode = self.minimal_bad_mode
            if mode and self._is_minimal(parent_exact, total):
                self.minimal_count[depth] += 1
                if mode == 1:
                    bad = not smooth
                elif mode == 2:
                    bad = not self._smooth_for_some_generator(want_sum_period=True)
                else:
                    bad = not self._index_is_one()
                if bad:
                    self.minimal_bad.record(self.stack)
            return False
        self.free_count[depth] += 1
        mode = self.free_bad_mode
        if mode:
            if mode == 1:
                bad = not smooth
            else:
                bad = not self._smooth_for_some_generator(want_sum_period=False)
            if bad:
                self.free_bad.record(self.stack)
        return True


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
    state.run(first_lo, first_hi)
    return {
        "nodes": state.nodes,
        "free_count_by_len": state.free_count,
        "minimal_count_by_len": state.minimal_count,
        "free_bad_by_len": state.free_bad.by_len,
        "minimal_bad_by_len": state.minimal_bad.by_len,
        "free_bad_len": state.free_bad.best_len,
        "free_bad_witnesses": state.free_bad.best,
        "minimal_bad_len": state.minimal_bad.best_len,
        "minimal_bad_witnesses": state.minimal_bad.best,
    }


class _Verify(_Dfs):
    def __init__(self, universe, period, threshold, tail_regime,
                 len_lo, len_hi, node_budget, settle, shapes):
        super().__init__(universe, period, threshold, len_hi, node_budget, not tail_regime)
        self.tail_regime = tail_regime
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

    def _node(self, depth, parent_exact, high, total, smooth):
        if depth >= self.len_lo:
            self.total += 1
            if self.tail_regime:
                predicted = smooth and total <= self.threshold - 1
            else:
                predicted = self._smooth_for_some_generator(want_sum_period=False)
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
            # count the in-window proper extensions instead of visiting them:
            # C(u-v+j, j) multisets add j terms from [v, u]
            spare = self.u - self.stack[-1]
            self.total += sum(comb(spare + j, j) for j in
                              range(max(1, self.len_lo - depth), self.max_len - depth + 1))
            return False
        return True


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
