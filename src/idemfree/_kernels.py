"""Enumeration kernels, and the one home of each sequence predicate.

Self-contained integer routines shared by the higher-level modules.
Subset sums are tracked as bitmasks: bit s of the exact mask marks an
achievable nonempty subsequence index-sum s below the cap, bit r of the
high mask marks an achievable sum >= cap with residue r mod the period.

This module is the one home of each sequence predicate that classify and
the DFS share: the subset-sum step (profile_step), the generator table
(generator_rows), the 1-smooth ladder test (is_one_smooth_sorted, and
_ladder for every one-term extension at once) and the minimality rule
(is_minimal_extension); idemfree.classify checks outside input and calls
them.

scan() walks a depth-first enumeration of nondecreasing multisets (_Dfs)
that visits only free multisets: each non-free child of a free multiset is
decided from its parent's masks, a minimal idempotent-sum candidate
classified there in closed form (minimal_candidates), and counted without
a visit.  In modes 0 and 1 the children of each free child are decided at
its parent too, by the pair rule (_Scan): P + v + w, for free children
v <= w of a free P, is free iff P's sums miss the leaf mask of the term
sum v + w.  So a free child with no free child is not visited either; its
minimal candidates are classified and its children counted at its parent.
verify_window in settle mode is that walk in mode 1 (tail regime) or 2
(group regime), tallying every free bad multiset of its window: a
non-free multiset fails the structure condition, so the violations are
the free ones that fail it, and the rest of the window is closed form.
Without settle, verify_window visits every multiset (_Verify).

In the group regime (threshold == period < universe) every predicate of
scan but mode 1 reads residues only, so scan over the whole first-term
range walks residue multisets there, the walk of the index-1 semigroup,
and counts each residue multiset's index lifts in closed form (_LiftScan):
per-length counts, witnesses and nodes are those of the walk over indices.
A settle-mode group window over the whole first-term range runs that
walk: its violations are the lifts of the free residue multisets that are
not g-smooth.  Mode 1 and single-first-term shards walk indices.

Free/minimal/bad classification modes for scan():
  free_bad_mode     0 none, 1 bad = index multiset not 1-smooth,
                    2 bad = residues not g-smooth for any generator
  minimal_bad_mode  0 none, 1 bad = index multiset not 1-smooth,
                    2 bad = residues not zero-sum g-smooth for any generator,
                    3 bad = no generator decomposes the residues with sum
                      exactly one period (sequence index != 1)
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from heapq import merge
from itertools import groupby, islice, product
from math import comb, gcd

from idemfree.errors import BudgetError

WITNESS_LIMIT = 200

__all__ = ["WITNESS_LIMIT", "backend_name", "generator_rows", "is_minimal",
           "is_minimal_extension", "is_one_smooth_sorted", "minimal_candidates", "over_budget",
           "period_multiples", "profile", "profile_step", "scan", "smooth_for_some_generator",
           "verify_window"]


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
    if over:
        # clear bits >= cap only here, so the mask is min(cap, total+1) bits wide
        shifted ^= over << cap
        while over:
            low = over & -over
            high |= 1 << ((cap + low.bit_length() - 1) % period)
            over ^= low
    return exact | shifted, high


def profile(values, cap: int, period: int) -> tuple[int, int]:
    """Return (exact_mask, high_mask) for the given index multiset."""
    exact = high = 0
    for v in values:
        exact, high = profile_step(exact, high, v, cap, period)
    return exact, high


@lru_cache(maxsize=32)
def generator_rows(period: int, top: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(g, row) for each generator g of the integers mod period, least g first.

    row[e], for 0 <= e <= top, is the multiplier m in [1, period] with
    m*g = e mod period.  row[0] == period, and one row decomposes indices
    and residues alike.  The period-1 group has no generator.
    """
    # every row holds these int objects, so an entry costs one pointer
    multipliers = [period, *range(1, period)]
    rows = []
    for g in range(1, period):
        if gcd(g, period) == 1:
            inv = pow(g, -1, period)
            rows.append((g, tuple(multipliers[e * inv % period] for e in range(top + 1))))
    return tuple(rows)


def is_one_smooth_sorted(values) -> bool:
    """Whether each term of a nondecreasing multiset is at most 1 + the sum before it."""
    reach = 0
    for v in values:
        if v > reach + 1:
            return False
        reach += v
    return True


def _ladder(ds: list[int]) -> tuple[int, int]:
    """(reach, need) of a nondecreasing D: D + [x] is 1-smooth iff need <= x <= reach + 1.

    A gap of D is a term y above 1 + the sum of the terms below it; reach
    is the sum of the terms below the least gap (of all terms if none) and
    need the largest y - 1 - that sum over the gaps (0 if none).  D + [x]
    is 1-smooth iff x closes every gap, so x is at least need and below
    every gap, and x itself is at most 1 + the sum below it.  The terms
    below the least gap form a 1-smooth ladder of total reach, so that
    holds iff x <= reach + 1, which is below the least gap.
    """
    total, reach, need = 0, None, 0
    for y in ds:
        if y > total + 1:
            if reach is None:
                reach = total
            need = max(need, y - 1 - total)
        total += y
    return (total if reach is None else reach), need


def smooth_for_some_generator(rows, values, period: int, zero_sum: bool) -> bool:
    """Whether some row makes values a 1-smooth ladder: total period if zero_sum, else below."""
    for _, row in rows:
        ds = [row[v] for v in values]
        total = sum(ds)
        # the total rules out most rows, so sort only the ones it admits
        if (total == period if zero_sum else total < period) and is_one_smooth_sorted(sorted(ds)):
            return True
    return False


def _spaced_bits(start: int, stop: int, step: int) -> int:
    """The mask of bits start, start+step, ... below stop (start < stop + step)."""
    # a base-2**step repunit, shifted
    count = (stop - 1 - start) // step + 1
    return (((1 << count * step) - 1) // ((1 << step) - 1)) << start


def period_multiples(threshold: int, period: int) -> int:
    """The mask of bits period, 2*period, ... below the threshold."""
    return _spaced_bits(period, threshold, period)


def is_minimal_extension(parent_exact: int, total: int, threshold: int, period: int,
                         multiples: int) -> bool:
    """Whether S = P + x, with P free, is minimal idempotent-sum.

    parent_exact is P's exact mask, total S's index total and multiples
    period_multiples(threshold, period).  S is idempotent-sum iff t <= total
    and n | total.  Then S is minimal iff no nonempty C within P has
    n | sum(C) <= total - t: such a C makes S - C idempotent-sum while it
    misses a term of C; conversely an idempotent-sum T within some S - y
    holds x (P is free), so C = S - T lies in P.  Every such sum(C) is
    below t (else C would make P not free), so the test reads P's exact
    mask.  Any term of S may serve as x.
    """
    if total < threshold or total % period:
        return False
    return not parent_exact & multiples & ((2 << (total - threshold)) - 1)


def minimal_candidates(terms: range, parent_exact: int, total: int, threshold: int,
                       period: int, multiples: int) -> range:
    """The w in terms with P + w minimal idempotent-sum, for a free multiset P.

    parent_exact is P's exact mask, total P's index total and multiples
    period_multiples(threshold, period).  By is_minimal_extension these are
    the w with total + w >= threshold and a multiple of period, and
    total + w - threshold below the least multiple of period in P's exact
    mask: one progression of step period.
    """
    lo = threshold - total
    stop = terms.stop
    blockers = parent_exact & multiples
    if blockers:
        stop = min(stop, (blockers & -blockers).bit_length() - 1 + lo)
    # a comparison, not max: the scan calls this for every free multiset
    if lo < terms.start:
        lo = terms.start
    return range(lo + -(total + lo) % period, stop, period)


def is_minimal(values, threshold: int, period: int) -> bool:
    """Whether a nonempty nondecreasing index multiset is minimal idempotent-sum.

    Takes the largest term as x of is_minimal_extension: S is minimal iff
    it is idempotent-sum, P = S - x is free and the mask test passes.
    """
    total = sum(values)
    if total < threshold or total % period:
        return False
    exact, high = profile(values[:-1], threshold, period)
    return not high & 1 and is_minimal_extension(exact, total, threshold, period,
                                                 period_multiples(threshold, period))


def _leaf_masks(universe: int, period: int, threshold: int) -> tuple[int, ...]:
    """Per term w, the sums that make a free multiset P not free once w joins it.

    P + w is not free iff some subsequence holding w reaches the idempotent:
    w alone, w plus an exact sum s of P, or w plus a high sum of P.  With
    r = -w mod period, entry w holds bit s for each s in [0, threshold-1]
    with s = r (mod period) and s >= threshold - w (bit 0 stands for w
    alone), and bit threshold + r.  So P + w is not free iff entry w meets
    P's exact mask | 1 | P's high mask << threshold.

    w may also be the sum v + w of two terms, read as one term (the pair
    rule of _Scan), so the table runs to 2 * universe.  From the threshold
    on an entry depends only on w mod period: entries past threshold +
    period - 1 are folded onto [threshold, threshold + period) and share
    those masks.
    """
    masks = [0]
    for w in range(1, threshold + period):
        r = -w % period
        least = max(0, threshold - w)
        masks.append(_spaced_bits(least + (r - least) % period, threshold, period)
                     | 1 << (threshold + r))
    for w in range(threshold + period, 2 * universe + 1):
        masks.append(masks[w - period])
    return tuple(masks)


class _Dfs:
    """Depth-first walk over nondecreasing multisets of [1, universe].

    The walk starts at the empty multiset and descends from each node P,
    held in self.stack, in one _descend call.  That call asks the policy's
    _children(terms, sums, exact, total, smooth, depth) which children
    P + w, w in terms, to visit.  terms is range(last term of P,
    universe + 1), or the first-term range at the root; sums is P's exact
    mask | 1 | P's high mask << threshold (1 at the root); exact, total,
    smooth and depth are P's exact mask, index total, 1-smoothness and
    length.  For a free P, child w is not free iff sums meets _leaf_masks
    entry w, which policies that settle leaves (settles=True) get as
    self.leaf.  _children returns the children to visit, in increasing
    order.  Every other child is a settled leaf, which the policy decides
    from P's masks; the walk counts it without a visit, adding each run of
    settled leaves to nodes just before the next visit and the run after
    the last visit at the end, with the budget check each time.  nodes
    thus counts visited multisets and settled leaves in DFS order.  A
    policy counts any other multisets it reaches with _count (the lift
    leaves of _LiftScan).

    A policy with pairs set decides each child's children at P too: for
    each child v = children[i] shorter than max_len, before the walk builds
    v's high mask, it asks _childless(children, i, sums, exact, total,
    smooth, depth) with P's sums and v's exact mask, index total,
    1-smoothness and length.  A true answer means every child of v is a
    settled leaf, so v is settled as well: the walk counts v and its
    children at that point and neither builds v's high mask nor descends.

    Each other child in the list is visited: it goes to _node(depth,
    parent_exact, high, total, smooth) with its length, the exact mask of
    its parent, its high mask, index total and 1-smoothness; _node returns
    whether to descend.

    The walk never goes past max_len terms and refuses with BudgetError
    once nodes exceeds node_budget, or once its recursion, one _descend
    call per term of each multiset it descends from, hits Python's
    recursion limit.
    """

    def __init__(self, universe: int, period: int, threshold: int, max_len: int,
                 node_budget: int, settles: bool):
        self.u = universe
        self.n = period
        self.threshold = threshold
        self.max_len = max_len
        self.budget = node_budget
        self.below = (1 << threshold) - 2
        self.nmask = (1 << period) - 1
        self.nodes = 0
        self.stack: list[int] = []
        self.leaf = _leaf_masks(universe, period, threshold) if settles else None
        self.pairs = False

    def run(self, first_lo: int, first_hi: int) -> None:
        try:
            if self.max_len >= 1:
                # the empty multiset: free, and its only subset sum is 0
                self._descend(range(first_lo, first_hi + 1), 1, 0, 0, 0, True)
        except RecursionError:
            raise BudgetError(f"enumeration aborted: a walk to length {self.max_len} "
                              "exceeds Python's recursion limit") from None

    def _descend(self, terms: range, sums: int, exact: int, high: int, total: int,
                 smooth: bool) -> None:
        stack = self.stack
        depth = len(stack) + 1
        n = self.n
        cap = self.threshold
        budget = self.budget
        deeper = depth < self.max_len
        pairs = self.pairs and deeper
        top = self.u + 1
        nxt = terms.start
        children = self._children(terms, sums, exact, total, smooth, depth - 1)
        for i, v in enumerate(children):
            # the settled leaves before v, then v
            self.nodes += v - nxt + 1
            if self.nodes > budget:
                raise over_budget(budget)
            nxt = v + 1
            # profile_step, inlined (a call per node would cost the scan about 3%):
            # the exact mask here, the high mask only for a child the walk visits
            shifted = (exact << v) | (1 << v)
            child_exact = (exact | shifted) & self.below
            child_total = total + v
            child_smooth = smooth and v <= 1 + total
            stack.append(v)
            if pairs and self._childless(children, i, sums, child_exact, child_total,
                                         child_smooth, depth):
                # v's children, all settled leaves
                self.nodes += top - v
                if self.nodes > budget:
                    raise over_budget(budget)
            else:
                child_high = high
                if high:
                    d = v % n
                    child_high |= ((high << d) | (high >> (n - d))) & self.nmask
                over = shifted >> cap
                while over:
                    low = over & -over
                    child_high |= 1 << ((cap + low.bit_length() - 1) % n)
                    over ^= low
                if self._node(depth, exact, child_high, child_total, child_smooth) and deeper:
                    self._descend(range(v, top), child_exact | 1 | child_high << cap,
                                  child_exact, child_high, child_total, child_smooth)
            stack.pop()
        if nxt < terms.stop:
            self.nodes += terms.stop - nxt
            if self.nodes > budget:
                raise over_budget(budget)

    def _count(self, reached: int) -> None:
        """Add reached multisets to nodes, refusing once nodes exceeds the budget."""
        self.nodes += reached
        if self.nodes > self.budget:
            raise over_budget(self.budget)

    def _children(self, terms: range, sums: int, exact: int, total: int, smooth: bool,
                  depth: int):
        raise NotImplementedError

    def _node(self, depth: int, parent_exact: int, high: int, total: int,
              smooth: bool) -> bool:
        raise NotImplementedError


class _Tally:
    """Per-length counts of one kind of bad multiset, and the longest ones."""

    def __init__(self, max_len: int):
        self.by_len = [0] * (max_len + 1)
        self.best_len = 0
        self.best: list[tuple[int, ...]] = []

    def record(self, prefix: list[int], lasts, count: int) -> None:
        """Tally prefix + [w] for each w of the increasing sequence lasts, count in all."""
        if not lasts:
            return
        depth = len(prefix) + 1
        self.by_len[depth] += count
        if depth > self.best_len:
            self.best_len = depth
            self.best = []
        room = WITNESS_LIMIT - len(self.best)
        if depth == self.best_len and room > 0:
            head = tuple(prefix)
            self.best.extend(head + (w,) for w in lasts[:room])


class _Every(_Tally):
    """Per-length counts of one kind of bad multiset, and every one from length lo on."""

    def __init__(self, max_len: int, lo: int):
        super().__init__(max_len)
        self.lo = lo
        self.every: list[tuple[int, ...]] = []

    def record(self, prefix: list[int], lasts, count: int) -> None:
        depth = len(prefix) + 1
        self.by_len[depth] += count
        if depth >= self.lo:
            head = tuple(prefix)
            self.every.extend(head + (w,) for w in lasts)


class _Scan(_Dfs):
    """Visits only free multisets: _children classifies every child of a node.

    Each free child and each minimal idempotent-sum candidate among the
    children of a node P has length len(P) + 1, and every multiset under a
    free child of P is longer, so classifying them before the descent
    keeps each length's witnesses in DFS (lexicographic) order.

    Without generator rows (modes 0 and 1) the walk decides each free
    child's children at its parent (pairs, _childless), by the pair rule:
    for a free P with free children F and v <= w in F, P + v + w is free
    iff P's sums miss _leaf_masks entry v + w.  A subsequence holding w
    either misses v, and P + w is free, or holds v too and sums to v + w
    plus 0 or a subset sum of P.  So a free child v of P has the free
    children w >= v in F that pass that test, and the walk visits v only
    if it has one; otherwise v's minimal candidates are classified at P
    and v's children counted there.  The list of each visited child comes
    from its parent (kids); only the root tests the terms one by one.
    Since the first-term range may stop before the universe, the root
    keeps its free children over [first_lo, universe] (roots) for the pair
    rule.  The walks with generator rows (modes 2 and 3) and _LiftScan,
    where row and lift work dominate, visit every free child and test its
    terms one by one.

    For modes 2 and 3, live[d] holds (total, row, reach, need) for each
    generator row whose total over the first d terms on the stack is below
    the period: a row at or past it can neither stay below it nor come to
    equal it.  In mode 2, reach and need summarize the row's ladder D,
    those terms' multipliers (_ladder): D + [x] is 1-smooth iff
    need <= x <= reach + 1.
    """

    def __init__(self, universe, period, threshold, max_len,
                 free_bad_mode, minimal_bad_mode, node_budget):
        super().__init__(universe, period, threshold, max_len, node_budget, True)
        self.free_bad_mode = free_bad_mode
        self.minimal_bad_mode = minimal_bad_mode
        self.free_count = [0] * (max_len + 1)
        self.minimal_count = [0] * (max_len + 1)
        self.free_bad = _Tally(max_len)
        self.minimal_bad = _Tally(max_len)
        self.multiples = period_multiples(threshold, period)
        self.live = None
        # phi(period) rows of universe + 1 entries, which only modes 2 and 3 read
        self.rows = ()
        if {free_bad_mode, minimal_bad_mode} & {2, 3}:
            self.rows = generator_rows(period, universe)
            self.live = [[]] * (max_len + 1)
            self.live[0] = [(0, row, 0, 0) for _, row in self.rows]
        self.ladders = 2 in (free_bad_mode, minimal_bad_mode)
        self.pairs = self.live is None
        self.roots: list[int] = []
        self.kids: list[int] = []

    def _bad(self, lasts, total: int, smooth: bool, depth: int, mode: int, zero_sum: bool):
        """The w in lasts with self.stack + [w] bad per mode (minimal ones if zero_sum)."""
        if mode == 1:
            # P + w is 1-smooth iff P is and w <= 1 + total
            return lasts if not smooth else [w for w in lasts if w > total + 1]
        n = self.n
        live = self.live[depth]
        if mode == 3:
            if not self.rows:
                return []
            return [w for w in lasts if not any(t + row[w] == n for t, row, _, _ in live)]
        bad = []
        for w in lasts:
            for t, row, reach, need in live:
                x = row[w]
                if (t + x == n if zero_sum else t + x < n) and need <= x <= reach + 1:
                    break
            else:
                bad.append(w)
        return bad

    def _children(self, terms, sums, exact, total, smooth, depth, weigh=len):
        """Count and classify P's children, weighing each list of them with weigh."""
        if depth and self.live is not None:
            n, stack = self.n, self.stack
            v = stack[-1]
            live = []
            for t, row, reach, need in self.live[depth - 1]:
                x = row[v]
                if t + x >= n:
                    continue
                if not self.ladders:
                    live.append((t + x, row, 0, 0))
                elif need <= x <= reach + 1:
                    live.append((t + x, row, t + x, 0))
                elif not need and x > t + 1:
                    # a smooth ladder with x on top: x is its one gap
                    live.append((t + x, row, t, x - 1 - t))
                else:
                    live.append((t + x, row, *_ladder(sorted([row[w] for w in stack]))))
            self.live[depth] = live
        if self.minimal_bad_mode:
            candidates = minimal_candidates(terms, exact, total, self.threshold, self.n,
                                            self.multiples)
            if candidates:
                self._minimal(candidates, total, smooth, depth, weigh)
        if depth and self.pairs:
            free = self.kids
        else:
            leaf = self.leaf
            free = [w for w in terms if not sums & leaf[w]]
            if self.pairs:
                # the root's free children past the first-term range, for the pair rule
                self.roots = free + [w for w in range(terms.stop, self.u + 1)
                                     if not sums & leaf[w]]
        if free:
            self.free_count[depth + 1] += weigh(free)
            if self.free_bad_mode:
                bad = self._bad(free, total, smooth, depth, self.free_bad_mode, False)
                self.free_bad.record(self.stack, bad, weigh(bad))
        return free

    def _minimal(self, candidates, total, smooth, depth, weigh=len) -> None:
        """Count and classify P's children in candidates, P's minimal idempotent-sum ones."""
        self.minimal_count[depth + 1] += weigh(candidates)
        bad = self._bad(candidates, total, smooth, depth, self.minimal_bad_mode, True)
        self.minimal_bad.record(self.stack, bad, weigh(bad))

    def _childless(self, free, i, sums, exact, total, smooth, depth) -> bool:
        """Whether child v = free[i] of P has no free child; else keep them as kids.

        free is P's free children (roots at the root), sums P's; exact,
        total, smooth and depth are v's.  A childless v is not visited, so
        its minimal candidates are classified here, with v on the stack.
        """
        if depth == 1:
            free = self.roots
        v = free[i]
        leaf = self.leaf
        kids = [w for w in free[i:] if not sums & leaf[v + w]]
        if kids:
            self.kids = kids
            return False
        if self.minimal_bad_mode:
            candidates = minimal_candidates(range(v, self.u + 1), exact, total, self.threshold,
                                            self.n, self.multiples)
            if candidates:
                self._minimal(candidates, total, smooth, depth)
        return True

    def _node(self, depth, parent_exact, high, total, smooth):
        return True

    def _witnesses(self, tally: _Tally) -> list[tuple[int, ...]]:
        return tally.best

    def result(self) -> dict:
        """scan's result dict, once run has returned."""
        return {
            "nodes": self.nodes,
            "free_count_by_len": self.free_count,
            "minimal_count_by_len": self.minimal_count,
            "free_bad_by_len": self.free_bad.by_len,
            "minimal_bad_by_len": self.minimal_bad.by_len,
            "free_bad_len": self.free_bad.best_len,
            "free_bad_witnesses": self._witnesses(self.free_bad),
            "minimal_bad_len": self.minimal_bad.best_len,
            "minimal_bad_witnesses": self._witnesses(self.minimal_bad),
        }


def _lifts(residues: tuple[int, ...], period: int, lifted: int):
    """The index lifts of a residue multiset, in lexicographic order.

    residues is nondecreasing over [1, period], period standing for 0, and
    each residue r < lifted is also the index r + period.  A lift moves c_r
    of the m_r copies of each such r up; as a sorted tuple it holds the
    unmoved residues, then the moved ones, so keeping more copies of the
    least r unmoved comes first: the lifts come in the lexicographic order
    of (c_r), r increasing.
    """
    runs = [(r, len(list(copies))) for r, copies in groupby(residues) if r < lifted]
    fixed = residues[sum(m for _, m in runs):]
    for moved in product(*(range(m + 1) for _, m in runs)):
        kept, up = [], []
        for (r, m), c in zip(runs, moved):
            kept += [r] * (m - c)
            up += [r + period] * c
        yield (*kept, *fixed, *up)


class _LiftScan(_Scan):
    """The group-regime scan: residue multisets, each weighed by its index lifts.

    The threshold is the period n, so every predicate of the scan but mode
    1 reads residues only.  The walk is the index-1 walk over 1..n, n
    standing for residue 0, and residue r < lifted (the index k) is also
    the index r + n.  A residue multiset R with multiplicities m_r has
    weight = prod_{r < k} (m_r + 1) index lifts.  The index walk reaches
    sum over R's lifts F of (n + k - max F) children of them, that is
    n + 1 - max R, the children here, plus
    spare = k - 1 + sum_{r* < k in R} m_r* * prod_{r < r*} (m_r + 1) * (k - r*),
    which _children adds to nodes before any child of R is visited.  base
    is weight without the factor of R's last term.  Indexed by length, the
    three hold for the multiset on the stack.
    """

    def __init__(self, period, max_len, free_bad_mode, minimal_bad_mode, node_budget, lifted):
        super().__init__(period, period, period, max_len,
                         free_bad_mode, minimal_bad_mode, node_budget)
        self.lifted = lifted
        # lifts and spare leaves are counted per visited residue multiset
        self.pairs = False
        self.weight = [1] * (max_len + 1)
        self.base = [1] * (max_len + 1)
        self.spare = [lifted - 1] * (max_len + 1)

    def _weigh(self, lasts) -> int:
        """The lifts of self.stack + [w] over the increasing sequence lasts."""
        depth = len(self.stack)
        weight = self.weight[depth]
        # a w < lifted adds base if it repeats the last term, else weight
        lifts = bisect_left(lasts, self.lifted)
        count = weight * (len(lasts) + lifts)
        if lifts and depth and lasts[0] == self.stack[-1]:
            count += self.base[depth] - weight
        return count

    def _children(self, terms, sums, exact, total, smooth, depth):
        if depth:
            stack, lifted = self.stack, self.lifted
            v = stack[-1]
            weight = self.weight[depth - 1]
            base = weight if depth == 1 or v > stack[-2] else self.base[depth - 1]
            self.base[depth] = base
            if v < lifted:
                self.weight[depth] = weight + base
                self.spare[depth] = self.spare[depth - 1] + base * (lifted - v)
            else:
                self.weight[depth] = weight
                self.spare[depth] = self.spare[depth - 1]
        self._count(self.spare[depth])
        return super()._children(terms, sums, exact, total, smooth, depth, self._weigh)

    def _witnesses(self, tally: _Tally) -> list[tuple[int, ...]]:
        # a residue multiset is its own least lift, so the first WITNESS_LIMIT
        # residue multisets hold the first WITNESS_LIMIT lifts
        return list(islice(merge(*(_lifts(r, self.n, self.lifted) for r in tally.best)),
                           WITNESS_LIMIT))


def scan(universe: int, period: int, threshold: int, max_len: int,
         first_lo: int, first_hi: int,
         free_bad_mode: int, minimal_bad_mode: int, node_budget: int) -> dict:
    """Enumerate free multisets (and their one-term extensions) by DFS.

    Reaches exactly the nondecreasing multisets over [1, universe] whose
    proper prefixes are all free, up to length max_len, with the smallest
    element in [first_lo, first_hi], and counts each in nodes.  It visits
    the free ones only.  Every not-free one is a child of a free multiset
    and a settled leaf: decided from its parent's masks, classified there
    if it is a minimal idempotent-sum candidate (minimal_bad_mode set), and
    counted without a visit.  In modes 0 and 1 a free multiset without a
    free child is settled at its parent in the same way, its minimal
    candidates and its children with it.  The free multisets and the minimal
    candidates are counted per length, and the "bad" ones are tallied per
    the modes above.

    In the group regime (threshold == period < universe, so index k =
    universe - period + 1 >= 2), with neither mode 1 and the whole
    first-term range, the walk is over residue multisets instead
    (_LiftScan).  It visits the free residue multisets, counts each with
    its index lifts in closed form, and returns the same dict: the same
    counts, and nodes the same total in another order, so the same budget
    refusals.  The witnesses are the first lifts of the longest bad residue
    multisets.
    """
    if (threshold == period < universe and 1 not in (free_bad_mode, minimal_bad_mode)
            and (first_lo, first_hi) == (1, universe)):
        state = _LiftScan(period, max_len, free_bad_mode, minimal_bad_mode, node_budget,
                          universe - period + 1)
        state.run(1, period)
    else:
        state = _Scan(universe, period, threshold, max_len,
                      free_bad_mode, minimal_bad_mode, node_budget)
        state.run(first_lo, first_hi)
    return state.result()


class _Verify(_Dfs):
    """verify_window without settle: every multiset up to max_len is visited."""

    def __init__(self, universe, period, threshold, tail_regime, len_lo, len_hi, node_budget):
        super().__init__(universe, period, threshold, len_hi, node_budget, False)
        self.tail_regime = tail_regime
        # only the group condition reads the generator rows
        self.rows = () if tail_regime else generator_rows(period, universe)
        self.len_lo = len_lo
        self.total = 0
        self.violations: list[tuple[int, ...]] = []

    def _children(self, terms, sums, exact, total, smooth, depth):
        return terms

    def _node(self, depth, parent_exact, high, total, smooth):
        if depth >= self.len_lo:
            self.total += 1
            if self.tail_regime:
                predicted = smooth and total <= self.threshold - 1
            else:
                predicted = smooth_for_some_generator(self.rows, self.stack, self.n, False)
            if (not high & 1) != predicted:
                self.violations.append(tuple(self.stack))
        return True


def _multisets(choices: int, lo: int, hi: int) -> int:
    """The multisets of [1, choices] with length in [lo, hi], for lo >= 1."""
    # sum of C(choices-1+j, j) over j in [lo, hi], by the hockey-stick identity
    return comb(choices + hi, hi) - comb(choices + lo - 1, lo - 1) if lo <= hi else 0


def verify_window(universe: int, period: int, threshold: int, tail_regime: bool,
                  len_lo: int, len_hi: int, first_lo: int, first_hi: int,
                  node_budget: int, settle: bool = False, shapes=()) -> dict:
    """Check free <=> smooth-structure over all multisets in a length window.

    tail_regime selects the structure condition: True compares against
    "1-smooth with index sum below the threshold" (index exceeds period),
    False against "g-smooth residues for some generator" (index within
    period).

    settle=True runs scan's walk, in mode 1 (tail) or 2 (group): it visits
    the free multisets only and counts every other multiset whose proper
    prefixes are all free as a settled leaf, so nodes is what scan counts
    over the same first-term range.  A multiset that is not free fails the
    condition, which implies freeness: it keeps every subsequence sum below
    the threshold (tail) or off 0 mod the period (group).  So the
    violations are the free multisets the walk tallies as bad, and total
    is every multiset of the window, in closed form.  In the group regime
    over the whole first-term range the walk is over residue multisets
    (_LiftScan): the lifts of a free residue multiset are all free and all
    g-smooth or none, so the violations are every lift of each free one
    that is not g-smooth.  shapes, a sequence of (label, multiset) pairs,
    makes each listed multiset predict free as well (the critical-case
    split): each listed shape in the window is decided by its own profile,
    and it is a violation iff it is not free.  Settle mode adds the keys
    condition_hits (the multisets of the window that meet the condition)
    and shape_hits (per label, the listed shapes in the window).  The
    violations come in lexicographic order.

    Without settle every multiset up to len_hi is visited (_Verify), and
    shapes are ignored.
    """
    if not settle:
        state = _Verify(universe, period, threshold, tail_regime, len_lo, len_hi,
                        node_budget)
        state.run(first_lo, first_hi)
        return {"nodes": state.nodes, "total": state.total, "violations": state.violations}
    lo = max(len_lo, 1)
    # no free multiset is longer than threshold + period - 2, nor than
    # period - 1 when threshold == period, so the walk, nodes included, is
    # the same at any longer cap
    top = min(len_hi, period if threshold == period else threshold + period - 1)
    lifted = universe - period + 1
    lift = (not tail_regime and threshold == period < universe
            and (first_lo, first_hi) == (1, universe))
    if lift:
        state = _LiftScan(period, top, 2, 0, node_budget, lifted)
    else:
        state = _Scan(universe, period, threshold, top, 1 if tail_regime else 2, 0,
                      node_budget)
    state.free_bad = bad = _Every(top, lo)
    state.run(first_lo, period if lift else first_hi)
    # _Every records a node's children before their subtrees; sorted, they
    # are in DFS (lexicographic) order
    violations = ({f for r in bad.every for f in _lifts(r, period, lifted)} if lift
                  else set(bad.every))
    labels: dict[tuple[int, ...], list[str]] = {}
    for label, shape in shapes:
        labels.setdefault(tuple(shape), []).append(label)
    shape_hits = dict.fromkeys((label for label, _ in shapes), 0)
    for shape, names in labels.items():
        # the multisets of the window: nondecreasing over [1, universe]
        if (lo <= len(shape) <= len_hi and first_lo <= shape[0] <= first_hi
                and shape[-1] <= universe and shape == tuple(sorted(shape))):
            for label in names:
                shape_hits[label] += 1
            # a shape predicts free: a free one is no violation, a non-free one is
            if profile(shape, threshold, period)[1] & 1:
                violations.add(shape)
            else:
                violations.discard(shape)
    return {
        "nodes": state.nodes,
        "total": (_multisets(universe - first_lo + 1, lo, len_hi)
                  - _multisets(universe - first_hi, lo, len_hi)),
        "violations": sorted(violations),
        "condition_hits": sum(state.free_count[lo:]) - sum(bad.by_len[lo:]),
        "shape_hits": shape_hits,
    }
