"""Enumeration kernels, and the one home of each sequence predicate.

Self-contained integer routines shared by the higher-level modules.
Subset sums are tracked as bitmasks: bit s of the exact mask marks an
achievable nonempty subsequence index-sum s below the cap, bit r of the
high mask marks an achievable sum >= cap with residue r mod the period
(profile, which classify reads).

This module is the one home of each sequence predicate that classify and
the DFS share: the subset-sum step (profile_step), the generator table
(generator_rows), the 1-smooth ladder test (is_one_smooth_sorted, and
_ladder for every one-term extension at once) and the minimality rule
(is_minimal_extension); idemfree.classify checks outside input and calls
them.

The walks (_Dfs) carry one free-term mask z per multiset P instead of
the high mask: bit m of z says whether P + m is free, for every term m
at once, with the terms past the threshold folded onto one bit per
residue.  A subsequence of P + v + m that reaches the idempotent
either misses v or holds both v and m, so the mask of a child P + v is
one AND of P's mask with itself shifted by v.  P's free children are
the bits of z from P's last term on.

scan() walks a depth-first enumeration of nondecreasing multisets that
visits only free multisets: each non-free child of a free multiset is a
clear bit of its parent's mask, a minimal idempotent-sum candidate
classified there in closed form (minimal_candidates), and counted without
a visit.  In modes 0 and 1 a free child whose own mask has no free child
is not visited either (_Scan); its minimal candidates are classified and
its children counted at its parent.  There, too, every subtree with no
minimal work below it is counted from a memo instead of walked
(_Scan._absorb).  verify_window in settle mode is that
walk in mode 1 (tail regime) or 2 (group regime), tallying every free bad
multiset of its window: a non-free multiset fails the structure
condition, so the violations are the free ones that fail it, and the rest
of the window is closed form.  Without settle, verify_window visits every
multiset (_Verify).

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
        # comparisons, not min and max: the scan calls this for every free multiset
        cut = (blockers & -blockers).bit_length() - 1 + lo
        if cut < stop:
            stop = cut
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


def _bits(mask: int, limit: int = -1) -> list[int]:
    """The set bits of mask, least first: all of them, or only the first limit."""
    bits = []
    while mask and limit:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
        limit -= 1
    return bits


class _Dfs:
    """Depth-first walk over nondecreasing multisets of [1, universe], one mask per node.

    A node P carries its free-term mask z: bit m < threshold is set iff
    P + m is free; bit threshold + r iff P + m is free for the terms m >=
    threshold with m = r mod period, since such an m plus any subset sum is
    past the threshold; bit 0 iff P is free.  A subsequence of P + v + m
    that reaches the idempotent misses v, or holds both v and m, so bit m
    of z(P + v) is bit m of z(P) and bit m + v of z(P), read through that
    fold.  With zext, z with its residue block repeated past the universe,
    z(P + v) = z & (zext >> v): one AND per child.  The empty multiset's
    z has every bit set but bit threshold.  Since universe < threshold +
    period, P's free children are the bits of z from P's last term to the
    universe.  The exact mask, index total and 1-smoothness are carried
    too, for the minimal candidates and mode 1.

    The walk starts at the empty multiset and descends from each node P,
    held in self.stack, in one _descend call.  That call asks the policy's
    _children(terms, z, exact, total, smooth, depth) for the mask of the
    children P + w, w in terms, to visit.  terms is range(last term of P,
    universe + 1), or the first-term range at the root; z, exact, total,
    smooth and depth are P's.  Every other child is a settled leaf, which
    the policy decides from z; the walk counts it without a visit, adding
    each run of settled leaves to nodes just before the next visit and the
    run after the last visit at the end, with the budget check each time.
    Children of length max_len are all counted at once, after _children
    has classified them.  nodes thus counts visited multisets and settled
    leaves in DFS order.  A policy counts any other multisets it reaches
    with _count (the lift leaves of _LiftScan).

    With a memo (_Scan without rows), a child v whose own mask has no
    bit in [v, universe], so no free child, is settled: the walk counts
    its u - v + 1 children at that point and does not descend.  Unless v
    is dead, _Scan._minimal classifies v's minimal candidates there.  A
    dead child with a free child goes to _Scan._absorb instead of _descend.

    The walk never goes past max_len terms and refuses with BudgetError
    once nodes exceeds node_budget, or once its recursion, one _descend
    or _sub call per term of each multiset it descends from, hits Python's
    recursion limit.
    """

    # _Scan's memo of dead subtrees, and what the dead test reads
    memo, free_only, multiples = None, False, 0

    def __init__(self, universe: int, period: int, threshold: int, max_len: int,
                 node_budget: int):
        self.u = universe
        self.n = period
        self.threshold = threshold
        self.max_len = max_len
        self.budget = node_budget
        self.below = (1 << threshold) - 2
        self.low = (1 << threshold) - 1
        self.upto = (1 << universe + 1) - 1
        # residue block copies up to bit threshold + universe + period, past every m + v read
        self.rep = _spaced_bits(0, universe + period + 1, period)
        self.nodes = 0
        self.stack: list[int] = []

    def run(self, first_lo: int, first_hi: int) -> None:
        try:
            if self.max_len >= 1:
                t = self.threshold
                self._descend(range(first_lo, first_hi + 1),
                              ((1 << t + self.n) - 1) ^ (1 << t), 0, 0, True)
        except RecursionError:
            raise BudgetError(f"enumeration aborted: a walk to length {self.max_len} "
                              "exceeds Python's recursion limit") from None

    def _descend(self, terms: range, z: int, exact: int, total: int, smooth: bool) -> None:
        stack = self.stack
        depth = len(stack) + 1
        kids = self._children(terms, z, exact, total, smooth, depth - 1)
        if depth == self.max_len:
            self._count(len(terms))
            return
        budget = self.budget
        cap = self.threshold
        below = self.below
        upto = self.upto
        top = self.u + 1
        nxt = terms.start
        zext = (z & self.low) | ((z >> cap) * self.rep) << cap
        memo, free_only, multiples = self.memo, self.free_only, self.multiples
        while kids:
            low = kids & -kids
            kids ^= low
            v = low.bit_length() - 1
            # the settled leaves before v, then v
            self.nodes += v - nxt + 1
            if self.nodes > budget:
                raise over_budget(budget)
            nxt = v + 1
            child_z = z & (zext >> v)
            child_exact = (exact | exact << v | low) & below
            child_total = total + v
            child_smooth = smooth and v <= 1 + total
            stack.append(v)
            # v is dead when its least blocker is at most v + child_total - cap
            dead = memo is not None and (free_only or (s := v + child_total - cap) >= 0
                                         and child_exact & multiples & (2 << s) - 1)
            if memo is not None and not (child_z & upto) >> v:
                if not dead:
                    self._minimal(range(v, top), child_exact, child_total, child_smooth, depth)
                # v's children, all settled leaves
                self.nodes += top - v
                if self.nodes > budget:
                    raise over_budget(budget)
            elif dead:
                self._absorb(child_z, child_total, child_smooth, depth)
            else:
                self._descend(range(v, top), child_z, child_exact, child_total, child_smooth)
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

    def _children(self, terms: range, z: int, exact: int, total: int, smooth: bool,
                  depth: int) -> int:
        raise NotImplementedError


class _Tally:
    """Per-length counts of one kind of bad multiset, and the longest ones."""

    def __init__(self, max_len: int):
        self.by_len = [0] * (max_len + 1)
        self.best_len = 0
        self.best: list[tuple[int, ...]] = []

    def record(self, prefix: list[int], lasts: int, count: int) -> None:
        """Tally prefix + [w] for each bit w of the nonzero mask lasts, count in all."""
        depth = len(prefix) + 1
        self.by_len[depth] += count
        if depth > self.best_len:
            self.best_len = depth
            self.best = []
        room = WITNESS_LIMIT - len(self.best)
        if depth == self.best_len and room > 0:
            head = tuple(prefix)
            # only as many bits as there is room for: a mask may be the universe wide
            self.best.extend(head + (w,) for w in _bits(lasts, room))

    def open(self, deepest: int) -> int:
        """The least length to list from a subtree whose longest bad ones have that length, or 0."""
        if deepest > self.best_len:
            self.best_len, self.best = deepest, []
        return deepest if deepest == self.best_len and len(self.best) < WITNESS_LIMIT else 0


class _Every(_Tally):
    """Per-length counts of one kind of bad multiset, and every one from length lo on."""

    def __init__(self, max_len: int, lo: int):
        super().__init__(max_len)
        self.lo = lo
        self.every: list[tuple[int, ...]] = []

    def record(self, prefix: list[int], lasts: int, count: int) -> None:
        depth = len(prefix) + 1
        self.by_len[depth] += count
        if depth >= self.lo:
            head = tuple(prefix)
            self.every.extend(head + (w,) for w in _bits(lasts))

    def open(self, deepest: int) -> int:
        return self.lo if deepest >= self.lo else 0


class _Scan(_Dfs):
    """Visits only free multisets: _children classifies every child of a node.

    Each free child and each minimal idempotent-sum candidate among the
    children of a node P has length len(P) + 1, and every multiset under a
    free child of P is longer, so classifying them before the descent
    keeps each length's witnesses in DFS (lexicographic) order.  Children
    are masks: the free ones are the bits of z in terms, the minimal
    candidates one progression of step period (minimal_candidates).

    The walks with generator rows (modes 2 and 3) and _LiftScan, where row
    and lift work dominate, keep memo None and visit every free child.
    Without rows, a childless free child is settled at its parent (_Dfs),
    and a free child P is dead when no multiset under it has a minimal
    candidate: always in minimal mode 0, else when P's least blocker b,
    the least multiple of the period in its exact mask, is at most
    last + total - threshold.  Proof: minimal_candidates stops below
    b + threshold - total <= last, and under P b can only fall while last
    and total only rise.  A dead subtree reads only its key (_key), so
    _sub counts it once per key, and the memo holds at most one state per
    visited multiset.  _absorb adds the subtree's packed count vectors to
    packed_free and packed_bad, which run unpacks, and lists its witnesses
    by a guided descent (_expand).

    For modes 2 and 3, live[d] holds (total, row, reach, need) for each
    generator row whose total over the first d terms on the stack is below
    the period: a row at or past it can neither stay below it nor come to
    equal it.  In mode 2, reach and need summarize the row's ladder D,
    those terms' multipliers (_ladder): D + [x] is 1-smooth iff
    need <= x <= reach + 1.
    """

    def __init__(self, universe, period, threshold, max_len,
                 free_bad_mode, minimal_bad_mode, node_budget):
        super().__init__(universe, period, threshold, max_len, node_budget)
        self.free_bad_mode = free_bad_mode
        self.minimal_bad_mode = minimal_bad_mode
        self.free_count = [0] * (max_len + 1)
        self.minimal_count = [0] * (max_len + 1)
        self.free_bad = _Tally(max_len)
        self.minimal_bad = _Tally(max_len)
        self.multiples = period_multiples(threshold, period)
        # the minimal candidates, one progression of step period, are a window of this mask
        self.steps = _spaced_bits(0, universe + 1, period)
        self.live = None
        # phi(period) rows of universe + 1 entries, which only modes 2 and 3 read
        self.rows = ()
        if {free_bad_mode, minimal_bad_mode} & {2, 3}:
            self.rows = generator_rows(period, universe)
            self.live = [[]] * (max_len + 1)
            self.live[0] = [(0, row, 0, 0) for _, row in self.rows]
        self.ladders = 2 in (free_bad_mode, minimal_bad_mode)
        self.memo = {} if self.live is None else None
        self.free_only = not minimal_bad_mode
        self.width = node_budget.bit_length() + 1
        self.packed_free = self.packed_bad = 0
        self.cut = max_len < threshold + period - 1

    def run(self, first_lo: int, first_hi: int) -> None:
        super().run(first_lo, first_hi)
        for packed, counts in ((self.packed_free, self.free_count),
                               (self.packed_bad, self.free_bad.by_len)):
            for depth in range(len(counts)):
                counts[depth] += packed >> self.width * depth & (1 << self.width) - 1

    def _bad(self, lasts: int, total: int, smooth: bool, depth: int, mode: int,
             zero_sum: bool) -> int:
        """The mask of the w in the mask lasts with self.stack + [w] bad per mode.

        Bad among the minimal candidates if zero_sum, else among the free children.
        """
        if mode == 1:
            # P + w is 1-smooth iff P is and w <= 1 + total
            return lasts >> total + 2 << total + 2 if smooth else lasts
        n = self.n
        live = self.live[depth]
        bad = 0
        if mode == 3:
            if self.rows:
                for w in _bits(lasts):
                    if not any(t + row[w] == n for t, row, _, _ in live):
                        bad |= 1 << w
            return bad
        for w in _bits(lasts):
            for t, row, reach, need in live:
                x = row[w]
                if (t + x == n if zero_sum else t + x < n) and need <= x <= reach + 1:
                    break
            else:
                bad |= 1 << w
        return bad

    def _children(self, terms, z, exact, total, smooth, depth, weigh=int.bit_count):
        """Count and classify P's children, weighing each mask of them with weigh."""
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
            self._minimal(terms, exact, total, smooth, depth, weigh)
        free = z & ((1 << terms.stop) - 1) >> terms.start << terms.start
        if free:
            self.free_count[depth + 1] += weigh(free)
            if self.free_bad_mode:
                bad = self._bad(free, total, smooth, depth, self.free_bad_mode, False)
                if bad:
                    self.free_bad.record(self.stack, bad, weigh(bad))
        return free

    def _minimal(self, terms: range, exact, total, smooth, depth, weigh=int.bit_count) -> None:
        """Count and classify the minimal idempotent-sum children P + w, w in terms, of P."""
        found = minimal_candidates(terms, exact, total, self.threshold, self.n, self.multiples)
        if found:
            candidates = self.steps << found.start & (1 << found.stop) - 1
            self.minimal_count[depth + 1] += weigh(candidates)
            bad = self._bad(candidates, total, smooth, depth, self.minimal_bad_mode, True)
            if bad:
                self.minimal_bad.record(self.stack, bad, weigh(bad))

    def _absorb(self, z: int, total: int, smooth: bool, depth: int) -> None:
        """Count the subtree of the dead multiset on the stack, and list its witnesses."""
        free, bad, _ = self._sub(self.stack[-1], z, total, smooth, depth)
        shift = self.width * (depth + 1)
        self.packed_free += free << shift
        self.packed_bad += bad << shift
        floor = bad and self.free_bad.open(depth + 1 + (bad.bit_length() - 1) // self.width)
        if floor:
            self._expand(z, total, smooth, depth, floor)

    def _key(self, last: int, z: int, total: int, smooth: bool, depth: int) -> tuple:
        """The memo key of a dead multiset: all that its subtree reads.

        Its free children and their masks read z from bit min(last,
        threshold) on, mode 1 reads total only if it is 1-smooth, and
        max_len cuts a free multiset only below threshold + period - 1.
        """
        return (last, z >> min(last, self.threshold), total if smooth else -1,
                self.max_len - depth if self.cut else 0)

    def _sub(self, last: int, z: int, total: int, smooth: bool, depth: int) -> tuple:
        """(free, bad, nodes) of the subtree under a dead multiset of length depth.

        free and bad are packed: field i, width bits, counts the descendants
        of length depth + 1 + i, and no count in a finished subtree exceeds
        the budget.  A miss walks the subtree as _descend does, adding to
        nodes in DFS order; a hit adds the stored nodes at once.
        """
        key = self._key(last, z, total, smooth, depth)
        got = self.memo.get(key)
        if got is not None:
            self._count(got[2])
            return got
        start, top, cap, w = self.nodes, self.u + 1, self.threshold, self.width
        kids = z & self.upto >> last << last
        bad = kids >> total + 2 << total + 2 if smooth else kids
        free, bad = kids.bit_count(), self.free_bad_mode and bad.bit_count()
        zext = (z & self.low) | ((z >> cap) * self.rep) << cap
        # children of length max_len are counted, not visited
        kids, nxt = kids if depth + 1 < self.max_len else 0, last
        while kids:
            low = kids & -kids
            kids ^= low
            v = low.bit_length() - 1
            # the settled leaves before v, then v and its subtree
            self._count(v - nxt + 1)
            nxt = v + 1
            child_z = z & (zext >> v)
            if (child_z & self.upto) >> v:
                sub_free, sub_bad, _ = self._sub(v, child_z, total + v, smooth and v <= 1 + total,
                                                 depth + 1)
                free += sub_free << w
                bad += sub_bad << w
            else:
                self._count(top - v)
        self._count(top - nxt)
        got = self.memo[key] = (free, bad, self.nodes - start)
        return got

    def _expand(self, z: int, total: int, smooth: bool, depth: int, floor: int) -> None:
        """Record the bad multisets of length >= floor under the dead multiset on the stack.

        In lexicographic order, entering only the children whose stored bad
        vector has a nonzero field at length floor or more, up to WITNESS_LIMIT.
        """
        stack, tally, cap = self.stack, self.free_bad, self.threshold
        kids = z & self.upto >> stack[-1] << stack[-1]
        if bad := kids >> total + 2 << total + 2 if smooth else kids:
            tally.record(stack, bad, 0)
        skip = self.width * max(0, floor - depth - 2)
        zext = (z & self.low) | ((z >> cap) * self.rep) << cap
        while kids and depth + 1 < self.max_len and len(tally.best) < WITNESS_LIMIT:
            low = kids & -kids
            kids ^= low
            v = low.bit_length() - 1
            child_z, child_smooth = z & (zext >> v), smooth and v <= 1 + total
            if ((child_z & self.upto) >> v
                    and self.memo[self._key(v, child_z, total + v, child_smooth, depth + 1)][1]
                    >> skip):
                stack.append(v)
                self._expand(child_z, total + v, child_smooth, depth + 1, floor)
                stack.pop()

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
        self.liftable = (1 << lifted) - 1
        self.memo = None
        self.weight = [1] * (max_len + 1)
        self.base = [1] * (max_len + 1)
        self.spare = [lifted - 1] * (max_len + 1)

    def _weigh(self, lasts: int) -> int:
        """The lifts of self.stack + [w] over the bits w of the mask lasts."""
        depth = len(self.stack)
        weight = self.weight[depth]
        # a w < lifted adds base if it repeats the last term, else weight
        lifts = (lasts & self.liftable).bit_count()
        count = weight * (lasts.bit_count() + lifts)
        if lifts and depth and lasts >> self.stack[-1] & 1:
            count += self.base[depth] - weight
        return count

    def _children(self, terms, z, exact, total, smooth, depth):
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
        return super()._children(terms, z, exact, total, smooth, depth, self._weigh)

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
    element in [first_lo, first_hi], and counts each in nodes, in DFS
    order.  It visits free multisets only, and in modes 0 and 1 not all of
    them: a childless one is settled at its parent, a dead subtree counted
    from the memo (module docstring).  The free multisets and the minimal
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
    """verify_window without settle: every multiset up to max_len is visited.

    Each node checks its children against the structure condition: P + w
    is free iff P is (bit 0 of P's mask) and bit w of the mask is set.
    The violations are thus found parent first, and sorted they come in
    DFS (lexicographic) order.
    """

    def __init__(self, universe, period, threshold, tail_regime, len_lo, len_hi, node_budget):
        super().__init__(universe, period, threshold, len_hi, node_budget)
        self.tail_regime = tail_regime
        # only the group condition reads the generator rows
        self.rows = () if tail_regime else generator_rows(period, universe)
        self.len_lo = len_lo
        self.total = 0
        self.violations: list[tuple[int, ...]] = []

    def _children(self, terms, z, exact, total, smooth, depth):
        if depth + 1 >= self.len_lo:
            self.total += len(terms)
            stack = self.stack
            free = z if z & 1 else 0
            for w in terms:
                if self.tail_regime:
                    predicted = smooth and w <= 1 + total and total + w < self.threshold
                else:
                    predicted = smooth_for_some_generator(self.rows, (*stack, w), self.n, False)
                if free >> w & 1 != predicted:
                    self.violations.append((*stack, w))
        return ((1 << terms.stop) - 1) >> terms.start << terms.start


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
        return {"nodes": state.nodes, "total": state.total,
                "violations": sorted(state.violations)}
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
