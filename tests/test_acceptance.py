"""End-to-end acceptance gate: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement
from math import comb, gcd

from idemfree import _kernels
from idemfree.classify import (
    SMOOTH,
    ZERO_SUM_SMOOTH,
    generators,
    is_idempotent_sum,
    is_idempotent_sum_free,
    is_minimal_idempotent_sum,
    is_one_smooth,
    minimal_zero_sum,
    sequence_index,
    smooth_kind,
)
from idemfree.cli import main
from idemfree.search import (
    CASE_ALL_TWOS,
    CASE_ALL_TWOS_PERIOD1,
    CASE_ODD_HEAD_TWOS,
    CASE_ONES_PLUS_HALF,
    critical_length,
    expected_thresholds,
    explore_bounds,
    free_smooth_threshold,
    index_threshold,
    matched_cases,
    minimal_smooth_threshold,
    structure_bound,
    verify_critical_cases,
    verify_structure,
)
from idemfree.semigroup import SemigroupParams
from idemfree.sequences import Sequence, semigroup_sum

import oracles

P = SemigroupParams


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({name}): PASS", flush=True)


def small_pairs(total, tail_only=False):
    for k in range(1, total):
        for n in range(1, total + 1 - k):
            if tail_only and k <= n:
                continue
            yield k, n


def test_criterion_1_structure_window():
    with criterion(1, "freeness equals smooth structure in the bound window"):
        for k, n in small_pairs(9):
            params = P(k, n)
            report = verify_structure(params)
            assert report.min_length == structure_bound(params), (k, n)
            assert report.max_length == report.min_length + 3, (k, n)
            assert report.total_sequences > 0, (k, n)
            assert report.counterexamples == (), (k, n, report.counterexamples)


def test_structure_window_and_case_split_to_sixteen():
    # the range of criteria 1 and 2 widened to k+n <= 16, which the settled
    # subtrees and leaves make cheap
    for k, n in small_pairs(16):
        params = P(k, n)
        assert verify_structure(params).counterexamples == (), (k, n)
        if k > n:
            assert verify_critical_cases(params).counterexamples == (), (k, n)


def test_group_regime_structure_beyond_sixteen():
    """Freeness equals g-smoothness in the default window for periods 10..16.

    For k <= n this is Savchev and Chen's structure theorem for zero-sum
    free sequences over Z/n of length above n/2 (Long zero-free sequences
    in finite cyclic groups, Discrete Math. 307 (2007)), checked over every
    index k <= n, which the residue walk with closed-form lift counts makes
    cheap.
    """
    with criterion("1b", "group-regime structure window for periods 10..16"):
        for n in range(10, 17):
            for k in range(1, n + 1):
                report = verify_structure(P(k, n))
                assert report.counterexamples == (), (k, n)
                u, lo, hi = k + n - 1, report.min_length, report.max_length
                assert (report.total_sequences
                        == sum(comb(u - 1 + length, length) for length in range(lo, hi + 1)))


def case_shapes(k, n):
    """The four non-generic free shapes valid for these parameters."""
    t = -(-k // n) * n
    q = t // n
    shapes = []
    if n >= 3 and t % 2 == 1:
        shapes.append(((2,) * ((q + 1) * n // 2 - 1), CASE_ALL_TWOS))
    if n == 2:
        for z in range(3, k + 2, 2):
            shapes.append(((2,) * (q - 1) + (z,), CASE_ODD_HEAD_TWOS))
    if n == 1 and k % 2 == 1:
        shapes.append(((1,) * ((k - 3) // 2) + ((k + 1) // 2,), CASE_ONES_PLUS_HALF))
        shapes.append(((2,) * ((k - 1) // 2), CASE_ALL_TWOS_PERIOD1))
    return shapes


def test_criterion_2_case_split():
    with criterion(2, "long free sequences split into the five case shapes"):
        for k, n in small_pairs(9, tail_only=True):
            params = P(k, n)
            report = verify_critical_cases(params)
            assert report.counterexamples == (), (k, n, report.counterexamples)

            shapes = case_shapes(k, n)
            expected = {CASE_ALL_TWOS: 0, CASE_ODD_HEAD_TWOS: 0,
                        CASE_ONES_PLUS_HALF: 0, CASE_ALL_TWOS_PERIOD1: 0}
            for _, label in shapes:
                expected[label] += 1
            for label, count in expected.items():
                assert report.case_tallies[label] == count, (k, n, label)

            # each special shape sits exactly at the degenerate length,
            # pattern-matches its case, and is genuinely free
            t = params.threshold
            for idx, label in shapes:
                assert len(idx) == (t + n) // 2 - 1 == critical_length(params)
                assert label in matched_cases(params, idx)
                assert is_idempotent_sum_free(Sequence(params, idx))

            # freeness is impossible past the hard cap, so the scanned
            # window really contains every long free sequence
            top = t + n - 1
            for idx in combinations_with_replacement(range(1, params.size + 1), top):
                assert not is_idempotent_sum_free(Sequence(params, idx)), (k, n, idx)


def group_regime_table(n):
    if n == 1:
        return 0, 1
    if n in (2, 3, 4):
        return n // 2, n // 2 + 1
    if n == 5:
        return 1, 3
    if n == 7:
        return 3, 4
    return n // 2 + 1, n // 2 + 2


def test_criterion_3_group_regime_thresholds():
    with criterion(3, "group-regime threshold table for periods 1..9"):
        for n in range(1, 10):
            for k in range(1, n + 1):
                free = free_smooth_threshold(P(k, n))
                minimal = minimal_smooth_threshold(P(k, n))
                assert not free.frontier_hit and not minimal.frontier_hit, (k, n)
                assert (free.value, minimal.value) == group_regime_table(n), (k, n)


def test_group_regime_thresholds_beyond_the_table():
    """The paper's k <= n thresholds for periods 10..16, every index k <= n.

    For k <= n a subsequence sum is idempotent iff it is a positive
    multiple of n, so the free-smooth statement is Savchev and Chen's
    structure theorem for zero-sum free sequences over Z/n of length
    above n/2 (Long zero-free sequences in finite cyclic groups, Discrete
    Math. 307 (2007)), which the paper generalizes.  Both thresholds must
    equal expected_thresholds exactly, with no frontier hit.
    """
    with criterion("3b", "group-regime thresholds for periods 10..16"):
        for n in range(10, 17):
            for k in range(1, n + 1):
                want = expected_thresholds(k, n)
                free = free_smooth_threshold(P(k, n))
                minimal = minimal_smooth_threshold(P(k, n))
                assert not free.frontier_hit and not minimal.frontier_hit, (k, n)
                assert free.value == want["free_smooth_lo"] == want["free_smooth_hi"], (k, n)
                assert (minimal.value == want["minimal_smooth_lo"]
                        == want["minimal_smooth_hi"]), (k, n)


def test_criterion_4_index_threshold_values():
    with criterion(4, "index threshold over residue groups of order 1..10"):
        for n in range(1, 11):
            want = 1 if n in (1, 2, 3, 4, 5, 7) else n // 2 + 2
            result = index_threshold(n)
            assert not result.frontier_hit, n
            assert result.value == want, (n, result.value, want)


def test_index_threshold_literature_values():
    """Published index theorems over Z/n, for n = 6 and 8..24.

    Every minimal zero-sum sequence over Z/n of length at least
    n//2 + 2 has index 1 (Savchev and Chen, Discrete Math. 2007; Yuan,
    J. Combin. Theory Ser. A 2007), and for these n the scan finds one of
    length n//2 + 1 that does not, so the index threshold is n//2 + 2.
    Li, Plyley, Yuan and Zeng (Minimal zero-sum sequences of length four
    over finite cyclic groups, J. Number Theory 130 (2010)) proved that
    every minimal zero-sum sequence of length 4 over Z/n with
    gcd(n, 6) = 1 has index 1: no bad multiset of length 4.
    """
    with criterion("4b", "index threshold n//2 + 2 for n = 6 and 8..24"):
        for n in [6, *range(8, 25)]:
            result = index_threshold(n)
            assert not result.frontier_hit, n
            assert result.value == n // 2 + 2, (n, result.value)
            if gcd(n, 6) == 1:
                assert result.bad_by_length[4] == 0, n


def test_criterion_5_tail_regime_formulas():
    with criterion(5, "tail-regime threshold formulas"):
        for k in range(2, 12):
            free = free_smooth_threshold(P(k, 1))
            minimal = minimal_smooth_threshold(P(k, 1))
            assert not free.frontier_hit and not minimal.frontier_hit, k
            assert free.value == (k + 1) // 2, k
            assert minimal.value == (k + 1) // 2 + 1, k

        for k in range(3, 10):
            free = free_smooth_threshold(P(k, 2))
            minimal = minimal_smooth_threshold(P(k, 2))
            assert not free.frontier_hit and not minimal.frontier_hit, k
            q = (k + 1) // 2
            assert free.value == q + 1, k
            assert minimal.value == q + 1, k

        candidates = [(4, 3), (5, 3), (7, 3), (6, 5), (7, 5)]
        odd = [(k, n) for k, n in candidates if (-(-k // n) * n) % 2 == 1]
        assert odd == [(7, 3)]
        for k, n in odd:
            t = -(-k // n) * n
            free = free_smooth_threshold(P(k, n))
            minimal = minimal_smooth_threshold(P(k, n))
            assert not free.frontier_hit and not minimal.frontier_hit, (k, n)
            assert free.value == (t + n) // 2, (k, n)
            assert minimal.value == free.value + 1, (k, n)


def test_criterion_6_even_regime_exploration():
    with criterion(6, "even-regime values stay inside the proven bounds"):
        rows = explore_bounds([(4, 3), (5, 4), (7, 5), (8, 3)])
        by_pair = {(r["k"], r["n"]): r for r in rows}
        assert len(by_pair) == 4
        for pair, row in by_pair.items():
            assert row["within_bounds"], pair
            assert not row["free_frontier_hit"], pair
            assert not row["minimal_frontier_hit"], pair
            if row["free_smooth_lo"] == row["free_smooth_hi"]:
                assert row["free_smooth"] == row["free_smooth_lo"], pair
            if row["minimal_smooth_lo"] == row["minimal_smooth_hi"]:
                assert row["minimal_smooth"] == row["minimal_smooth_lo"], pair
        assert by_pair[(4, 3)]["free_smooth"] == 4
        assert by_pair[(5, 4)]["free_smooth"] == 5
        assert (by_pair[(7, 5)]["free_smooth"],
                by_pair[(7, 5)]["minimal_smooth"]) == (6, 6)
        assert (by_pair[(8, 3)]["free_smooth"],
                by_pair[(8, 3)]["minimal_smooth"]) == (6, 7)


# --- criterion 7 sub-checks -------------------------------------------------

def check_profile_dp_against_brute_force():
    # exhaustive to length 12 at the kernel level, all caps up to k+2n.  Along each
    # length's walk, a multiset's oracle sums and its masks at every cap extend
    # those of its longest prefix shared with the multiset before it, one set
    # union and one profile_step per cap for each term past that prefix
    for k, n in small_pairs(8):
        u = k + n - 1
        caps = list(range(1, k + 2 * n + 1))
        for length in range(1, 13):
            # prefixes[j]: {0} with the subset sums of idx[:j], and its masks per cap
            prefixes = [({0}, [(0, 0)] * len(caps))]
            last = ()
            for idx in combinations_with_replacement(range(1, u + 1), length):
                j = 0
                while last and idx[j] == last[j]:
                    j += 1
                del prefixes[j + 1:]
                for v in idx[j:]:
                    sums, masks = prefixes[-1]
                    prefixes.append((sums | {s + v for s in sums},
                                     [_kernels.profile_step(exact, high, v, cap, n)
                                      for (exact, high), cap in zip(masks, caps)]))
                last = idx
                sums = sorted(prefixes[-1][0])[1:]
                full = 0
                for s in sums:
                    full |= 1 << s
                # the residues of the sums >= cap, for each cap from the top down
                wants, want, rest = {}, 0, sums[:]
                for cap in reversed(caps):
                    while rest and rest[-1] >= cap:
                        want |= 1 << (rest.pop() % n)
                    wants[cap] = want
                for cap, (exact, high) in zip(caps, prefixes[-1][1]):
                    assert exact == full & ((1 << cap) - 1), (k, n, idx, cap)
                    assert high == wants[cap], (k, n, idx, cap)


def check_whole_sum_criterion():
    for k, n in small_pairs(8):
        params = P(k, n)
        for idx in oracles.all_multisets(params.size, 8):
            seq = Sequence(params, idx)
            element = semigroup_sum(seq)
            assert element.index % n == sum(idx) % n, (k, n, idx)
            assert is_idempotent_sum(seq) == (element == params.idempotent()), (k, n, idx)
            assert (is_idempotent_sum_free(seq)
                    == oracles.idempotent_sum_free_oracle(k, n, idx)), (k, n, idx)
            if len(idx) <= 5:
                assert (is_minimal_idempotent_sum(seq)
                        == oracles.minimal_idempotent_sum_oracle(k, n, idx)), (k, n, idx)


def check_non_smooth_total_inequality():
    for idx in oracles.all_multisets(16, 7):
        length = len(idx)
        total = sum(idx)
        if not is_one_smooth(idx):
            assert total >= 2 * length, idx
            if total == 2 * length:
                assert idx in ((1,) * (length - 1) + (length + 1,), (2,) * length)
    for length in range(1, 8):
        spread = (1,) * (length - 1) + (length + 1,)
        assert not is_one_smooth(spread) and sum(spread) == 2 * length
        assert not is_one_smooth((2,) * length)


def check_group_reduction():
    for n in range(1, 8):
        for k in range(1, n + 1):
            params = P(k, n)
            for idx in oracles.all_multisets(params.size, 7):
                seq = Sequence(params, idx)
                res = [v % n for v in idx]
                assert (is_idempotent_sum_free(seq)
                        == oracles.zero_sum_free_oracle(n, res)), (k, n, idx)
                if len(idx) <= 5:
                    assert (is_minimal_idempotent_sum(seq)
                            == oracles.minimal_zero_sum_oracle(n, res)), (k, n, idx)


def minimal_zero_sum_multisets(n):
    for length in range(1, n + 1):
        for idx in combinations_with_replacement(range(n), length):
            if minimal_zero_sum(n, idx):
                yield idx


def check_index_one_vs_zero_sum_smooth():
    for n in range(2, 9):
        for idx in minimal_zero_sum_multisets(n):
            zs_smooth = any(smooth_kind(n, idx, g) == ZERO_SUM_SMOOTH
                            for g in generators(n))
            index_one = sequence_index(n, idx) == 1
            if zs_smooth:
                assert index_one, (n, idx)
            if 2 * len(idx) > n and index_one:
                assert zs_smooth, (n, idx)


def check_minimal_threshold_dominates_index_threshold():
    index_values = {n: index_threshold(n).value for n in range(1, 9)}
    for n in range(1, 9):
        for k in range(1, n + 1):
            value = minimal_smooth_threshold(P(k, n)).value
            assert value >= index_values[n], (k, n)
            if n in (6, 8):
                assert value == index_values[n], (k, n)


def check_prepend_minimal_term():
    rng = random.Random(20260815)
    for _ in range(4000):
        length = rng.randint(2, 10)
        values = sorted(rng.randint(1, 20) for _ in range(length))
        if is_one_smooth(values[1:]):
            assert is_one_smooth(values), values
    for _ in range(2000):
        smooth = [1]
        for _ in range(rng.randint(0, 8)):
            smooth.append(rng.randint(1, sum(smooth) + 1))
        assert is_one_smooth(smooth + [1]), smooth


def check_extremal_zero_sum_shapes():
    for n in range(2, 9):
        for idx in combinations_with_replacement(range(n), n - 1):
            if oracles.zero_sum_free_oracle(n, idx):
                assert len(set(idx)) == 1 and gcd(idx[0], n) == 1, (n, idx)
        for idx in combinations_with_replacement(range(n), n):
            if oracles.minimal_zero_sum_oracle(n, idx):
                assert len(set(idx)) == 1 and gcd(idx[0], n) == 1, (n, idx)


def longest_zero_sum_subsequence(n, values):
    best = 0
    sums = [0] * (1 << len(values))
    for mask in range(1, 1 << len(values)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
        if sums[mask] % n == 0:
            best = max(best, mask.bit_count())
    return best


def check_residual_decomposition_shape():
    for n in range(2, 7):
        for length in range(n - 1, n + 4):
            for idx in combinations_with_replacement(range(1, n), length):
                longest = longest_zero_sum_subsequence(n, idx)
                if length - longest == n - 1:
                    assert len(set(idx)) == 1 and gcd(idx[0], n) == 1, (n, idx)


def check_long_zero_sum_free_are_smooth():
    for n in range(3, 9):
        for length in range(n // 2 + 1, n):
            for idx in combinations_with_replacement(range(1, n), length):
                if oracles.zero_sum_free_oracle(n, idx):
                    assert any(smooth_kind(n, idx, g) == SMOOTH
                               for g in generators(n)), (n, idx)


def check_index_scaling_invariance():
    for n in range(2, 9):
        for length in range(1, 6):
            for idx in combinations_with_replacement(range(n), length):
                base = sequence_index(n, idx)
                for unit in generators(n):
                    scaled = tuple(sorted(unit * r % n for r in idx))
                    assert sequence_index(n, scaled) == base, (n, idx, unit)


def test_criterion_7_property_suites():
    with criterion(7, "property suites against brute-force oracles"):
        check_profile_dp_against_brute_force()
        check_whole_sum_criterion()
        check_non_smooth_total_inequality()
        check_group_reduction()
        check_index_one_vs_zero_sum_smooth()
        check_minimal_threshold_dominates_index_threshold()
        check_prepend_minimal_term()
        check_extremal_zero_sum_shapes()
        check_residual_decomposition_shape()
        check_long_zero_sum_free_are_smooth()
        check_index_scaling_invariance()


def test_criterion_8_worker_determinism():
    with criterion(8, "worker count never changes report bytes"):
        jobs = [
            ["invariant", "--which", "free-smooth", "--k", "8", "--n", "3"],
            ["invariant", "--which", "minimal-smooth", "--k", "9", "--n", "9"],
            ["invariant", "--which", "index", "--n", "10"],
            ["verify", "--what", "structure", "--k", "5", "--n", "3"],
            ["search", "--kind", "free", "--k", "7", "--n", "1"],
        ]
        for argv in jobs:
            outputs = set()
            for w in ("1", "2", "8"):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv + ["--workers", w])
                outputs.add((code, out.getvalue(), err.getvalue()))
            assert len(outputs) == 1, argv
