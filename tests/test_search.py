"""Exhaustive verifiers, threshold invariants, families, and worker independence."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from functools import cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from idemfree import (
    BudgetError,
    DomainError,
    ResultCache,
    SemigroupParams,
    Sequence,
    backend_name,
    classify,
    critical_length,
    expected_thresholds,
    explore_bounds,
    free_smooth_threshold,
    generate_family,
    index_threshold,
    matched_cases,
    minimal_smooth_threshold,
    search_bad_sequences,
    structure_condition,
    sweep,
    verify_critical_cases,
    verify_structure,
)
from idemfree.search import (
    FREE_SMOOTH,
    MINIMAL_SMOOTH,
    InvariantResult,
    VerificationReport,
    _both_thresholds,
    case_shapes,
    default_free_cap,
    default_minimal_cap,
    max_free_length,
    regime_label,
    structure_bound,
)
from idemfree import _kernels
from idemfree.cli import CACHE_DIR_ENV

import oracles

P = SemigroupParams

SMALL_PAIRS = [(k, n) for k in range(1, 10) for n in range(1, 11 - k)]


def test_bound_formulas():
    assert critical_length(P(7, 1)) == 3
    assert critical_length(P(5, 2)) == 3
    assert critical_length(P(4, 2)) == 2
    assert critical_length(P(5, 3)) == 4
    with pytest.raises(DomainError):
        critical_length(P(3, 3))
    from idemfree import structure_bound
    assert structure_bound(P(5, 3)) == 4
    assert structure_bound(P(7, 1)) == 4
    assert structure_bound(P(4, 4)) == 3
    assert structure_bound(P(1, 9)) == 5
    assert max_free_length(P(5, 3)) == 7
    assert default_free_cap(P(5, 3)) == 8
    assert default_minimal_cap(P(5, 3)) == 9


def test_regime_labels():
    assert regime_label(4, 4) == "k<=n"
    assert regime_label(4, 3) == "k>n-even"
    assert regime_label(8, 3) == "k>n-odd"
    assert regime_label(7, 1) == "k>n-odd"
    assert regime_label(4, 1) == "k>n-even"


def test_expected_thresholds_table():
    table = {1: (0, 1), 2: (1, 2), 3: (1, 2), 4: (2, 3), 5: (1, 3),
             6: (4, 5), 7: (3, 4), 8: (5, 6), 9: (5, 6)}
    for n, (f, m) in table.items():
        b = expected_thresholds(n, n)
        assert (b["free_smooth_lo"], b["free_smooth_hi"]) == (f, f)
        assert (b["minimal_smooth_lo"], b["minimal_smooth_hi"]) == (m, m)
    b = expected_thresholds(7, 3)
    assert (b["free_smooth_lo"], b["free_smooth_hi"]) == (6, 6)
    assert (b["minimal_smooth_lo"], b["minimal_smooth_hi"]) == (7, 7)
    b = expected_thresholds(7, 5)
    assert (b["free_smooth_lo"], b["free_smooth_hi"]) == (6, 7)
    assert (b["minimal_smooth_lo"], b["minimal_smooth_hi"]) == (6, 8)
    b = expected_thresholds(5, 2)
    assert (b["free_smooth_lo"], b["free_smooth_hi"]) == (4, 4)
    assert (b["minimal_smooth_lo"], b["minimal_smooth_hi"]) == (4, 4)


def test_verify_structure_examples():
    r = verify_structure(P(5, 3), 8)
    assert r.counterexamples == ()
    assert r.total_sequences == 6315
    assert r.passed()
    assert verify_structure(P(1, 5), 5).counterexamples == ()
    assert verify_structure(P(2, 2), 5).counterexamples == ()
    assert verify_structure(P(7, 1), 6).counterexamples == ()
    with pytest.raises(DomainError):
        verify_structure(P(5, 3), 3)


def test_kernels_are_pure_python():
    assert backend_name() == "python"


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 8) for n in range(1, 8 - k)])
def test_scan_minimal_counts_match_oracle(k, n):
    # the scan decides minimality from the parent's exact mask; count every
    # minimal idempotent-sum multiset up to the default cap by brute force
    p = P(k, n)
    cap = default_minimal_cap(p)
    out = _kernels.scan(p.size, n, p.threshold, cap, 1, p.size, 0, 1, 10**8)
    want = [0] * (cap + 1)
    for indices in oracles.all_multisets(p.size, cap):
        if oracles.minimal_idempotent_sum_oracle(k, n, indices):
            want[len(indices)] += 1
    assert out["minimal_count_by_len"] == want


def _free_prefix_counts(k, n, cap):
    """Per first element, the multisets of length <= cap whose prefix S[:-1] is free."""
    p = P(k, n)
    free = {(): True}
    counts = [0] * (p.size + 1)
    for indices in oracles.all_multisets(p.size, cap):
        prefix = indices[:-1]
        if prefix not in free:
            free[prefix] = oracles.idempotent_sum_free_oracle(k, n, prefix)
        counts[indices[0]] += free[prefix]
    return counts


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 7) for n in range(1, 8 - k)])
def test_scan_nodes_count_multisets_with_free_prefix(k, n):
    # the node budget counts every multiset the walk reaches: each one whose
    # prefix is free, visited or settled as a non-free leaf, in every mode
    p = P(k, n)
    u, t = p.size, p.threshold
    cap = default_minimal_cap(p)
    counts = _free_prefix_counts(k, n, cap)
    for first_lo, first_hi in [(1, u)] + [(v, v) for v in range(1, u + 1)]:
        want = sum(counts[first_lo:first_hi + 1])
        for modes in [(0, 0), (1, 1), (2, 3)]:
            out = _kernels.scan(u, n, t, cap, first_lo, first_hi, *modes, 10**8)
            assert out["nodes"] == want, (first_lo, modes)


def _longest_bad(k, n, cap, bad):
    """(length, first WITNESS_LIMIT in lexicographic order) of the longest bad multisets."""
    by_len = {}
    for indices in oracles.all_multisets(P(k, n).size, cap):
        if bad(indices):
            by_len.setdefault(len(indices), []).append(indices)
    if not by_len:
        return 0, []
    best = max(by_len)
    return best, sorted(by_len[best])[:_kernels.WITNESS_LIMIT]


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 7) for n in range(1, 8 - k)])
def test_scan_witnesses_match_oracle(k, n):
    # the longest bad multisets come out in DFS (lexicographic) order, none
    # dropped: free ones at the free cap, minimal ones at the minimal cap
    p = P(k, n)
    u, t = p.size, p.threshold

    @cache
    def free(s):
        return oracles.idempotent_sum_free_oracle(k, n, s)

    @cache
    def minimal(s):
        return oracles.minimal_idempotent_sum_oracle(k, n, s)

    def group_smooth(s, zero_sum):
        return oracles.smooth_for_some_unit_oracle(n, [v % n for v in s], zero_sum)

    def index_not_one(s):
        # the period-1 group has no generator, and the scan counts its index as one
        index = oracles.sequence_index_oracle(n, [v % n for v in s])
        return index is not None and index != 1

    cases = [
        ("free", 1, default_free_cap(p), lambda s: free(s) and not oracles.one_smooth_oracle(s)),
        ("free", 2, default_free_cap(p), lambda s: free(s) and not group_smooth(s, False)),
        ("minimal", 1, default_minimal_cap(p),
         lambda s: minimal(s) and not oracles.one_smooth_oracle(s)),
        ("minimal", 2, default_minimal_cap(p), lambda s: minimal(s) and not group_smooth(s, True)),
        ("minimal", 3, default_minimal_cap(p), lambda s: minimal(s) and index_not_one(s)),
    ]
    for kind, mode, cap, bad in cases:
        modes = (mode, 0) if kind == "free" else (0, mode)
        out = _kernels.scan(u, n, t, cap, 1, u, *modes, 10**8)
        got = (out[f"{kind}_bad_len"], [tuple(w) for w in out[f"{kind}_bad_witnesses"]])
        assert got == _longest_bad(k, n, cap, bad), (kind, mode)


@pytest.mark.parametrize("k,n", SMALL_PAIRS)
def test_minimal_candidates_are_the_minimal_extensions(k, n):
    # the closed-form progression of minimal children, against the mask
    # test child by child, at every free multiset the scan descends from
    p = P(k, n)
    u, t = p.size, p.threshold
    multiples = _kernels.period_multiples(t, n)
    free = [()]
    for prefix in free:
        if len(prefix) == default_minimal_cap(p):
            continue
        exact, _ = _kernels.profile(prefix, t, n)
        total = sum(prefix)
        terms = range(prefix[-1] if prefix else 1, u + 1)
        want = [w for w in terms
                if _kernels.is_minimal_extension(exact, total + w, t, n, multiples)]
        got = _kernels.minimal_candidates(terms, exact, total, t, n, multiples)
        assert list(got) == want, prefix
        free.extend(prefix + (w,) for w in terms
                    if not _kernels.profile(prefix + (w,), t, n)[1] & 1)


def _budget_ladder(run):
    """run(budget) refuses at one below its unbudgeted node count and matches at it."""
    want = run(10**8)
    budget = want["nodes"] - 1
    with pytest.raises(BudgetError) as err:
        run(budget)
    assert str(err.value) == str(_kernels.over_budget(budget))
    assert run(want["nodes"]) == want


@pytest.mark.parametrize("k,n", SMALL_PAIRS)
def test_budget_ladder_around_every_node_count(k, n):
    # settled leaves count in DFS order with visits, so the budget that
    # refuses is exactly one below the node count, in every scan mode and
    # in settle-mode windows with and without the case shapes
    p = P(k, n)
    u, t = p.size, p.threshold
    for modes in [(1, 0), (0, 1), (2, 0), (0, 2), (0, 3)]:
        cap = default_free_cap(p) if modes[0] else default_minimal_cap(p)
        _budget_ladder(lambda budget: _kernels.scan(u, n, t, cap, 1, u, *modes, budget))
    hi = structure_bound(p) + 3
    shape_lists = [()] + ([case_shapes(p)] if k > n else [])
    for shapes in shape_lists:
        _budget_ladder(lambda budget: _kernels.verify_window(
            u, n, t, k > n, 1, hi, 1, u, budget, True, shapes))


def _outcome(run, budget):
    """run(budget), or the text of its refusal."""
    try:
        return run(budget)
    except BudgetError as err:
        return str(err)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 11) for k in range(2, n + 1)])
def test_group_scan_matches_index_walk(k, n):
    # in the group regime scan walks residue multisets and counts their
    # index lifts in closed form; the index walk over [1, k+n-1] must give
    # the same dict, nodes and witnesses included, and the same result or
    # refusal text at every budget of a ladder around the node count
    u = k + n - 1

    def index_walk(budget):
        state = _kernels._Scan(u, n, n, cap, *modes, budget)
        state.run(1, u)
        return state.result()

    for modes in [(2, 0), (0, 2), (2, 2), (0, 3)]:
        for cap in (2 * n - 1, 2 * n):
            want = index_walk(10**8)
            assert _kernels.scan(u, n, n, cap, 1, u, *modes, 10**8) == want, (modes, cap)
            nodes = want["nodes"]
            for budget in sorted({0, 1, nodes // 3, nodes // 2, nodes - 1, nodes}):
                got = _outcome(lambda b: _kernels.scan(u, n, n, cap, 1, u, *modes, b), budget)
                assert got == _outcome(index_walk, budget), (modes, cap, budget)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 11) for k in range(1, n + 1)])
def test_group_verify_matches_index_walk(k, n):
    # in the group regime a settle-mode window over the whole first-term
    # range walks residue multisets and counts their index lifts in closed
    # form; the index walk over [1, k+n-1] must give the same dict, nodes
    # and every violation in order included, and the same result or refusal
    # text at every budget of a ladder around the node count.  Windows from
    # length 1 hold violations, so the merge of their lifts is exercised.
    u = k + n - 1

    def index_walk(budget):
        return oracles.settle_window(u, n, n, False, lo, hi, 1, u, budget)

    def lift_walk(budget):
        return _kernels.verify_window(u, n, n, False, lo, hi, 1, u, budget, True)

    hi = structure_bound(P(k, n)) + 3
    for lo in (1, structure_bound(P(k, n))):
        want = index_walk(10**8)
        assert lift_walk(10**8) == want, lo
        nodes = want["nodes"]
        for budget in sorted({0, 1, nodes // 2, nodes - 1, nodes}):
            assert _outcome(lift_walk, budget) == _outcome(index_walk, budget), (lo, budget)


@pytest.mark.parametrize("k,n", SMALL_PAIRS)
def test_verify_window_matches_settle_reference(k, n):
    # settle mode runs scan's walk and counts the rest in closed form; the
    # reference walk over indices, which visits every free multiset and
    # never skips a shape or a prefix of one, must give the same dict,
    # nodes and every violation in order included, in both regimes, over
    # the whole range and every single first term, with and without the
    # case shapes, and the same result or refusal text at every budget of
    # a ladder around the node count over the whole range
    p = P(k, n)
    u, t = p.size, p.threshold
    bound = structure_bound(p)
    hi = bound + 3
    shape_lists = [()] + ([case_shapes(p)] if k > n else [])
    for tail in (True, False):
        for lo in sorted({1, bound}):
            for shapes in shape_lists:
                def fast(budget, first=(1, u)):
                    return _kernels.verify_window(u, n, t, tail, lo, hi, *first, budget, True,
                                                  shapes)

                def reference(budget, first=(1, u)):
                    return oracles.settle_window(u, n, t, tail, lo, hi, *first, budget, shapes)

                where = (tail, lo, bool(shapes))
                for first in [(1, u)] + [(v, v) for v in range(1, u + 1)]:
                    assert fast(10**8, first) == reference(10**8, first), (*where, first)
                nodes = reference(10**8)["nodes"]
                for budget in sorted({0, 1, nodes // 3, nodes // 2, nodes - 1, nodes}):
                    assert _outcome(fast, budget) == _outcome(reference, budget), (*where, budget)


def test_searches_run_in_process_at_any_workers():
    # --workers is accepted and ignored: a fresh interpreter running the CLI
    # at --workers 8 never imports multiprocessing and prints the --workers 1 bytes
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from idemfree.cli import main
        runs = []
        for argv in (["invariant", "--which", "minimal-smooth", "--k", "9", "--n", "9"],
                     ["verify", "--k", "5", "--n", "3"]):
            for workers in ("1", "8"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv + ["--workers", workers])
                runs.append((code, out.getvalue()))
        print(json.dumps({"pool": "multiprocessing" in sys.modules, "runs": runs}))
    """)
    env = {key: value for key, value in os.environ.items() if key != CACHE_DIR_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    report = json.loads(proc.stdout)
    assert report["pool"] is False
    (code1, out1), (code8, out8), (vcode1, vout1), (vcode8, vout8) = report["runs"]
    assert code1 == code8 == vcode1 == vcode8 == 0
    assert out8 == out1 and vout8 == vout1
    assert json.loads(out1)["which"] == "minimal-smooth"
    assert json.loads(vout1)["check"] == "structure"


def test_kernels_handle_wide_masks():
    # threshold + universe >= 64: the masks outgrow a machine word
    p = P(60, 2)
    out = _kernels.scan(p.size, 2, p.threshold, 2, 1, 4, 1, 0, 10**6)
    free = [0, 4, sum(oracles.idempotent_sum_free_oracle(60, 2, (a, b))
                      for a in range(1, 5) for b in range(a, p.size + 1))]
    assert out["free_count_by_len"] == free
    values = [40, 50, 61]
    sums = oracles.subset_sums(values)
    assert _kernels.profile(values, 60, 5) == (
        sum(1 << s for s in sums if s < 60),
        sum(1 << r for r in {s % 5 for s in sums if s >= 60}))


def test_leaf_masks_match_their_bitwise_definition():
    # entry w: bits s in [t-w, t) with n | s+w (bit 0 is w alone), and bit t + (-w mod n);
    # the entries past u are the term sums v + w of the pair rule, up to 2u
    for k in range(1, 13):
        for n in range(1, 13):
            p = P(k, n)
            t = p.threshold
            want = [0]
            for w in range(1, 2 * p.size + 1):
                mask = 1 << (t + -w % n)
                for s in range(max(0, t - w), t):
                    if (s + w) % n == 0:
                        mask |= 1 << s
                want.append(mask)
            assert _kernels._leaf_masks(p.size, n, t) == tuple(want), (k, n)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(1, 6) for k in range(n + 1, 13 - n)])
def test_pair_rule_decides_the_children_of_free_children(k, n):
    # for a free P with free children F and v <= w in F, P + v + w is free
    # iff P's sums miss the leaf entry of the term sum v + w
    p = P(k, n)
    u, t = p.size, p.threshold
    leaf = _kernels._leaf_masks(u, n, t)
    checked = 0
    for prefix in [()] + list(oracles.all_multisets(u, 4)):
        if not oracles.idempotent_sum_free_oracle(k, n, prefix):
            continue
        exact, high = _kernels.profile(prefix, t, n)
        sums = exact | 1 | high << t
        free = [w for w in range(prefix[-1] if prefix else 1, u + 1)
                if oracles.idempotent_sum_free_oracle(k, n, prefix + (w,))]
        for i, v in enumerate(free):
            for w in free[i:]:
                want = oracles.idempotent_sum_free_oracle(k, n, prefix + (v, w))
                assert (not sums & leaf[v + w]) == want, (prefix, v, w)
                checked += 1
    assert checked


# sha256 of json.dumps(scan(...), sort_keys=True) in modes (1, 1), recorded from the
# walk that visited every free multiset: the 12 tail-regime pairs of the benchmark's
# thresholds pools and (31,6), at cap t + n (None), at cap 3 and from first term 2
TAIL_SCAN_DIGESTS = [
    (17, 1, None, 1, 11391, "2e4389214ed577a87634706c627b8feecff7831c20bd1ec920587d91fe1cfd10"),
    (17, 1, 3, 1, 809, "6772998b60130ad6a26739ac736954e04c38875ac141165606184d28e486b681"),
    (17, 1, None, 2, 2694, "4a8575f520ad2d2cde53e9efcf7c501f8fd0fbf7fe29207b5a2fde38574e727d"),
    (19, 1, None, 1, 22252, "9b0a51ea8c03cd8f7047d308c17856310826943d84f56edfcfce6eda3ce24f6d"),
    (19, 1, 3, 1, 1099, "598eb6b7a4f4600c2b2faf34134fbc44d49df5e17299d0be09c51d11f28de95b"),
    (19, 1, None, 2, 5055, "2bde28a00edfad9f805935597fe48376c06cb875501a2c1bc723f7e81b029313"),
    (19, 3, None, 1, 58428, "0d956536984ace3d8bfd238c265121efd061ae9d8fbec5bd28ac936fa4cd7d0b"),
    (19, 3, 3, 1, 1795, "d6ab501131e3aa38ae5b17f6361a205e5df5f15f2020bdc0a01f90cb9040ac65"),
    (19, 3, None, 2, 23857, "b9a8b7e7fc83e7f26b83e1e1d7a2c9ef6a321273ca56cdc288fc11e8130cc30a"),
    (15, 7, None, 1, 102454, "f6800e683b05574de8e2f104b779c48f5f2eb92b7568e6c7485624bab45e426e"),
    (15, 7, 3, 1, 1892, "6570d8dbc4191e52f95d1a1446e939d55dc5565af637049a6c232991868413c4"),
    (15, 7, None, 2, 58004, "cad47ff3d7c02c474e801fa8e454e5e79e1de62129818ce52d737d7a73b7458d"),
    (11, 9, None, 1, 55330, "606ef8d8df1bddaa79807917e281a4388ff73f648c44f056419cf148a735c251"),
    (11, 9, 3, 1, 1417, "9974715430c71114f8391bb66747829f8b040692835392da2901bd123c0871dd"),
    (11, 9, None, 2, 33277, "7ed5e69251839854a3dc9126f3cb028ef225a2d8d8418086aa0205883cd1c788"),
    (13, 8, None, 1, 40282, "1d5515cc86117039df539dc8d74d308f2cf356d001d324518f4abd46c54e55bf"),
    (13, 8, 3, 1, 1548, "91d0617604cb305f9d3cbcff5e1efb7c9b7abe361d4c06aae0d27fc44a4b3b31"),
    (13, 8, None, 2, 25253, "f398a40a290382cbd6b61a29b865575c36348d6262655c592c943968ccb34f70"),
    (14, 8, None, 1, 47284, "621df1c56308e41ae02bfedc60450bd32d84f8846fd37b431eb7443cd0e489c2"),
    (14, 8, 3, 1, 1755, "df247a6ae1b62bd269ae2f212527a36067f464fb215066cb5bfb3b984d8556eb"),
    (14, 8, None, 2, 30462, "1af06b4ee644bac925c2155f57b9aa08deed0f6ace592a0621283c3b1fb280a2"),
    (15, 6, None, 1, 41876, "a851ab599d7a0e24f1ac463a4b0cb9834712f0a3a486fc9c2cdde1360e495c9f"),
    (15, 6, 3, 1, 1575, "046461add79e50338a8e81e47373a1c38fbfe06a8a1dd474ea85b654f68c7b5e"),
    (15, 6, None, 2, 22536, "761dd60f3f72922b022a1ca8b954306d3589ff2a52dc0c735af6a1207206b98d"),
    (17, 2, None, 1, 19492, "763884630d168a2a8e1fe60e25a025f6dfdc41918c217b34c93972b34f5cdff9"),
    (17, 2, 3, 1, 1100, "5e518e66cd735799f143a13464ef742b845d40f38b9f43e209d8147f8c2f8504"),
    (17, 2, None, 2, 7185, "213c9d242ad35095957c885c42989ecc2bdaae4be1150adbaf7fa12839afc0c4"),
    (18, 2, None, 1, 21237, "45bcd963470b861c90e93a4f2a245226cfd7c35d0d335a8723c3459c8e01e2da"),
    (18, 2, 3, 1, 1235, "efc57c30f5bcf26bee9b8eaccba024ed0ab4ea105206885944c41c03a0a6cc0d"),
    (18, 2, None, 2, 8015, "b064d12db7ab3f0e3cfb835a65aba01d295688f545c48985ce1ce3f70c52032b"),
    (19, 2, None, 1, 37229, "d9d616137bc7d2c191fd5f2bbf80a4557a6e4d32271c3a54cbb8fb21030283e3"),
    (19, 2, 3, 1, 1474, "0c46325645b0643a08992ad25fee6d87ed7ad701b40702f78d6929b3150a2e8b"),
    (19, 2, None, 2, 13379, "2899efcaa43a17e692f5ede693595bb28deb8330b46f0f0c36fcc5c7e8eb2d81"),
    (20, 2, None, 1, 40192, "94ef9607f1686442870cbe90d0994988c52846d555045c97162f1cf185f085ea"),
    (20, 2, 3, 1, 1639, "de60e84ab18d9a59528c3ef516de9a8514d85ee4f237b3735008bd74b76f7b93"),
    (20, 2, None, 2, 14745, "c4159489351256f52e380e261b8ba6e86bc4f144a4dc3e400b5876be243eee9b"),
    (31, 6, None, 1, 3697822, "a3c2e4e4e6e9f37a81ed0cb6cd5721b2154eedf072e0dcf2c83c0cfee910c875"),
    (31, 6, 3, 1, 8597, "c60e8fe45e2ada5052a4bd1ac3a7bf2c7a92564555d1801d75f49aa1de80e2f8"),
    (31, 6, None, 2, 1632430, "104f1e2cdb102b683fbf36cd0345dbac5101874670f2284dd5a8d5fdbc67b5c6"),
]


@pytest.mark.parametrize("k,n,cap,first_lo,nodes,digest", TAIL_SCAN_DIGESTS,
                         ids=[f"{k}-{n}-cap{cap or 'tn'}-first{lo}"
                              for k, n, cap, lo, _, _ in TAIL_SCAN_DIGESTS])
def test_tail_scan_matches_its_recorded_digest(k, n, cap, first_lo, nodes, digest):
    # a free child without a free child is settled at its parent, with its
    # minimal candidates; the dict, and the budget that refuses it, stay those of
    # the walk that visited it.  The two (31,6) walks past 10**6 nodes, 0.5 to
    # 1 s each, run once, without the refusal one node below.
    p = P(k, n)
    u, t = p.size, p.threshold

    def run(budget):
        return _kernels.scan(u, n, t, cap or default_minimal_cap(p), first_lo, u, 1, 1, budget)

    got = hashlib.sha256(json.dumps(run(nodes), sort_keys=True).encode()).hexdigest()
    assert got == digest
    if nodes < 10**6:
        with pytest.raises(BudgetError) as err:
            run(nodes - 1)
        assert str(err.value) == str(_kernels.over_budget(nodes - 1))


TAIL_PAIRS_TO_16 = [(k, n) for k in range(2, 16) for n in range(1, k) if k + n <= 16]


def test_free_minus_bad_counts_the_one_smooth_multisets():
    # in the tail regime a free 1-smooth multiset has total below t, and a
    # multiset with total below t is free, so free - bad in mode 1 is the
    # count of 1-smooth multisets with total below t at every length: at
    # the cap t+n-1, which closes the walk, and one below it.  The
    # condition hits of the structure and case windows are the same count
    # summed over the window.  (20,2) and (31,6) are the pairs of the tail
    # scan digests.
    for k, n in TAIL_PAIRS_TO_16 + [(20, 2), (31, 6)]:
        p = P(k, n)
        u, t = p.size, p.threshold
        for cap in (t + n - 1, t + n - 2):
            got = _kernels.scan(u, n, t, cap, 1, u, 1, 0, 10**8)
            want = oracles.one_smooth_counts(u, t, cap)
            assert [free - bad for free, bad in zip(got["free_count_by_len"],
                                                    got["free_bad_by_len"])] == want, (k, n, cap)
        bound, critical = structure_bound(p), critical_length(p)
        for lo, hi, shapes in [(bound, bound + 3, ()),
                               (critical, max(critical, max_free_length(p)), case_shapes(p))]:
            window = _kernels.verify_window(u, n, t, True, lo, hi, 1, u, 10**8, True, shapes)
            assert window["condition_hits"] == sum(oracles.one_smooth_counts(u, t, hi)[lo:]), \
                (k, n, lo)


def test_case_shapes_have_only_free_proper_prefixes():
    # so the settle-mode case window, which does not descend under a
    # non-free multiset, reaches every shape it lists, and its nodes are
    # those of the walk that never skipped a shape's prefix
    for k in range(2, 61):
        for n in range(1, min(k, 31)):
            prefixes = {shape[:i] for _, shape in case_shapes(P(k, n))
                        for i in range(1, len(shape))}
            for prefix in prefixes:
                assert oracles.idempotent_sum_free_oracle(k, n, prefix), (k, n, prefix)


def test_ladder_summary_decides_every_one_term_extension():
    # (reach, need) of D: D + [x] is 1-smooth iff need <= x <= reach + 1,
    # against the sorted-prefix test for every D of up to 5 terms from 1..7
    for size in range(6):
        for ds in combinations_with_replacement(range(1, 8), size):
            reach, need = _kernels._ladder(list(ds))
            for x in range(1, 20):
                want = _kernels.is_one_smooth_sorted(sorted(ds + (x,)))
                assert (need <= x <= reach + 1) == want, (ds, x)


def test_scan_budget_error_text():
    p = P(9, 9)
    with pytest.raises(BudgetError) as err:
        _kernels.scan(p.size, 9, 9, 18, 1, p.size, 2, 2, 50)
    assert str(err.value) == "enumeration aborted: visited multisets exceed the node budget 50"


def test_verify_engine_detects_violations_below_bound():
    # below the structure bound the equivalence genuinely fails: over
    # C_{4;4} the single term 2 is free but has no smooth generator, so
    # forcing the window under the bound must surface it
    p = P(4, 4)
    assert classify(Sequence.parse(p, "2")).is_idempotent_sum_free
    assert not structure_condition(Sequence.parse(p, "2"))

    report = _kernels.verify_window(
        universe=7, period=4, threshold=4, tail_regime=False,
        len_lo=1, len_hi=2, first_lo=1, first_hi=7, node_budget=10**6)
    assert report["violations"]
    assert (2,) in {tuple(v) for v in report["violations"]}


@pytest.mark.parametrize("k,n", SMALL_PAIRS)
def test_settle_mode_agrees_with_exhaustive_window(k, n):
    # skipping settled subtrees must not change the total or the violations,
    # in either regime, from length 1 (below the bound violations exist),
    # over the whole range and over every single first element
    p = P(k, n)
    u, t = p.size, p.threshold
    hi = structure_bound(p) + 3
    for tail in (True, False):
        shard_nodes = []
        for first_lo, first_hi in [(1, u)] + [(v, v) for v in range(1, u + 1)]:
            full = _kernels.verify_window(u, n, t, tail, 1, hi, first_lo, first_hi, 10**8)
            fast = _kernels.verify_window(u, n, t, tail, 1, hi, first_lo, first_hi, 10**8,
                                          True)
            assert fast["total"] == full["total"], (tail, first_lo)
            # in lexicographic order, which verify_structure reports as is
            assert fast["violations"] == sorted(full["violations"]), (tail, first_lo)
            assert fast["nodes"] <= full["nodes"]
            shard_nodes.append(fast["nodes"])
        # the single-first-element walks partition the whole walk's nodes
        assert sum(shard_nodes[1:]) == shard_nodes[0]


def test_settle_mode_never_skips_a_shape():
    # (6,) is the idempotent of C_{5;3}, so it is not free and the walk
    # does not descend under it; a bogus shape below it must still be
    # counted and reported
    p = P(5, 3)
    u, t = p.size, p.threshold
    plain = _kernels.verify_window(u, 3, t, True, 1, 4, 1, u, 10**6, True)
    bogus = _kernels.verify_window(u, 3, t, True, 1, 4, 1, u, 10**6, True,
                                   (("bogus", (6, 7)),))
    assert (6, 7) not in plain["violations"]
    assert (6, 7) in bogus["violations"]
    assert bogus["shape_hits"] == {"bogus": 1}
    assert sorted(set(bogus["violations"]) - set(plain["violations"])) == [(6, 7)]
    assert bogus["total"] == plain["total"]


def test_settle_mode_never_settles_a_shape_leaf():
    # (1,) is free in C_{5;3} and (1,5) is not (1+5 is the idempotent 6),
    # so (1,5) is a leaf the tail regime settles without a visit; listed as
    # a shape, it or a longer multiset through it must still be reported
    p = P(5, 3)
    u, t = p.size, p.threshold
    plain = _kernels.verify_window(u, 3, t, True, 1, 4, 1, u, 10**6, True)
    for shape in [(1, 5), (1, 5, 5)]:
        bogus = _kernels.verify_window(u, 3, t, True, 1, 4, 1, u, 10**6, True,
                                       (("bogus", shape),))
        assert sorted(set(bogus["violations"]) - set(plain["violations"])) == [shape]
        assert bogus["shape_hits"] == {"bogus": 1}
        assert bogus["total"] == plain["total"]


@pytest.mark.parametrize("k,n", [(k, n) for k, n in SMALL_PAIRS if k > n])
def test_critical_cases_match_per_multiset_enumeration(k, n):
    assert (verify_critical_cases(P(k, n)).to_json_dict()
            == oracles.critical_cases_by_enumeration(P(k, n)))


def test_verify_critical_cases():
    r = verify_critical_cases(P(7, 1))
    assert r.counterexamples == ()
    assert r.case_tallies["ones_plus_half_period1"] == 1
    assert r.case_tallies["all_twos_period1"] == 1
    assert r.case_tallies["all_twos_period_ge3"] == 0

    r = verify_critical_cases(P(5, 2))
    assert r.counterexamples == ()
    assert r.case_tallies["odd_head_twos_period2"] == 2

    r = verify_critical_cases(P(3, 1))
    assert r.counterexamples == ()
    # at k=3 the two period-1 families coincide in the single sequence (2)
    assert r.case_tallies["ones_plus_half_period1"] == 1
    assert r.case_tallies["all_twos_period1"] == 1

    with pytest.raises(DomainError):
        verify_critical_cases(P(3, 3))


def test_matched_cases_shapes():
    assert matched_cases(P(7, 1), (1, 1, 4)) == ("ones_plus_half_period1",)
    assert matched_cases(P(7, 1), (2, 2, 2)) == ("all_twos_period1",)
    assert matched_cases(P(7, 1), (1, 1, 1)) == ("smooth_below_threshold",)
    assert matched_cases(P(5, 2), (2, 2, 3)) == ("odd_head_twos_period2",)
    assert matched_cases(P(5, 2), (2, 2, 5)) == ("odd_head_twos_period2",)
    assert matched_cases(P(5, 2), (2, 2, 4)) == ()
    assert matched_cases(P(3, 1), (2,)) == ("ones_plus_half_period1", "all_twos_period1")
    with pytest.raises(DomainError):
        matched_cases(P(3, 3), (1,))


def test_free_smooth_threshold_values():
    assert free_smooth_threshold(P(7, 1)).value == 4
    assert free_smooth_threshold(P(5, 3)).value == 4
    assert free_smooth_threshold(P(1, 1)).value == 0
    assert free_smooth_threshold(P(9, 9)).value == 5
    r = free_smooth_threshold(P(5, 5))
    assert r.value == 1 and not r.frontier_hit


def test_minimal_smooth_threshold_values():
    assert minimal_smooth_threshold(P(7, 1)).value == 5
    assert minimal_smooth_threshold(P(1, 1)).value == 1
    assert minimal_smooth_threshold(P(5, 5)).value == 3
    assert minimal_smooth_threshold(P(4, 3)).value == 4


def test_index_threshold_values():
    assert index_threshold(6).value == 5
    assert index_threshold(7).value == 1
    assert index_threshold(8).value == 6
    assert index_threshold(1).value == 1
    r = index_threshold(6)
    assert r.witnesses == ((1, 3, 4, 4), (2, 2, 3, 5))
    assert r.witness_total == 2


def test_search_witnesses_are_bad():
    r = search_bad_sequences(P(5, 3), "free")
    assert r.value == 4 and r.witnesses
    p = P(5, 3)
    for w in r.witnesses:
        rep = classify(Sequence.from_indices(p, w))
        assert rep.is_idempotent_sum_free and not rep.structure_smooth

    r = search_bad_sequences(P(5, 3), "minimal")
    for w in r.witnesses:
        rep = classify(Sequence.from_indices(p, w))
        assert rep.is_minimal_idempotent_sum and not rep.one_smooth

    r = search_bad_sequences(P(7, 7), "minimal")
    for w in r.witnesses:
        rep = classify(Sequence.from_indices(P(7, 7), w))
        assert rep.is_minimal_idempotent_sum
        assert rep.smooth_kind != "zero-sum-smooth"

    with pytest.raises(DomainError):
        search_bad_sequences(P(5, 3), "weird")


def test_frontier_reporting_with_small_cap():
    r = free_smooth_threshold(P(7, 1), cap=2)
    assert r.frontier_hit and r.value == 3 and r.search_cap == 2
    full = free_smooth_threshold(P(7, 1))
    assert not full.frontier_hit and full.value == 4


FAMILY_CASES = [
    ("free-all-twos", 9, 1), ("free-all-twos", 7, 3),
    ("free-three-twos", 5, 2), ("free-three-twos", 7, 5),
    ("free-ones-pair", 6, 6), ("free-ones-pair", 9, 9), ("free-ones-pair", 8, 8),
    ("free-ones-half", 7, 1), ("free-ones-half", 9, 1),
    ("minimal-all-twos", 5, 3), ("minimal-all-twos", 9, 1),
    ("minimal-group-small", 2, 2), ("minimal-group-small", 5, 5),
    ("minimal-group-small", 7, 7), ("minimal-group-small", 4, 4),
]


@pytest.mark.parametrize("family,k,n", FAMILY_CASES)
def test_families_are_genuinely_bad(family, k, n):
    p = P(k, n)
    s = generate_family(p, family)
    rep = classify(s)
    if family.startswith("free"):
        assert rep.is_idempotent_sum_free
        assert not rep.structure_smooth
        assert s.length == free_smooth_threshold(p).value - 1
    else:
        assert rep.is_minimal_idempotent_sum
        if k > n:
            assert not rep.one_smooth
            assert s.length == minimal_smooth_threshold(p).value - 1
        else:
            assert rep.smooth_kind != "zero-sum-smooth"


def test_family_validity_errors():
    for family, k, n in [("free-all-twos", 5, 2), ("free-three-twos", 7, 1),
                         ("free-three-twos", 7, 3), ("free-ones-pair", 5, 5),
                         ("free-ones-pair", 7, 7), ("free-ones-half", 6, 1),
                         ("minimal-group-small", 6, 6), ("minimal-all-twos", 3, 3)]:
        with pytest.raises(DomainError):
            generate_family(P(k, n), family)
    with pytest.raises(DomainError):
        generate_family(P(5, 3), "no-such-family")


def test_explore_bounds_rows():
    rows = explore_bounds([(4, 3), (5, 4), (7, 5), (8, 3)])
    assert [r["k"] for r in rows] == [4, 5, 7, 8]
    assert all(r["within_bounds"] for r in rows)
    by_pair = {(r["k"], r["n"]): r for r in rows}
    assert by_pair[(4, 3)]["free_smooth"] == 4
    assert by_pair[(5, 4)]["free_smooth"] == 5
    assert by_pair[(8, 3)]["free_smooth"] == 6
    assert by_pair[(8, 3)]["minimal_smooth"] == 7
    with pytest.raises(DomainError):
        explore_bounds([(3, 3)])
    with pytest.raises(DomainError):
        explore_bounds([(5, 2)])


def test_sweep_rows():
    rows = sweep([(n, n) for n in range(1, 7)])
    assert [r["status"] for r in rows] == ["ok"] * 6
    assert [(r["free_smooth"], r["minimal_smooth"]) for r in rows] == [
        (0, 1), (1, 2), (1, 2), (2, 3), (1, 3), (4, 5)]
    rows = sweep([(9, 9)], node_budget=10)
    assert rows[0]["status"] == "refused"
    assert rows[0]["free_smooth"] is None
    assert sweep([]) == []


def test_budget_refusals():
    with pytest.raises(BudgetError) as err:
        verify_structure(P(5, 3), 8, node_budget=100)
    assert "100" in str(err.value)
    with pytest.raises(BudgetError):
        free_smooth_threshold(P(9, 9), node_budget=10)


def test_verify_budget_counts_visited_nodes_globally():
    # the pruned C_{5;3} window visits 153 nodes in one walk, so a budget
    # of 100 refuses it and one of 153 admits it, whatever the workers
    want = "enumeration aborted: visited multisets exceed the node budget 100"
    for workers in (1, 2):
        with pytest.raises(BudgetError) as err:
            verify_structure(P(5, 3), 8, workers=workers, node_budget=100)
        assert str(err.value) == want
        assert (verify_structure(P(5, 3), 8, workers=workers, node_budget=153)
                == verify_structure(P(5, 3), 8))


def test_worker_determinism_api():
    for workers in (2, 8):
        assert (minimal_smooth_threshold(P(9, 9), workers=workers)
                == minimal_smooth_threshold(P(9, 9)))
        assert (free_smooth_threshold(P(8, 3), workers=workers)
                == free_smooth_threshold(P(8, 3)))
        assert verify_structure(P(5, 3), 8, workers=workers) == verify_structure(P(5, 3), 8)


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    fresh = free_smooth_threshold(P(7, 5), cache=cache)
    # at the default cap the search answers and stores minimal-smooth too
    assert {f.name for f in tmp_path.iterdir()} == {"free_smooth_k7_n5_c14.json",
                                                   "minimal_smooth_k7_n5_c15.json"}
    again = free_smooth_threshold(P(7, 5), cache=cache)
    assert fresh == again
    assert fresh == free_smooth_threshold(P(7, 5))

    v = verify_structure(P(5, 3), 8, cache=str(tmp_path))
    assert v == verify_structure(P(5, 3), 8, cache=tmp_path)
    assert (tmp_path / "verify_structure_k5_n3_c8.json").exists()

    r = index_threshold(6, cache=tmp_path)
    assert r == index_threshold(6)
    assert (tmp_path / "index_k1_n6_c12.json").exists()


def _counted_scans(monkeypatch) -> list[tuple]:
    """Record the arguments of every _kernels.scan call from now on."""
    calls = []
    scan = _kernels.scan

    def counted(*args):
        calls.append(args)
        return scan(*args)
    monkeypatch.setattr(_kernels, "scan", counted)
    return calls


def _singles(p, free_cap, minimal_cap, budget=10**8):
    """Both smoothness results by their own walks, free-smooth first."""
    return (free_smooth_threshold(p, free_cap, node_budget=budget),
            minimal_smooth_threshold(p, minimal_cap, node_budget=budget))


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 12) for n in range(1, 13 - k)])
def test_shared_walk_matches_single_searches(k, n, monkeypatch):
    # one walk answers both searches when the caps are equal or both close
    # the search (>= t+n-1); otherwise each runs its own walk.  Results,
    # and the refusal text at every budget of a ladder around the node
    # count, must be those of the two single searches.
    p = P(k, n)
    closing = max_free_length(p) + 1
    calls = _counted_scans(monkeypatch)
    shared = [(None, None), (closing, closing), (closing, closing + 2), (3, 3)]
    apart = [(closing - 1, closing), (2, 3)] if closing >= 3 else []
    for caps in shared + apart:
        want = _singles(p, *caps)
        del calls[:]
        got = _both_thresholds(p, *caps, 10**8, None)
        assert got == want, caps
        walks = 0 if k == n == 1 else 1 if caps in shared else 2
        assert len(calls) == walks, caps
    for caps in [(None, None), (3, 3)]:
        if k == n == 1:
            continue
        nodes = _kernels.scan(p.size, n, p.threshold, 3 if caps[0] else default_free_cap(p),
                              1, p.size, 1, 0, 10**8)["nodes"]
        for budget in sorted({0, 1, nodes // 2, nodes - 1, nodes}):
            assert (_outcome(lambda b: _both_thresholds(p, *caps, b, None), budget)
                    == _outcome(lambda b: _singles(p, *caps, b), budget)), (caps, budget)


def test_cached_search_stores_its_sibling(tmp_path, monkeypatch):
    # a cached search at its default cap walks once and stores both results,
    # each file byte-equal to what a cached single search stores
    p = P(7, 5)
    files = {FREE_SMOOTH: "free_smooth_k7_n5_c14.json",
             MINIMAL_SMOOTH: "minimal_smooth_k7_n5_c15.json"}
    want = _singles(p, None, None)
    alone = ResultCache(tmp_path / "alone")
    for which, result in zip(files, want):
        alone.store(which.replace("-", "_"), 7, 5, result.search_cap, result.to_json_dict())
    calls = _counted_scans(monkeypatch)
    shared = tmp_path / "shared"
    assert free_smooth_threshold(p, cache=shared) == want[0]
    assert len(calls) == 1 and calls[0][6:8] == (1, 1)
    assert sorted(f.name for f in shared.iterdir()) == sorted(files.values())
    for name in files.values():
        assert (shared / name).read_bytes() == (alone.directory / name).read_bytes()
    assert minimal_smooth_threshold(p, cache=shared) == want[1]
    assert len(calls) == 1

    # a hit is served alone, with no walk, even when its sibling is missing
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / files[FREE_SMOOTH]).write_bytes((shared / files[FREE_SMOOTH]).read_bytes())
    assert free_smooth_threshold(p, node_budget=0, cache=lone) == want[0]
    assert len(calls) == 1
    assert [f.name for f in lone.iterdir()] == [files[FREE_SMOOTH]]

    # a valid sibling is served as it is and left alone: the missing result
    # runs its own walk.  This sibling is valid but not in the stored layout.
    valid = tmp_path / "valid"
    valid.mkdir()
    sibling = valid / files[MINIMAL_SMOOTH]
    sibling.write_text(json.dumps(want[1].to_json_dict()), encoding="utf-8")
    before = sibling.read_bytes()
    del calls[:]
    assert free_smooth_threshold(p, cache=valid) == want[0]
    assert len(calls) == 1 and calls[0][6:8] == (1, 0)
    assert sibling.read_bytes() == before
    assert (valid / files[FREE_SMOOTH]).read_bytes() == (shared / files[FREE_SMOOTH]).read_bytes()

    # a corrupt sibling is a miss: one shared walk overwrites it
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    (corrupt / files[MINIMAL_SMOOTH]).write_text("{", encoding="utf-8")
    del calls[:]
    assert minimal_smooth_threshold(p, cache=corrupt) == want[1]
    assert len(calls) == 1 and calls[0][6:8] == (1, 1)
    for name in files.values():
        assert (corrupt / name).read_bytes() == (shared / name).read_bytes()


def test_cached_search_refuses_like_its_own_walk(tmp_path):
    # the shared walk runs at the cap of the search asked for, so a refusal
    # that names the walk's length is that search's own refusal text
    for fn in (free_smooth_threshold, minimal_smooth_threshold):
        for p, budget in [(P(1200, 1), 100_000), (P(9, 9), 50), (P(9, 4), 0)]:
            with pytest.raises(BudgetError) as alone:
                fn(p, node_budget=budget)
            with pytest.raises(BudgetError) as cached:
                fn(p, node_budget=budget, cache=tmp_path)
            assert str(cached.value) == str(alone.value)
    assert list(tmp_path.iterdir()) == []


def test_generator_rows_are_built_only_where_read():
    # mode-1 scans and tail-regime windows never read the generator rows
    _kernels.generator_rows.cache_clear()
    free_smooth_threshold(P(9, 4))
    minimal_smooth_threshold(P(9, 4))
    verify_structure(P(9, 4))
    info = _kernels.generator_rows.cache_info()
    assert info.hits + info.misses == 0
    free_smooth_threshold(P(4, 9))
    verify_structure(P(4, 9))
    assert _kernels.generator_rows.cache_info().misses == 1


def test_report_serialization_round_trip():
    r = free_smooth_threshold(P(5, 3))
    assert InvariantResult.from_json_dict(r.to_json_dict()) == r
    v = verify_critical_cases(P(5, 2))
    assert VerificationReport.from_json_dict(v.to_json_dict()) == v


def test_smooth_thresholds_adjacent():
    # tail regime only: the minimal threshold never exceeds the free
    # threshold by more than one (fails in the group regime, e.g. n=5)
    for k in range(1, 9):
        for n in range(1, 9):
            if k + n > 10 or k <= n:
                continue
            f = free_smooth_threshold(P(k, n)).value
            m = minimal_smooth_threshold(P(k, n)).value
            assert m <= f + 1, (k, n, f, m)
    assert minimal_smooth_threshold(P(1, 5)).value \
        > free_smooth_threshold(P(1, 5)).value + 1


def test_minimal_threshold_vs_index_threshold():
    # group regime: the smooth threshold dominates the index threshold,
    # with equality at n = 6 and n = 8
    for n in range(2, 9):
        smo = minimal_smooth_threshold(P(n, n)).value
        ind = index_threshold(n).value
        assert smo >= ind
        if n in (6, 8):
            assert smo == ind
