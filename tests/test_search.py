"""Exhaustive verifiers, threshold invariants, families, and sharding."""

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
    InvariantResult,
    VerificationReport,
    default_free_cap,
    default_minimal_cap,
    max_free_length,
    regime_label,
    structure_bound,
)
from idemfree import _kernels

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
    # over the whole range and over every single-first-element shard
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
            assert sorted(fast["violations"]) == sorted(full["violations"]), (tail, first_lo)
            assert fast["nodes"] <= full["nodes"]
            shard_nodes.append(fast["nodes"])
        # the global node budget relies on shards partitioning the visits
        assert sum(shard_nodes[1:]) == shard_nodes[0]


def test_settle_mode_never_skips_a_shape():
    # (6,) is the idempotent of C_{5;3}, so it is not free and its subtree
    # is settled unless a shape lies in it; a bogus shape below it must
    # still be visited and reported
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
    # the pruned C_{5;3} window visits 153 nodes, its largest shard 80:
    # a per-shard budget of 100 would pass at workers=2
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
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].name == "free_smooth_k7_n5_c14.json"
    again = free_smooth_threshold(P(7, 5), cache=cache)
    assert fresh == again
    assert fresh == free_smooth_threshold(P(7, 5))

    v = verify_structure(P(5, 3), 8, cache=str(tmp_path))
    assert v == verify_structure(P(5, 3), 8, cache=tmp_path)
    assert (tmp_path / "verify_structure_k5_n3_c8.json").exists()

    r = index_threshold(6, cache=tmp_path)
    assert r == index_threshold(6)
    assert (tmp_path / "index_k1_n6_c12.json").exists()


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
