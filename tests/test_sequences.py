"""Sequence container, parsing, sums, and the capped subset-sum profile kernel."""

import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, strategies as st

from idemfree import (
    DomainError,
    ParseError,
    SemigroupParams,
    Sequence,
    classify,
    format_index_multiset,
    parse_index_multiset,
    semigroup_sum,
)
from idemfree import _kernels
from idemfree.sequences import enumerate_multisets

from oracles import semigroup_subset_sums, subset_sums, wrap_index


def profile_sets(values, cap, n):
    """The profile kernel's masks as (exact sums below cap, residues of sums >= cap)."""
    exact, high = _kernels.profile(values, cap, n)
    return ({s for s in range(exact.bit_length()) if exact >> s & 1},
            {r for r in range(n) if high >> r & 1})


def semigroup_sums(params, values):
    """Semigroup subsequence sums read off the profile at cap k: a sum >= k folds by residue."""
    exact, high = profile_sets(values, params.k, params.n)
    return exact | {params.k + (r - params.k) % params.n for r in high}


def test_parse_examples():
    assert parse_index_multiset("2,4") == (2, 4)
    assert parse_index_multiset("1^3,5^2") == (1, 1, 1, 5, 5)
    assert parse_index_multiset("5,1,1,5,1") == (1, 1, 1, 5, 5)
    assert parse_index_multiset("7") == (7,)
    assert parse_index_multiset("") == ()


def test_format_examples():
    assert format_index_multiset((1, 1, 1, 5, 5)) == "1^3,5^2"
    assert format_index_multiset((2, 4)) == "2,4"
    assert format_index_multiset(()) == ""
    assert format_index_multiset((3,)) == "3"


@pytest.mark.parametrize("text,token", [
    ("1,,2", "''"),
    ("a", "'a'"),
    ("1^", "'1^'"),
    ("1^0", "'1^0'"),
    ("2^-1", "'2^-1'"),
    ("0", "'0'"),
    ("-3", "'-3'"),
    ("1^^2", "'1^^2'"),
])
def test_parse_errors_name_token(text, token):
    with pytest.raises(ParseError) as err:
        parse_index_multiset(text)
    assert token in str(err.value)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=12))
def test_text_round_trip(values):
    canonical = tuple(sorted(values))
    assert parse_index_multiset(format_index_multiset(canonical)) == canonical


def test_sequence_normalizes_and_validates():
    p = SemigroupParams(5, 3)
    s = Sequence.from_indices(p, [4, 2, 4])
    assert s.indices == (2, 4, 4)
    assert s.length == 3
    assert s.total == 10
    assert Counter(s.indices) == {2: 1, 4: 2}
    assert s.residues() == (2, 1, 1)
    with pytest.raises(DomainError):
        Sequence.from_indices(p, [8])
    with pytest.raises(DomainError):
        Sequence.from_indices(p, [0])


def test_semigroup_sum_examples():
    p = SemigroupParams(5, 3)
    assert semigroup_sum(Sequence.parse(p, "2,4")).index == 6
    assert semigroup_sum(Sequence.parse(p, "7,7")).index == 5
    assert semigroup_sum(Sequence.parse(p, "1^6")).index == 6
    with pytest.raises(DomainError):
        semigroup_sum(Sequence.from_indices(p, []))


def test_sumset_examples():
    p = SemigroupParams(7, 1)
    assert semigroup_sums(p, (1, 1, 4)) == {1, 2, 4, 5, 6}

    p = SemigroupParams(5, 3)
    assert semigroup_sums(p, (2, 4)) == {2, 4, 6}


@pytest.mark.parametrize("k,n", [(5, 3), (7, 1), (2, 5), (3, 3), (4, 2), (1, 6)])
def test_sumset_matches_oracle(k, n):
    p = SemigroupParams(k, n)
    for length in range(1, 5):
        for indices in enumerate_multisets(p.size, length):
            assert semigroup_sums(p, indices) == semigroup_subset_sums(k, n, indices)


def test_profile_examples():
    assert profile_sets((2, 4), 6, 3) == ({2, 4}, {0})
    assert profile_sets((1, 1), 6, 3) == ({1, 2}, set())
    assert profile_sets((1, 1), 1, 3) == (set(), {1, 2})


@pytest.mark.parametrize("k,n", [(5, 3), (7, 1), (2, 5), (4, 4)])
def test_profile_matches_subset_sums(k, n):
    p = SemigroupParams(k, n)
    cap = p.threshold
    for length in range(1, 6):
        for indices in enumerate_multisets(p.size, length):
            sums = subset_sums(indices)
            assert profile_sets(indices, cap, n) == ({x for x in sums if x < cap},
                                                     {x % n for x in sums if x >= cap})


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=10),
       st.integers(min_value=1, max_value=30))
def test_profile_matches_subset_sums_random(values, cap):
    sums = subset_sums(values)
    assert profile_sets(values, cap, 4) == ({x for x in sums if x < cap},
                                            {x % 4 for x in sums if x >= cap})


def test_profile_masks_are_sized_by_the_sums_not_the_cap():
    # the masks of "1,2,3" span 7 bits, whatever the threshold: classify at
    # k = 10**8 peaked at 25 MB when every term allocated a threshold-wide mask
    s = Sequence.parse(SemigroupParams(10**8, 1), "1,2,3")
    tracemalloc.start()
    try:
        report = classify(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_idempotent_sum_free
    assert peak < 1_000_000


def test_enumeration_counts():
    assert len(list(enumerate_multisets(2, 2))) == 3
    assert len(list(enumerate_multisets(5, 3))) == 35
    assert list(enumerate_multisets(3, 2, smallest=2)) == [(2, 2), (2, 3)]
    for u, length in [(4, 3), (6, 2), (3, 5)]:
        assert len(list(enumerate_multisets(u, length))) == comb(u + length - 1, length)


def test_wrap_consistency():
    # the oracle's defining-relation reduction agrees with the formula
    p = SemigroupParams(9, 4)
    for m in range(1, 60):
        w = wrap_index(9, 4, m)
        assert 1 <= w <= p.size
        assert (w == m) if m <= p.size else (w >= 9 and (w - m) % 4 == 0)
