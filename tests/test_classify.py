"""Classification predicates against literal-definition oracles."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from idemfree import (
    DomainError,
    SemigroupParams,
    Sequence,
    classify,
    decompose,
    find_smooth_generator,
    generators,
    idempotent_sum_witness,
    is_idempotent_sum,
    is_idempotent_sum_free,
    is_minimal_idempotent_sum,
    is_one_smooth,
    minimal_zero_sum,
    sequence_index,
    sequence_norm,
    smooth_kind,
    structure_condition,
    zero_sum_free,
)
from idemfree.sequences import enumerate_multisets

from oracles import (
    all_multisets,
    g_smooth_oracle,
    idempotent_sum_free_oracle,
    minimal_idempotent_sum_oracle,
    minimal_zero_sum_oracle,
    one_smooth_oracle,
    sequence_index_oracle,
    smooth_for_some_unit_oracle,
    units,
    zero_sum_free_oracle,
)

PAIRS = [(5, 3), (7, 1), (2, 5), (4, 4), (3, 2), (1, 6), (6, 2), (2, 2)]


def seq(k, n, text):
    return Sequence.parse(SemigroupParams(k, n), text)


def test_idempotent_sum_examples():
    assert is_idempotent_sum(seq(5, 3, "2,4"))
    assert is_idempotent_sum(seq(5, 3, "3,3"))
    assert not is_idempotent_sum(seq(5, 3, "2,3"))
    assert is_idempotent_sum(seq(7, 1, "3,4"))
    assert is_idempotent_sum(seq(2, 5, "1,4"))
    with pytest.raises(DomainError):
        is_idempotent_sum(Sequence.from_indices(SemigroupParams(5, 3), []))


def test_free_examples():
    assert is_idempotent_sum_free(seq(5, 3, "1,3,4"))
    assert not is_idempotent_sum_free(seq(5, 3, "2,4"))
    assert is_idempotent_sum_free(seq(7, 1, "1^2,4"))
    assert not is_idempotent_sum_free(seq(2, 5, "1,4"))
    # an idempotent term alone is never free
    for k, n in PAIRS:
        p = SemigroupParams(k, n)
        assert not is_idempotent_sum_free(Sequence.from_indices(p, [p.threshold]))


@pytest.mark.parametrize("k,n", PAIRS)
def test_free_and_minimal_match_oracle(k, n):
    p = SemigroupParams(k, n)
    for length in range(1, 6):
        for indices in enumerate_multisets(p.size, length):
            s = Sequence.from_indices(p, indices)
            assert is_idempotent_sum_free(s) == idempotent_sum_free_oracle(k, n, indices)
            assert (is_minimal_idempotent_sum(s)
                    == minimal_idempotent_sum_oracle(k, n, indices))


@pytest.mark.parametrize("k,n", PAIRS)
def test_witness_validity(k, n):
    p = SemigroupParams(k, n)
    for length in range(1, 6):
        for indices in enumerate_multisets(p.size, length):
            s = Sequence.from_indices(p, indices)
            w = idempotent_sum_witness(s)
            if w is None:
                assert is_idempotent_sum_free(s)
                continue
            assert w.length >= 1
            assert is_idempotent_sum(w)
            remaining = Counter(s.indices)
            for v in w.indices:
                remaining[v] -= 1
                assert remaining[v] >= 0


def test_one_smooth():
    assert is_one_smooth((1,))
    assert is_one_smooth((1, 1, 3))
    assert is_one_smooth((1, 2, 2))
    assert not is_one_smooth((2,))
    assert not is_one_smooth((1, 3))
    assert not is_one_smooth((1, 1, 4))
    with pytest.raises(DomainError):
        is_one_smooth(())
    with pytest.raises(DomainError):
        is_one_smooth((1, 0))


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=10))
def test_one_smooth_matches_oracle(values):
    assert is_one_smooth(tuple(values)) == one_smooth_oracle(values)


def test_generators():
    assert generators(2) == (1,)
    assert generators(6) == (1, 5)
    assert generators(7) == (1, 2, 3, 4, 5, 6)
    with pytest.raises(DomainError):
        generators(1)


def test_decompose_examples():
    assert decompose(5, (1, 1, 3), 3) == (1, 2, 2)
    assert decompose(5, (1, 1, 3), 1) == (1, 1, 3)
    assert decompose(4, (1, 1), 1) == (1, 1)
    assert decompose(5, (0,), 1) == (5,)
    with pytest.raises(DomainError):
        decompose(6, (1,), 2)
    with pytest.raises(DomainError):
        decompose(5, (5,), 1)


def test_smooth_kind_examples():
    assert smooth_kind(5, (1, 1, 3), 3) == "zero-sum-smooth"
    assert smooth_kind(4, (1, 1), 1) == "smooth"
    assert smooth_kind(5, (1, 4), 1) == "not-smooth"
    assert smooth_kind(8, (1, 1, 5, 5), 1) == "not-smooth"
    with pytest.raises(DomainError):
        smooth_kind(5, (), 1)


def test_find_smooth_generator_examples():
    # least qualifying generator wins: g=1 already decomposes (1,1,3) as
    # itself with sum 5 = n
    assert find_smooth_generator(5, (1, 1, 3)) == (1, "zero-sum-smooth")
    assert smooth_kind(5, (1, 1, 3), 3) == "zero-sum-smooth"
    assert find_smooth_generator(4, (1, 1)) == (1, "smooth")
    assert find_smooth_generator(8, (1, 1, 5, 5)) is None
    assert find_smooth_generator(5, (1, 4)) is None
    assert find_smooth_generator(7, (2, 3)) is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_smooth_kind_matches_oracle(n):
    for length in range(1, 5):
        for raw in enumerate_multisets(n, length):
            residues = tuple(r % n for r in raw)
            for g in units(n):
                kind = smooth_kind(n, residues, g)
                strict = g_smooth_oracle(n, residues, g, zero_sum=False)
                zs = g_smooth_oracle(n, residues, g, zero_sum=True)
                assert (kind == "smooth") == strict
                assert (kind == "zero-sum-smooth") == zs
            got = find_smooth_generator(n, residues)
            if got is None:
                assert not smooth_for_some_unit_oracle(n, residues, False)
                assert not smooth_for_some_unit_oracle(n, residues, True)
            else:
                g, kind = got
                assert g_smooth_oracle(n, residues, g, kind == "zero-sum-smooth")
                assert all(not g_smooth_oracle(n, residues, h, False)
                           and not g_smooth_oracle(n, residues, h, True)
                           for h in units(n) if h < g)


def test_norm_and_index_examples():
    norms = {g: sequence_norm(5, (1, 1, 3), g) for g in generators(5)}
    assert norms == {1: Fraction(1), 2: Fraction(2), 3: Fraction(1), 4: Fraction(2)}
    assert sequence_index(5, (1, 1, 3)) == Fraction(1)
    assert sequence_index(5, (1, 4)) == Fraction(1)
    assert sequence_index(6, (1, 3, 4, 4)) == Fraction(2)
    assert sequence_index(7, (1, 1, 5)) == Fraction(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_index_matches_oracle_and_scaling(n):
    for length in range(1, 5):
        for raw in enumerate_multisets(n, length):
            residues = tuple(r % n for r in raw)
            ind = sequence_index(n, residues)
            assert ind == sequence_index_oracle(n, residues)
            for c in units(n):
                scaled = tuple((c * r) % n for r in residues)
                assert sequence_index(n, scaled) == ind


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_group_side_matches_oracle(n):
    for length in range(1, 5):
        for raw in enumerate_multisets(n, length):
            residues = tuple(r % n for r in raw)
            assert zero_sum_free(n, residues) == zero_sum_free_oracle(n, residues)
            assert minimal_zero_sum(n, residues) == minimal_zero_sum_oracle(n, residues)


def test_structure_condition_examples():
    # index above period: 1-smooth with total below the threshold
    assert structure_condition(seq(5, 3, "1,1,2"))
    assert not structure_condition(seq(5, 3, "1,1,4"))
    assert not structure_condition(seq(5, 3, "2,2"))
    # index within period: residues strictly g-smooth for some generator
    assert structure_condition(seq(4, 4, "1,1"))
    assert not structure_condition(seq(4, 4, "2,2"))
    assert structure_condition(seq(7, 1, "1"))
    assert not structure_condition(seq(7, 1, "2"))
    assert not structure_condition(seq(1, 1, "1"))


def test_classify_reports():
    rep = classify(seq(5, 3, "2,4"))
    assert rep.is_idempotent_sum
    assert rep.is_minimal_idempotent_sum
    assert not rep.is_idempotent_sum_free
    assert rep.regime == "k>n"
    d = rep.to_json_dict()
    assert d["sequence"] == "2,4"
    assert d["sum_element"] == 6
    assert d["residue_zero_sum_free"] is None

    rep = classify(seq(2, 5, "1,4"))
    assert rep.regime == "k<=n"
    assert rep.is_minimal_idempotent_sum
    assert not rep.residue_zero_sum_free
    assert rep.residue_minimal_zero_sum
    assert rep.sequence_index == Fraction(1)
    assert rep.smooth_generator is None

    rep = classify(seq(7, 1, "1^2,4"))
    assert rep.is_idempotent_sum_free
    assert not rep.one_smooth
    assert rep.to_json_dict()["sequence_index"] is None

    with pytest.raises(DomainError):
        classify(Sequence.from_indices(SemigroupParams(5, 3), []))


@pytest.mark.parametrize("k,n", PAIRS)
def test_classify_internal_consistency(k, n):
    p = SemigroupParams(k, n)
    for length in range(1, 5):
        for indices in enumerate_multisets(p.size, length):
            rep = classify(Sequence.from_indices(p, indices))
            assert rep.is_idempotent_sum_free == (rep.idempotent_sum_witness is None)
            if rep.is_idempotent_sum:
                assert rep.idempotent_sum_witness is not None
            if rep.is_minimal_idempotent_sum:
                assert rep.is_idempotent_sum
            if k <= n:
                assert rep.is_idempotent_sum_free == rep.residue_zero_sum_free
                assert rep.is_minimal_idempotent_sum == rep.residue_minimal_zero_sum


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
       st.data())
def test_free_matches_oracle_random(k, n, data):
    p = SemigroupParams(k, n)
    indices = data.draw(st.lists(st.integers(min_value=1, max_value=p.size),
                                 min_size=1, max_size=8))
    s = Sequence.from_indices(p, indices)
    assert is_idempotent_sum_free(s) == idempotent_sum_free_oracle(k, n, indices)


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 7) for n in range(1, 8 - k)])
def test_minimal_matches_oracle_to_longest_length(k, n):
    # a minimal idempotent-sum sequence has at most t+n-1 terms; every length
    # up to t+n is compared with the per-removal oracle
    p = SemigroupParams(k, n)
    for indices in all_multisets(p.size, p.threshold + n):
        assert (is_minimal_idempotent_sum(Sequence(p, indices))
                == minimal_idempotent_sum_oracle(k, n, indices)), indices


@pytest.mark.parametrize("n", range(1, 8))
def test_minimal_zero_sum_matches_oracle_to_length_n(n):
    for length in range(1, n + 1):
        for residues in combinations_with_replacement(range(n), length):
            assert minimal_zero_sum(n, residues) == minimal_zero_sum_oracle(n, residues), residues
