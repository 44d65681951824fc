"""Semigroup arithmetic against a defining-relation oracle."""

import pytest
from hypothesis import given, strategies as st

from idemfree import DomainError, Element, SemigroupParams, add_index
from idemfree.semigroup import check_index

from oracles import add_oracle, idempotent_oracle

SMALL_PARAMS = [(k, n) for k in range(1, 9) for n in range(1, 9) if k + n <= 10]


def test_params_basics():
    p = SemigroupParams(5, 3)
    assert p.size == 7
    assert p.threshold == 6
    assert p.idempotent() == Element(6)


def test_known_additions():
    p = SemigroupParams(5, 3)
    assert add_index(p, 4, 2) == 6
    assert add_index(p, 6, 6) == 6
    assert add_index(p, 5, 7) == 6
    assert add_index(p, 3, 3) == 6
    assert add_index(p, 2, 3) == 5
    assert add_index(p, 7, 7) == 5


def test_idempotent_examples():
    assert SemigroupParams(5, 3).idempotent() == Element(6)
    assert SemigroupParams(7, 1).idempotent() == Element(7)
    assert SemigroupParams(1, 6).idempotent() == Element(6)
    assert SemigroupParams(2, 5).idempotent() == Element(5)
    assert SemigroupParams(4, 2).idempotent() == Element(4)


@pytest.mark.parametrize("k,n", SMALL_PARAMS)
def test_addition_matches_oracle(k, n):
    p = SemigroupParams(k, n)
    for i in range(1, p.size + 1):
        for j in range(1, p.size + 1):
            assert add_index(p, i, j) == add_oracle(k, n, i, j)


@pytest.mark.parametrize("k,n", SMALL_PARAMS)
def test_associative_commutative(k, n):
    p = SemigroupParams(k, n)
    rng = range(1, p.size + 1)
    for i in rng:
        for j in rng:
            assert add_index(p, i, j) == add_index(p, j, i)
            for m in rng:
                assert (add_index(p, add_index(p, i, j), m)
                        == add_index(p, i, add_index(p, j, m)))


@pytest.mark.parametrize("k,n", SMALL_PARAMS)
def test_unique_idempotent(k, n):
    p = SemigroupParams(k, n)
    idem = [i for i in range(1, p.size + 1) if add_index(p, i, i) == i]
    assert idem == [p.threshold] == [idempotent_oracle(k, n)]
    assert p.idempotent() == Element(p.threshold)
    assert k <= p.threshold <= p.size
    assert p.threshold % n == 0


@pytest.mark.parametrize("k,n", SMALL_PARAMS)
def test_residue_homomorphism(k, n):
    p = SemigroupParams(k, n)
    for i in range(1, p.size + 1):
        for j in range(1, p.size + 1):
            s = add_index(p, i, j)
            assert s % n == (i + j) % n


@pytest.mark.parametrize("k,n", SMALL_PARAMS)
def test_tail_absorbs(k, n):
    # sums of tail elements stay in the tail [k, k+n-1]
    p = SemigroupParams(k, n)
    for i in range(k, p.size + 1):
        for j in range(1, p.size + 1):
            assert k <= add_index(p, i, j) <= p.size


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12),
       st.data())
def test_addition_matches_oracle_random(k, n, data):
    p = SemigroupParams(k, n)
    i = data.draw(st.integers(min_value=1, max_value=p.size))
    j = data.draw(st.integers(min_value=1, max_value=p.size))
    assert add_index(p, i, j) == add_oracle(k, n, i, j)


def test_domain_errors():
    with pytest.raises(DomainError):
        SemigroupParams(0, 3)
    with pytest.raises(DomainError):
        SemigroupParams(3, 0)
    with pytest.raises(DomainError):
        SemigroupParams(-1, 2)
    p = SemigroupParams(5, 3)
    check_index(p, 1)
    check_index(p, 7)
    for bad in (0, 8, 9):
        with pytest.raises(DomainError):
            check_index(p, bad)
