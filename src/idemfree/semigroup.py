"""Arithmetic of the finite cyclic semigroup generated by one element.

The semigroup with index k >= 1 and period n >= 1 has k+n-1 elements,
identified with their indices 1..k+n-1 (the i-th power of the generator).
Adding indices past the end wraps back into the periodic tail [k, k+n-1]
according to the residue mod n.  Exactly one element is idempotent: the
unique multiple of n in the tail.

Holds the parameter pair, the element type, index validation and the
addition rule on raw indices (add_index).
"""

from __future__ import annotations

from dataclasses import dataclass

from idemfree.errors import DomainError


@dataclass(frozen=True, order=True)
class SemigroupParams:
    """Index/period pair defining one finite cyclic semigroup."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise DomainError(f"index and period must be >= 1, got k={self.k}, n={self.n}")

    @property
    def size(self) -> int:
        return self.k + self.n - 1

    @property
    def threshold(self) -> int:
        """Least multiple of the period that is >= the index.

        This is the index of the unique idempotent, and the least integer t
        such that every index sum >= t congruent to t mod n folds back onto
        the same element.
        """
        return -(-self.k // self.n) * self.n

    def idempotent(self) -> Element:
        return Element(self.threshold)


@dataclass(frozen=True, order=True)
class Element:
    """Semigroup element, identified by its index in [1, k+n-1]."""

    index: int


def check_index(params: SemigroupParams, index: int) -> None:
    if not 1 <= index <= params.size:
        raise DomainError(f"index {index} outside [1, {params.size}] for {params}")


def add_index(params: SemigroupParams, i: int, j: int) -> int:
    """Raw-integer addition rule; i, j must already be valid indices."""
    s = i + j
    if s <= params.size:
        return s
    # wrap into [k, k+n-1], preserving the residue mod n
    return params.k + (s - params.k) % params.n
