"""Sequences (finite multisets) over a fixed semigroup.

Provides the multiset container with its text format, the semigroup sum
and canonical multiset enumeration.  Subset-sum profiles live in
idemfree._kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from idemfree.errors import DomainError, ParseError
from idemfree.semigroup import Element, SemigroupParams, add_index, check_index


def parse_index_multiset(text: str) -> tuple[int, ...]:
    """Parse "1^3,5^2" or "2,4" style text into a sorted index tuple."""
    text = text.strip()
    if not text:
        return ()
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        base, sep, rep = token.partition("^")
        try:
            value = int(base)
            count = int(rep) if sep else 1
        except ValueError:
            raise ParseError(f"bad sequence token {token!r}: expected INDEX or INDEX^COUNT")
        if value < 1:
            raise ParseError(f"bad sequence token {token!r}: index must be >= 1")
        if count < 1:
            raise ParseError(f"bad sequence token {token!r}: count must be >= 1")
        values.extend([value] * count)
    return tuple(sorted(values))


def format_index_multiset(values) -> str:
    """Canonical text: ascending runs, exponents only for repeats."""
    ordered = sorted(values)
    parts = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j] == ordered[i]:
            j += 1
        run = j - i
        parts.append(f"{ordered[i]}^{run}" if run > 1 else str(ordered[i]))
        i = j
    return ",".join(parts)


@dataclass(frozen=True)
class Sequence:
    """Multiset of semigroup elements, stored as a nondecreasing index tuple."""

    params: SemigroupParams
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.indices))
        for v in ordered:
            check_index(self.params, v)
        object.__setattr__(self, "indices", ordered)

    @classmethod
    def from_indices(cls, params: SemigroupParams, values) -> Sequence:
        return cls(params, tuple(values))

    @classmethod
    def parse(cls, params: SemigroupParams, text: str) -> Sequence:
        return cls(params, parse_index_multiset(text))

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def total(self) -> int:
        return sum(self.indices)

    def residues(self) -> tuple[int, ...]:
        n = self.params.n
        return tuple(v % n for v in self.indices)


def semigroup_sum(seq: Sequence) -> Element:
    """Fold the semigroup addition over the sequence (nonempty)."""
    if not seq.indices:
        raise DomainError("the empty sequence has no semigroup sum")
    params = seq.params
    acc = seq.indices[0]
    for v in seq.indices[1:]:
        acc = add_index(params, acc, v)
    return Element(acc)


def enumerate_multisets(universe_max: int, length: int, smallest: int | None = None):
    """Yield nondecreasing index tuples over [1, universe_max] in canonical order.

    With smallest set, restrict to multisets whose minimum element equals it.
    """
    if universe_max < 1:
        raise DomainError(f"universe_max must be >= 1, got {universe_max}")
    if length < 0:
        raise DomainError(f"length must be >= 0, got {length}")
    if smallest is None:
        yield from combinations_with_replacement(range(1, universe_max + 1), length)
    else:
        if not 1 <= smallest <= universe_max:
            raise DomainError(f"smallest {smallest} outside [1, {universe_max}]")
        if length == 0:
            return
        for rest in combinations_with_replacement(range(smallest, universe_max + 1), length - 1):
            yield (smallest,) + rest
