"""Sequences (finite multisets) over a fixed semigroup.

Provides the multiset container with its text format, the semigroup sum,
a brute-force subsequence-sum oracle, capped subset-sum profiles, and
canonical multiset enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb

from idemfree import _kernels
from idemfree.errors import DomainError, ParseError
from idemfree.semigroup import Element, SemigroupParams, add_index, check_index

ORACLE_CAP = 20


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

    def counts(self) -> dict[int, int]:
        table: dict[int, int] = {}
        for v in self.indices:
            table[v] = table.get(v, 0) + 1
        return table

    def residues(self) -> tuple[int, ...]:
        n = self.params.n
        return tuple(v % n for v in self.indices)

    def without_one(self, value: int) -> Sequence:
        """Remove one copy of the given index."""
        rest = list(self.indices)
        try:
            rest.remove(value)
        except ValueError:
            raise DomainError(f"index {value} not present in {self.text()!r}")
        return Sequence(self.params, tuple(rest))

    def text(self) -> str:
        return format_index_multiset(self.indices)


@dataclass(frozen=True)
class SumProfile:
    """Capped view of the achievable nonempty subsequence index-sums.

    exact_sums holds every achievable sum below the cap; high_residues[r]
    says whether some achievable sum >= cap is congruent to r mod the
    period.  Together these answer every query "is there a subsequence
    sum >= bound with residue r" for bound <= cap.
    """

    cap: int
    period: int
    exact_sums: frozenset[int]
    high_residues: tuple[bool, ...]

    def has_sum_at_least(self, bound: int, residue: int) -> bool:
        if not 1 <= bound <= self.cap:
            raise DomainError(f"bound {bound} outside [1, {self.cap}]")
        if not 0 <= residue < self.period:
            raise DomainError(f"residue {residue} outside [0, {self.period})")
        if self.high_residues[residue]:
            return True
        return any(s >= bound and s % self.period == residue for s in self.exact_sums)


def semigroup_sum(seq: Sequence) -> Element:
    """Fold the semigroup addition over the sequence (nonempty)."""
    if not seq.indices:
        raise DomainError("the empty sequence has no semigroup sum")
    params = seq.params
    acc = seq.indices[0]
    for v in seq.indices[1:]:
        acc = add_index(params, acc, v)
    return Element(acc)


def sumset_bruteforce(seq: Sequence, oracle_cap: int = ORACLE_CAP) -> frozenset[Element]:
    """All semigroup sums of nonempty subsequences, by explicit enumeration.

    Deliberately naive (reference oracle); refuses sequences longer than
    oracle_cap.
    """
    if seq.length > oracle_cap:
        raise DomainError(f"oracle refuses length {seq.length} > cap {oracle_cap}")
    params = seq.params
    table = sorted(seq.counts().items())
    sums: set[int] = set()
    for picks in product(*(range(c + 1) for _, c in table)):
        chosen: list[int] = []
        for (value, _), take in zip(table, picks):
            chosen.extend([value] * take)
        if not chosen:
            continue
        acc = chosen[0]
        for v in chosen[1:]:
            acc = add_index(params, acc, v)
        sums.add(acc)
    return frozenset(Element(s) for s in sums)


def sum_profile(seq: Sequence, cap: int | None = None) -> SumProfile:
    """Subset-sum profile of the sequence, capped at cap (default threshold+period)."""
    params = seq.params
    if cap is None:
        cap = params.threshold + params.n
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    exact_mask, high_mask = _kernels.profile(seq.indices, cap, params.n)
    exact = frozenset(s for s in range(1, cap) if exact_mask >> s & 1)
    high = tuple(bool(high_mask >> r & 1) for r in range(params.n))
    return SumProfile(cap=cap, period=params.n, exact_sums=exact, high_residues=high)


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


def multiset_count(universe_max: int, length: int) -> int:
    """Number of multisets enumerate_multisets yields for these arguments."""
    if universe_max < 1 or length < 0:
        raise DomainError(f"invalid arguments universe_max={universe_max}, length={length}")
    return comb(universe_max + length - 1, length)
