"""Per-sequence classification.

Idempotent-sum predicates on semigroup sequences, smoothness tests (plain
1-smoothness of the index multiset, generator-scaled smoothness of the
residue multiset), the rational sequence index, and an aggregate report.

Each public function here checks its outside input and calls
idemfree._kernels, which owns the predicates the enumeration shares: the
subset-sum step, the generator table, the 1-smooth ladder test and the
minimality rule.  The group-side predicates run on the lift of residues
into C_{1;n}, where zero-sum means idempotent-sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from idemfree import _kernels
from idemfree.errors import DomainError
from idemfree.semigroup import SemigroupParams
from idemfree.sequences import Sequence, format_index_multiset, semigroup_sum

NOT_SMOOTH = "not-smooth"
SMOOTH = "smooth"
ZERO_SUM_SMOOTH = "zero-sum-smooth"


def is_idempotent_sum(seq: Sequence) -> bool:
    """Whether the semigroup sum of the whole sequence is the idempotent.

    Equivalent arithmetic test: the index total reaches the threshold and
    is a multiple of the period.
    """
    if not seq.indices:
        raise DomainError("the empty sequence has no semigroup sum")
    params = seq.params
    return seq.total >= params.threshold and seq.total % params.n == 0


def is_idempotent_sum_free(seq: Sequence) -> bool:
    """True iff no nonempty subsequence sums to the idempotent."""
    params = seq.params
    _, high = _kernels.profile(seq.indices, params.threshold, params.n)
    return not high & 1


def idempotent_sum_witness(seq: Sequence) -> Sequence | None:
    """An idempotent-sum subsequence, or None when the sequence is free.

    Reconstructed by walking the subset-sum profile backwards through the
    terms, from the shortest prefix that is not free: the walk skips every
    later term, so their profiles are not computed.
    """
    params = seq.params
    cap, n = params.threshold, params.n
    values = seq.indices
    profiles = [(0, 0)]
    for v in values:
        exact, high = _kernels.profile_step(*profiles[-1], v, cap, n)
        profiles.append((exact, high))
        if high & 1:
            break
    else:
        return None
    taken: list[int] = []
    on_high, state = True, 0
    for i in range(len(profiles) - 1, 0, -1):
        pe, ph = profiles[i - 1]
        v = values[i - 1]
        if on_high:
            if ph >> state & 1:
                continue
            taken.append(v)
            if v >= cap and v % n == state:
                break
            prev_r = (state - v) % n
            if ph >> prev_r & 1:
                state = prev_r
                continue
            for x in range(max(1, cap - v), cap):
                if pe >> x & 1 and (x + v) % n == state:
                    on_high, state = False, x
                    break
            else:
                raise AssertionError("unreachable subset-sum state")
        else:
            if pe >> state & 1:
                continue
            taken.append(v)
            if state == v:
                break
            state -= v
    return Sequence(params, tuple(taken))


def is_minimal_idempotent_sum(seq: Sequence) -> bool:
    """Idempotent-sum with every single-term removal left free."""
    params = seq.params
    return is_idempotent_sum(seq) and _kernels.is_minimal(seq.indices, params.threshold, params.n)


def is_one_smooth(values) -> bool:
    """Whether the subset sums of a positive multiset cover [1, total].

    Equivalent sorted-prefix test: the least value is 1 and each value is
    at most one more than the sum of the smaller ones.
    """
    ordered = sorted(values)
    if not ordered:
        raise DomainError("1-smoothness is defined for nonempty multisets")
    if ordered[0] < 1:
        raise DomainError("1-smoothness is defined for positive integers")
    return _kernels.is_one_smooth_sorted(ordered)


def _generator_rows(period: int):
    """The kernel's generator table over the residues mod period."""
    if period < 2:
        raise DomainError(f"residue group of period {period} has no generators")
    return _kernels.generator_rows(period, period - 1)


def _decompositions(period: int, residues) -> dict[int, tuple[int, ...]]:
    """Each generator g, least first, to the sorted multipliers of the residues by g."""
    rows = _generator_rows(period)
    residues = tuple(residues)
    for r in residues:
        if not 0 <= r < period:
            raise DomainError(f"residue {r} outside [0, {period})")
    return {g: tuple(sorted(row[r] for r in residues)) for g, row in rows}


def _kind(period: int, parts: tuple[int, ...]) -> str:
    if not parts:
        raise DomainError("smoothness is defined for nonempty multisets")
    total = sum(parts)
    if total > period or not _kernels.is_one_smooth_sorted(parts):
        return NOT_SMOOTH
    return ZERO_SUM_SMOOTH if total == period else SMOOTH


def generators(period: int) -> tuple[int, ...]:
    return tuple(g for g, _ in _generator_rows(period))


def decompose(period: int, residues, g: int) -> tuple[int, ...]:
    """Multipliers n_i in [1, period] with n_i * g = r mod period, sorted."""
    if g not in generators(period):
        raise DomainError(f"{g} does not generate the residue group of period {period}")
    return _decompositions(period, residues)[g]


def smooth_kind(period: int, residues, g: int) -> str:
    """Classify the residue multiset against one generator's scaled ladder.

    "smooth" means the multipliers form a 1-smooth multiset with total
    below the period, "zero-sum-smooth" means total exactly the period.
    """
    return _kind(period, decompose(period, residues, g))


def find_smooth_generator(period: int, residues) -> tuple[int, str] | None:
    """Least generator whose scaled ladder fits, with the kind, else None."""
    for g, parts in _decompositions(period, residues).items():
        kind = _kind(period, parts)
        if kind != NOT_SMOOTH:
            return g, kind
    return None


def sequence_norm(period: int, residues, g: int) -> Fraction:
    """Total of the generator-scaled multipliers, in units of the period."""
    return Fraction(sum(decompose(period, residues, g)), period)


def sequence_index(period: int, residues) -> Fraction:
    """Least norm over all generators of the residue group."""
    return Fraction(min(map(sum, _decompositions(period, residues).values())), period)


def _lift(period: int, residues) -> tuple[int, ...]:
    """The residues as indices of C_{1;period}, 0 lifted to period, sorted."""
    if period < 1:
        raise DomainError(f"period must be >= 1, got {period}")
    return tuple(sorted(r % period or period for r in residues))


def zero_sum_free(period: int, residues) -> bool:
    """No nonempty subsequence of residues sums to 0 mod the period."""
    _, high = _kernels.profile(_lift(period, residues), period, period)
    return not high & 1


def minimal_zero_sum(period: int, residues) -> bool:
    """Residues sum to 0 mod the period, all single-removals zero-sum free."""
    residues = tuple(residues)
    if not residues:
        raise DomainError("the empty sequence is not a zero-sum candidate")
    return _kernels.is_minimal(_lift(period, residues), period, period)


def structure_condition(seq: Sequence) -> bool:
    """Smooth-structure side of the freeness biconditional for long sequences.

    Index-dominant semigroups compare the index multiset (1-smooth, total
    below the threshold); otherwise some generator must make the residues
    strictly smooth.  The period-1 group has no generator, so the latter is
    vacuously false.
    """
    params = seq.params
    if not seq.indices:
        raise DomainError("the structure condition is defined for nonempty sequences")
    if params.k > params.n:
        return is_one_smooth(seq.indices) and seq.total <= params.threshold - 1
    return _kernels.smooth_for_some_generator(_kernels.generator_rows(params.n, params.n - 1),
                                              seq.residues(), params.n, zero_sum=False)


@dataclass(frozen=True)
class ClassificationReport:
    params: SemigroupParams
    indices: tuple[int, ...]
    sum_element: int
    is_idempotent_sum: bool
    is_idempotent_sum_free: bool
    idempotent_sum_witness: tuple[int, ...] | None
    is_minimal_idempotent_sum: bool
    one_smooth: bool
    structure_smooth: bool
    smooth_generator: int | None
    smooth_kind: str | None
    sequence_index: Fraction | None
    residue_zero_sum_free: bool | None
    residue_minimal_zero_sum: bool | None

    @property
    def regime(self) -> str:
        return "k>n" if self.params.k > self.params.n else "k<=n"

    def to_json_dict(self) -> dict:
        witness = self.idempotent_sum_witness
        return {
            "k": self.params.k,
            "n": self.params.n,
            "sequence": format_index_multiset(self.indices),
            "length": len(self.indices),
            "total": sum(self.indices),
            "sum_element": self.sum_element,
            "regime": self.regime,
            "is_idempotent_sum": self.is_idempotent_sum,
            "is_idempotent_sum_free": self.is_idempotent_sum_free,
            "idempotent_sum_witness": None if witness is None else format_index_multiset(witness),
            "is_minimal_idempotent_sum": self.is_minimal_idempotent_sum,
            "one_smooth": self.one_smooth,
            "structure_smooth": self.structure_smooth,
            "smooth_generator": self.smooth_generator,
            "smooth_kind": self.smooth_kind,
            "sequence_index": None if self.sequence_index is None else str(self.sequence_index),
            "residue_zero_sum_free": self.residue_zero_sum_free,
            "residue_minimal_zero_sum": self.residue_minimal_zero_sum,
        }


def classify(seq: Sequence) -> ClassificationReport:
    """Full report for one nonempty sequence."""
    if not seq.indices:
        raise DomainError("classification requires a nonempty sequence")
    params = seq.params
    witness = idempotent_sum_witness(seq)
    residues = seq.residues()
    if params.n >= 2:
        found = find_smooth_generator(params.n, residues)
        smooth_g, kind = found if found else (None, None)
        index = sequence_index(params.n, residues)
    else:
        smooth_g, kind, index = None, None, None
    if params.k <= params.n:
        rz_free = zero_sum_free(params.n, residues)
        rz_minimal = minimal_zero_sum(params.n, residues)
    else:
        rz_free = rz_minimal = None
    return ClassificationReport(
        params=params,
        indices=seq.indices,
        sum_element=semigroup_sum(seq).index,
        is_idempotent_sum=is_idempotent_sum(seq),
        is_idempotent_sum_free=witness is None,
        idempotent_sum_witness=None if witness is None else witness.indices,
        is_minimal_idempotent_sum=is_minimal_idempotent_sum(seq),
        one_smooth=is_one_smooth(seq.indices),
        structure_smooth=structure_condition(seq),
        smooth_generator=smooth_g,
        smooth_kind=kind,
        sequence_index=index,
        residue_zero_sum_free=rz_free,
        residue_minimal_zero_sum=rz_minimal,
    )
