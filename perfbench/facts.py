"""Facts the benchmark checks payloads against, derived without idemfree.

Threshold values and bounds are the closed forms proven in the paper (and
asserted by the acceptance gate); window sizes are binomial counts;
freeness of a single sequence is decided by a plain set-based subset-sum
closure.  None of this calls the program under test, so a wrong answer
cannot agree with itself.
"""

from __future__ import annotations

from collections import Counter
from math import comb


def threshold(k: int, n: int) -> int:
    """Index of the idempotent of C_{k;n}: least multiple of n that is >= k."""
    return -(-k // n) * n


def proven_thresholds(k: int, n: int) -> dict[str, tuple[int, int]]:
    """Proven (lo, hi) for the free-smooth and minimal-smooth thresholds.

    lo == hi is an exact value; only index-dominant pairs with period >= 3
    and even threshold leave an interval open.
    """
    t = threshold(k, n)
    q = t // n
    if k <= n:
        if n == 1:
            free, minimal = 0, 1
        elif n in (2, 3, 4):
            free, minimal = n // 2, n // 2 + 1
        elif n == 5:
            free, minimal = 1, 3
        elif n == 7:
            free, minimal = 3, 4
        else:
            free, minimal = n // 2 + 1, n // 2 + 2
        return {"free-smooth": (free, free), "minimal-smooth": (minimal, minimal)}
    if n >= 3 and t % 2 == 0:
        return {"free-smooth": (t // 2 + 1, ((q + 1) * n + 1) // 2 - 1),
                "minimal-smooth": (t // 2 + 1, ((q + 1) * n + 1) // 2)}
    if n == 2:
        return {"free-smooth": (q + 1, q + 1), "minimal-smooth": (q + 1, q + 1)}
    v = (q + 1) * n // 2
    return {"free-smooth": (v, v), "minimal-smooth": (v + 1, v + 1)}


def index_threshold_value(n: int) -> int:
    """Index threshold of Z/nZ: 1 for n in {1,2,3,4,5,7}, else n//2 + 2."""
    return 1 if n in (1, 2, 3, 4, 5, 7) else n // 2 + 2


def structure_bound(k: int, n: int) -> int:
    if k > n:
        return (threshold(k, n) // n + 1) * n // 2
    return n // 2 + 1


def critical_length(k: int, n: int) -> int:
    return ((threshold(k, n) // n + 1) * n + 1) // 2 - 1


def max_free_length(k: int, n: int) -> int:
    return threshold(k, n) + n - 2


def window_total(size: int, lo: int, hi: int) -> int:
    """Number of multisets over [1, size] with length in [lo, hi]."""
    return sum(comb(size + length - 1, length) for length in range(lo, hi + 1))


def is_free(k: int, n: int, indices) -> bool:
    """No nonempty submultiset sums to the idempotent.

    Integer sums >= t are folded to t + (s - t) mod n, which keeps both
    "reaches t" and the residue, so the reachable set stays below t + n.
    """
    t = threshold(k, n)
    sums: set[int] = set()
    for v in indices:
        step = {v} | {s + v for s in sums}
        sums |= {s if s < t else t + (s - t) % n for s in step}
        if t in sums:
            return False
    return True


def one_smooth(indices) -> bool:
    reach = 0
    for v in sorted(indices):
        if v > reach + 1:
            return False
        reach += v
    return True


def parse_multiset(text: str) -> list[int]:
    """Expand "1^3,5^2" into a sorted list of indices."""
    values: list[int] = []
    for token in text.split(","):
        base, _, rep = token.partition("^")
        values.extend([int(base)] * int(rep or 1))
    return sorted(values)


def format_multiset(indices) -> str:
    return ",".join(f"{v}^{run}" if run > 1 else str(v)
                    for v, run in sorted(Counter(indices).items()))


def check_invariant(payload: dict, which: str, k: int, n: int) -> str | None:
    """Error text when a threshold payload disagrees with the proven values."""
    t = threshold(k, n)
    if which == "index":
        want_k, cap = 1, 2 * n
        lo = hi = index_threshold_value(n)
    else:
        want_k = k
        lo, hi = proven_thresholds(k, n)[which]
        cap = t + n - 1 if which == "free-smooth" else t + n
    if (payload["which"], payload["k"], payload["n"]) != (which, want_k, n):
        return f"payload names {payload['which']} k={payload['k']} n={payload['n']}"
    if payload["frontier_hit"]:
        return "frontier_hit is true: the value is not certified"
    if payload["search_cap"] != cap:
        return f"search_cap {payload['search_cap']} != {cap}"
    if not lo <= payload["value"] <= hi:
        return f"value {payload['value']} outside proven [{lo}, {hi}]"
    return None


def check_verify(payload: dict, what: str, k: int, n: int,
                 max_length: int | None) -> str | None:
    """Error text when a verification payload is not a clean full window."""
    size = k + n - 1
    if what == "structure":
        check, lo = "structure", structure_bound(k, n)
        hi = lo + 3 if max_length is None else max_length
    else:
        check, lo = "critical-cases", critical_length(k, n)
        hi = max(lo, max_free_length(k, n))
    got = (payload["check"], payload["k"], payload["n"],
           payload["min_length"], payload["max_length"])
    if got != (check, k, n, lo, hi):
        return f"window {got} != {(check, k, n, lo, hi)}"
    if payload["counterexamples"]:
        return f"counterexamples reported: {payload['counterexamples'][:3]}"
    total = window_total(size, lo, hi)
    if payload["total_sequences"] != total:
        return f"total_sequences {payload['total_sequences']} != {total}"
    return None


def check_classification(payload: dict, k: int, n: int, indices: list[int]) -> str | None:
    """Error text when a classify payload contradicts the oracle."""
    t = threshold(k, n)
    total = sum(indices)
    free = is_free(k, n, indices)
    expect = {
        "k": k, "n": n,
        "sequence": format_multiset(indices),
        "length": len(indices),
        "total": total,
        "is_idempotent_sum": total >= t and total % n == 0,
        "is_idempotent_sum_free": free,
        "one_smooth": one_smooth(indices),
        "regime": "k>n" if k > n else "k<=n",
    }
    for key, want in expect.items():
        if payload[key] != want:
            return f"{key} = {payload[key]!r}, expected {want!r}"
    if len(indices) > max_free_length(k, n) and free:
        return "a sequence longer than t+n-2 was called free"
    witness = payload["idempotent_sum_witness"]
    if (witness is None) != free:
        return "witness presence disagrees with freeness"
    if witness is not None:
        part = parse_multiset(witness)
        rest = list(indices)
        for v in part:
            if v not in rest:
                return f"witness {witness} is not a submultiset"
            rest.remove(v)
        s = sum(part)
        if not (s >= t and s % n == 0):
            return f"witness {witness} does not sum to the idempotent"
    return None
