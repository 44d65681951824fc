"""Kernel dispatch: compiled extension when it fits, pure Python otherwise.

The compiled kernels pack subset-sum masks into 64-bit words and use
fixed-depth stacks, so they only apply when threshold + universe < 64,
period < 64 and the length cap is at most _MAX_DEPTH.  Set IDEMFREE_PURE=1
to force the pure-Python path.  verify_window's settle mode exists only in
pure Python; without it the window is enumerated exhaustively.
"""

from __future__ import annotations

import os

from idemfree import _pykernels
from idemfree._pykernels import WITNESS_LIMIT

try:
    from idemfree import _ckernels
except ImportError:
    _ckernels = None

_PURE = os.environ.get("IDEMFREE_PURE", "").lower() in {"1", "true", "yes"}

BACKEND = "compiled" if _ckernels is not None and not _PURE else "python"

_MAX_DEPTH = 128

__all__ = ["BACKEND", "WITNESS_LIMIT", "backend_name", "profile", "scan",
           "verify_window"]


def backend_name() -> str:
    """Active kernel backend: "compiled" or "python"."""
    return BACKEND


def _compiled_fits(mask_bits: int, period: int, depth: int) -> bool:
    return (BACKEND == "compiled" and mask_bits < 64 and period < 64
            and depth <= _MAX_DEPTH)


def profile(values, cap, period):
    top = max(values) if values else 0
    if _compiled_fits(cap + top, period, 0):
        return _ckernels.profile(values, cap, period)
    return _pykernels.profile(values, cap, period)


def scan(universe, period, threshold, max_len, first_lo, first_hi,
         free_bad_mode, minimal_bad_mode, node_budget):
    if _compiled_fits(threshold + universe, period, max_len):
        return _ckernels.scan(universe, period, threshold, max_len,
                              first_lo, first_hi,
                              free_bad_mode, minimal_bad_mode, node_budget)
    return _pykernels.scan(universe, period, threshold, max_len,
                           first_lo, first_hi,
                           free_bad_mode, minimal_bad_mode, node_budget)


def verify_window(universe, period, threshold, tail_regime, len_lo, len_hi,
                  first_lo, first_hi, node_budget, settle=False, shapes=()):
    if settle:
        return _pykernels.verify_window(universe, period, threshold, tail_regime,
                                        len_lo, len_hi, first_lo, first_hi,
                                        node_budget, settle, shapes)
    if _compiled_fits(threshold + universe, period, len_hi):
        return _ckernels.verify_window(universe, period, threshold, tail_regime,
                                       len_lo, len_hi, first_lo, first_hi,
                                       node_budget)
    return _pykernels.verify_window(universe, period, threshold, tail_regime,
                                    len_lo, len_hi, first_lo, first_hi,
                                    node_budget)
