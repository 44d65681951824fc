"""Former name of the kernel module; every kernel lives in idemfree._kernels."""

# Kept as a re-export because the benchmark harness (perfbench/run.py) imports it.
from idemfree._kernels import WITNESS_LIMIT, profile, scan, verify_window  # noqa: F401
