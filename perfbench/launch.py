"""Run one idemfree CLI call with its spans recorded (traced cli workload).

Usage, from the repository root:

    python3 perfbench/launch.py SPAN_FILE ARG...

behaves like ``python3 -m idemfree.cli ARG...`` (same stdout, stderr and
exit code) and also writes the tracer's dump, the import time and the time
spent in this process after start-up to SPAN_FILE as JSON.
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import idemfree.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = idemfree.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        data = tracer.dump()
        data["import_s"] = import_s
        data["inproc_s"] = perf_counter() - STARTED
        Path(span_file).write_text(json.dumps(data), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
