"""Spans around calls into idemfree's public functions, from outside the package.

install() replaces each traced function, in every loaded idemfree module
that holds a reference to it, by a wrapper that times the call; uninstall()
puts the originals back.  Per layer the tracer keeps calls, busy time and
self time (busy minus the time of traced calls made inside it), plus the
counters the kernels return.  Spans are kept in memory, up to SPAN_LIMIT,
and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

SPAN_LIMIT = 50_000

# (module, attribute, layer); several functions may share one layer.
TARGETS = (
    ("idemfree._kernels", "scan", "kernel.scan"),
    ("idemfree._kernels", "verify_window", "kernel.verify_window"),
    ("idemfree._kernels", "profile", "kernel.profile"),
    ("idemfree.search", "free_smooth_threshold", "search.threshold"),
    ("idemfree.search", "minimal_smooth_threshold", "search.threshold"),
    ("idemfree.search", "index_threshold", "search.threshold"),
    ("idemfree.search", "search_bad_sequences", "search.threshold"),
    ("idemfree.search", "verify_structure", "search.verify"),
    ("idemfree.search", "verify_critical_cases", "search.cases"),
    ("idemfree.search", "matched_cases", "search.matched_cases"),
    ("idemfree.search", "explore_bounds", "search.rows"),
    ("idemfree.search", "sweep", "search.rows"),
    ("idemfree.search", "ResultCache.load", "search.cache.load"),
    ("idemfree.search", "ResultCache.store", "search.cache.store"),
    ("idemfree.classify", "classify", "classify.classify"),
    ("idemfree.classify", "idempotent_sum_witness", "classify.idempotent_sum_witness"),
    ("idemfree.classify", "find_smooth_generator", "classify.find_smooth_generator"),
    ("idemfree.classify", "sequence_index", "classify.sequence_index"),
    ("idemfree.sequences", "parse_index_multiset", "sequences.parse"),
    ("idemfree.sequences", "format_index_multiset", "sequences.format"),
    ("idemfree.cli", "run", "cli.run"),
    ("idemfree.cli", "main", "cli.main"),
)


def _count_scan(tracer, result, seconds):
    tracer.counts["kernel.scan.nodes"] += result["nodes"]
    tracer.counts["kernel.scan.candidates"] += (sum(result["free_count_by_len"])
                                                + sum(result["minimal_count_by_len"]))


def _count_verify(tracer, result, seconds):
    tracer.counts["kernel.verify_window.nodes"] += result["nodes"]
    tracer.counts["kernel.verify_window.certified"] += result["total"]


def _count_load(tracer, result, seconds):
    tracer.counts["search.cache.hits" if result is not None else "search.cache.misses"] += 1
    tracer.samples.setdefault("search.cache.load", []).append(seconds)


def _count_store(tracer, result, seconds):
    tracer.samples.setdefault("search.cache.store", []).append(seconds)


HOOKS = {
    "kernel.scan": _count_scan,
    "kernel.verify_window": _count_verify,
    "search.cache.load": _count_load,
    "search.cache.store": _count_store,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # layer -> [calls, busy_s, self_s]
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = {}
        self.spans: list[tuple] = []          # (job, layer, parent layer, start, end)
        self.dropped = 0
        self.job = 0
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, layer, fn):
        hook = HOOKS.get(layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._close(frame, t0, t1)
            if hook is not None:
                hook(self, result, t1 - t0)
            return result

        return traced

    def _wrap_multisets(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                self.counts["search.cases.multisets"] += count

        return counted

    def _close(self, frame, t0, t1):
        seconds = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += seconds
        st = self.stats.setdefault(frame[0], [0, 0.0, 0.0])
        st[0] += 1
        st[1] += seconds
        st[2] += seconds - frame[1]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((self.job, frame[0], parent[0] if parent else None, t0, t1))
        else:
            self.dropped += 1

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that is loaded; a no-op if installed."""
        if self._patched:
            return
        owners = [m for name, m in sys.modules.items()
                  if m is not None and (name == "idemfree" or name.startswith("idemfree."))]
        targets = [(module, attr, layer, None) for module, attr, layer in TARGETS]
        targets.append(("idemfree.sequences", "enumerate_multisets", None,
                        self._wrap_multisets))
        for module, attr, layer, make in targets:
            home = sys.modules.get(module)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original))
                continue
            original = getattr(home, attr)
            wrapper = make(original) if make else self._wrap(layer, original)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, name, original))
                        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "samples": self.samples,
                "spans": self.spans, "dropped": self.dropped}

    def merge(self, data: dict) -> None:
        """Fold in a dump() taken in another process (the CLI launcher)."""
        for layer, (calls, busy, own) in data["stats"].items():
            st = self.stats.setdefault(layer, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += busy
            st[2] += own
        self.counts.update(data["counts"])
        for key, values in data["samples"].items():
            self.samples.setdefault(key, []).extend(values)
        room = SPAN_LIMIT - len(self.spans)
        spans = [(self.job, *span[1:]) for span in data["spans"]]
        self.spans.extend(spans[:max(room, 0)])
        self.dropped += data["dropped"] + max(len(spans) - room, 0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced job set; 0 where a layer never ran."""
    def stat(layer, i):
        return tracer.stats.get(layer, [0, 0.0, 0.0])[i]

    def median_ms(key):
        values = tracer.samples.get(key)
        return statistics.median(values) * 1000 if values else 0.0

    c = tracer.counts
    out = {
        "kernel.scan.calls": stat("kernel.scan", 0),
        "kernel.scan.busy_s": stat("kernel.scan", 1),
        "kernel.scan.nodes": c["kernel.scan.nodes"],
        "kernel.scan.nodes_per_s": _ratio(c["kernel.scan.nodes"],
                                          stat("kernel.scan", 1)),
        "kernel.scan.candidates_per_node": _ratio(c["kernel.scan.candidates"],
                                                  c["kernel.scan.nodes"]),
        "kernel.verify_window.calls": stat("kernel.verify_window", 0),
        "kernel.verify_window.busy_s": stat("kernel.verify_window", 1),
        "kernel.verify_window.nodes": c["kernel.verify_window.nodes"],
        "kernel.verify_window.nodes_per_s": _ratio(c["kernel.verify_window.nodes"],
                                                   stat("kernel.verify_window", 1)),
        "kernel.verify_window.nodes_per_certified": _ratio(
            c["kernel.verify_window.nodes"],
            c["kernel.verify_window.certified"]),
        "kernel.profile.calls": stat("kernel.profile", 0),
        "kernel.profile.busy_s": stat("kernel.profile", 1),
        "search.threshold.self_s": stat("search.threshold", 2),
        "search.verify.self_s": stat("search.verify", 2),
        "search.cases.self_s": stat("search.cases", 2),
        "search.cases.multisets": c["search.cases.multisets"],
        "search.matched_cases.busy_s": stat("search.matched_cases", 1),
        "search.rows.self_s": stat("search.rows", 2),
        "search.cache.hits": c["search.cache.hits"],
        "search.cache.misses": c["search.cache.misses"],
        "search.cache.load_ms": median_ms("search.cache.load"),
        "search.cache.store_ms": median_ms("search.cache.store"),
        "sequences.parse.busy_s": stat("sequences.parse", 1),
        "sequences.format.busy_s": stat("sequences.format", 1),
        "cli.main.self_ms": _ratio(stat("cli.main", 2), stat("cli.main", 0)) * 1000,
        "cli.run.self_ms": _ratio(stat("cli.run", 2), stat("cli.run", 0)) * 1000,
        "cli.interp_ms": median_ms("cli.interp"),
        "cli.import_ms": median_ms("cli.import"),
    }
    for fn in ("classify", "idempotent_sum_witness", "find_smooth_generator",
               "sequence_index"):
        out[f"classify.{fn}.self_s"] = stat(f"classify.{fn}", 2)
    return out
