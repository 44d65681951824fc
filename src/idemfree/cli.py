"""Command line interface.

Subcommands:
  classify   full report on one sequence
  verify     exhaustive structure/case verification (exit 1 on counterexample)
  invariant  threshold invariants: free-smooth, minimal-smooth, index
  search     longest bad sequences for one parameter pair, with witnesses
  explore    computed thresholds vs proven bounds for index-dominant pairs
  sweep      threshold table over a parameter grid (CSV by default)

Exit codes: 0 success, 1 counterexample or bound violation, 2 invalid
input, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

from idemfree.classify import classify
from idemfree.errors import BudgetError, DomainError
from idemfree.semigroup import SemigroupParams
from idemfree.sequences import Sequence
from idemfree.search import (
    DEFAULT_NODE_BUDGET,
    ROW_COLUMNS,
    SWEEP_COLUMNS,
    explore_bounds,
    free_smooth_threshold,
    index_threshold,
    minimal_smooth_threshold,
    search_bad_sequences,
    sweep,
    verify_critical_cases,
    verify_structure,
)

CACHE_DIR_ENV = "IDEMFREE_CACHE_DIR"

EXPLORE_COLUMNS = ROW_COLUMNS + ("within_bounds",)


@dataclass
class RunConfig:
    command: str
    k: int | None = None
    n: int | None = None
    sequence: str | None = None
    which: str | None = None
    kind: str | None = None
    what: str = "structure"
    max_length: int | None = None
    cap: int | None = None
    pairs: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    output_format: str = "json"
    cache_dir: str | None = None
    node_budget: int = DEFAULT_NODE_BUDGET


def _pair(token: str) -> tuple[int, int]:
    left, sep, right = token.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected K:N, got {token!r}")
    try:
        return int(left), int(right)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in K:N, got {token!r}")


def _pair_list(text: str) -> tuple[tuple[int, int], ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_pair(tok.strip()) for tok in text.split(","))


def _int_range(text: str) -> tuple[int, int]:
    lo, hi = _pair(text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemfree",
        description="Idempotent-sum free sequences over finite cyclic semigroups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats=("json", "text"), default="json"):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility and ignored: every search runs "
                            "in this process")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                       help="refuse enumerations that reach more than this many multisets "
                            "(visited, or settled as leaves)")

    p = sub.add_parser("classify", help="classify a single sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seq", required=True, help='e.g. "2,4" or "1^3,5^2"')
    common(p)

    p = sub.add_parser("verify", help="exhaustively verify the structure results")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=("structure", "cases"), default="structure")
    p.add_argument("--max-length", type=int, default=None)
    common(p)

    p = sub.add_parser("invariant", help="compute a threshold invariant")
    p.add_argument("--which", choices=("free-smooth", "minimal-smooth", "index"),
                   required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    common(p)

    p = sub.add_parser("search", help="list the longest bad sequences")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("free", "minimal"), required=True)
    p.add_argument("--cap", type=int, default=None)
    common(p)

    p = sub.add_parser("explore", help="computed thresholds vs proven bounds")
    p.add_argument("--pairs", type=_pair_list, required=True,
                   help='comma-separated K:N pairs, e.g. "4:3,7:5"')
    p.add_argument("--cap", type=int, default=None)
    common(p, formats=("json", "csv", "text"))

    p = sub.add_parser("sweep", help="threshold table over a parameter grid")
    p.add_argument("--pairs", type=_pair_list, default=None)
    p.add_argument("--k-range", type=_int_range, default=None, metavar="LO:HI")
    p.add_argument("--n-range", type=_int_range, default=None, metavar="LO:HI")
    p.add_argument("--cap", type=int, default=None)
    common(p, formats=("csv", "json", "text"), default="csv")
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    if ns.budget < 0:
        raise DomainError(f"--budget must be >= 0, got {ns.budget}")
    pairs: tuple[tuple[int, int], ...] = ()
    if getattr(ns, "pairs", None) is not None:
        pairs = tuple(ns.pairs)
    if ns.command == "sweep":
        if ns.pairs is None and (ns.k_range is None or ns.n_range is None):
            raise DomainError("sweep needs --pairs or both --k-range and --n-range")
        if ns.pairs is not None and (ns.k_range is not None or ns.n_range is not None):
            raise DomainError("sweep takes either --pairs or ranges, not both")
        if ns.pairs is None:
            pairs = tuple((k, n)
                          for k in range(ns.k_range[0], ns.k_range[1] + 1)
                          for n in range(ns.n_range[0], ns.n_range[1] + 1))
    return RunConfig(
        command=ns.command,
        k=getattr(ns, "k", None),
        n=getattr(ns, "n", None),
        sequence=getattr(ns, "seq", None),
        which=getattr(ns, "which", None),
        kind=getattr(ns, "kind", None),
        what=getattr(ns, "what", "structure"),
        max_length=getattr(ns, "max_length", None),
        cap=getattr(ns, "cap", None),
        pairs=pairs,
        output_format=ns.format,
        cache_dir=ns.cache_dir,
        node_budget=ns.budget,
    )


def _render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_text(payload) -> str:
    lines = [f"{key}: {json.dumps(payload[key], sort_keys=True)}"
             for key in sorted(payload)]
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_rows(rows: list[dict], columns, fmt: str) -> str:
    if fmt == "json":
        return _render_json(rows)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
        return out.getvalue()
    lines = ["\t".join(columns)]
    lines.extend("\t".join(_csv_cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered output)."""
    cache = config.cache_dir or os.environ.get(CACHE_DIR_ENV) or None
    fmt = config.output_format

    if config.command == "classify":
        params = SemigroupParams(config.k, config.n)
        report = classify(Sequence.parse(params, config.sequence))
        payload = report.to_json_dict()
        return 0, _render_json(payload) if fmt == "json" else _render_text(payload)

    if config.command == "verify":
        params = SemigroupParams(config.k, config.n)
        if config.what == "structure":
            report = verify_structure(params, config.max_length,
                                      node_budget=config.node_budget, cache=cache)
        else:
            report = verify_critical_cases(params, node_budget=config.node_budget,
                                           cache=cache)
        payload = report.to_json_dict()
        code = 0 if report.passed() else 1
        return code, _render_json(payload) if fmt == "json" else _render_text(payload)

    if config.command == "invariant":
        if config.which == "index":
            result = index_threshold(config.n, config.cap,
                                     node_budget=config.node_budget, cache=cache)
        else:
            if config.k is None:
                raise DomainError(f"--which {config.which} requires --k")
            params = SemigroupParams(config.k, config.n)
            fn = (free_smooth_threshold if config.which == "free-smooth"
                  else minimal_smooth_threshold)
            result = fn(params, config.cap, node_budget=config.node_budget, cache=cache)
        payload = result.to_json_dict()
        return 0, _render_json(payload) if fmt == "json" else _render_text(payload)

    if config.command == "search":
        params = SemigroupParams(config.k, config.n)
        result = search_bad_sequences(params, config.kind, config.cap,
                                      node_budget=config.node_budget, cache=cache)
        payload = result.to_json_dict()
        return 0, _render_json(payload) if fmt == "json" else _render_text(payload)

    if config.command == "explore":
        rows = explore_bounds(config.pairs, config.cap,
                              node_budget=config.node_budget, cache=cache)
        code = 0 if all(row["within_bounds"] for row in rows) else 1
        return code, _render_rows(rows, EXPLORE_COLUMNS, fmt)

    if config.command == "sweep":
        rows = sweep(config.pairs, config.cap, node_budget=config.node_budget, cache=cache)
        return 0, _render_rows(rows, SWEEP_COLUMNS, fmt)

    raise DomainError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = config_from_args(ns)
        code, output = run(config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
