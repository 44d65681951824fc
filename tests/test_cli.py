"""Command line surface: parsing, rendering, exit codes, caching."""

import csv
import io
import json
import os
import shutil
import subprocess
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from idemfree.cli import CACHE_DIR_ENV, EXPLORE_COLUMNS, main
from idemfree.search import SWEEP_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_classify_json(capsys):
    code, out, err = run_cli(capsys, "classify", "--k", "2", "--n", "5",
                             "--seq", "1,4")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["is_idempotent_sum"] is True
    assert payload["is_minimal_idempotent_sum"] is True
    assert payload["is_idempotent_sum_free"] is False
    assert payload["sum_element"] == 5
    assert payload["sequence"] == "1,4"
    assert payload["regime"] == "k<=n"


def test_classify_normalizes_sequence(capsys):
    code, out, _ = run_cli(capsys, "classify", "--k", "7", "--n", "1",
                           "--seq", "4,1,1")
    assert code == 0
    assert json.loads(out)["sequence"] == "1^2,4"


def test_classify_text_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "--k", "2", "--n", "5",
                           "--seq", "1,4", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "is_minimal_idempotent_sum: true" in lines
    assert "sum_element: 5" in lines
    assert lines == sorted(lines)


def test_invariant_index(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--which", "index", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["which"] == "index"
    assert payload["k"] == 1
    assert payload["value"] == 5
    assert payload["witnesses"] == ["1,3,4^2", "2^2,3,5"]
    assert payload["witness_total"] == 2


def test_invariant_free_smooth(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--which", "free-smooth",
                           "--k", "7", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4
    assert payload["frontier_hit"] is False


def test_invariant_requires_k(capsys):
    code, out, err = run_cli(capsys, "invariant", "--which", "free-smooth",
                             "--n", "5")
    assert code == 2
    assert out == "" and "requires --k" in err


def test_verify_structure_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "7", "--n", "1",
                           "--max-length", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "structure"
    assert payload["counterexamples"] == []
    assert payload["min_length"] == 4
    assert payload["max_length"] == 6
    assert payload["total_sequences"] > 0


@pytest.mark.parametrize("k,n,bound", [(7, 3, 6), (4, 4, 3)])
def test_verify_cost_does_not_grow_with_max_length(capsys, k, n, bound):
    # every multiset longer than the free ones is counted in closed form, so
    # a window to length 10**20 costs what a short one does, in both regimes
    hi = 10**20
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--k", str(k), "--n", str(n),
                           "--max-length", str(hi))
    assert time.perf_counter() - start < 5
    assert code == 0
    payload = json.loads(out)
    assert payload["counterexamples"] == []
    # sum of C(u-1+L, L) over L in [bound, hi], by the hockey-stick identity
    u = k + n - 1
    assert payload["total_sequences"] == comb(u + hi, hi) - comb(u + bound - 1, bound - 1)


def test_verify_cases_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "5", "--n", "2",
                           "--what", "cases")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "critical-cases"
    assert payload["counterexamples"] == []
    assert payload["case_tallies"]["odd_head_twos_period2"] == 2


def test_search_free(capsys):
    code, out, _ = run_cli(capsys, "search", "--k", "7", "--n", "1",
                           "--kind", "free")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4
    assert payload["witness_total"] >= 1
    assert all(len(w.split(",")) >= 1 for w in payload["witnesses"])


def test_explore_csv(capsys):
    code, out, _ = run_cli(capsys, "explore", "--pairs", "4:3,5:4",
                           "--format", "csv")
    assert code == 0
    header, rows = read_csv(out)
    assert tuple(header) == EXPLORE_COLUMNS
    assert [r[0] for r in rows] == ["4", "5"]
    within = header.index("within_bounds")
    assert all(r[within] == "true" for r in rows)


def test_sweep_diagonal_table(capsys):
    pairs = ",".join(f"{n}:{n}" for n in range(1, 7))
    code, out, _ = run_cli(capsys, "sweep", "--pairs", pairs)
    assert code == 0
    header, rows = read_csv(out)
    assert tuple(header) == SWEEP_COLUMNS
    table = [(r[header.index("free_smooth")], r[header.index("minimal_smooth")])
             for r in rows]
    assert table == [("0", "1"), ("1", "2"), ("1", "2"),
                     ("2", "3"), ("1", "3"), ("4", "5")]
    assert all(r[header.index("status")] == "ok" for r in rows)


def test_sweep_ranges_tail_regime(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--k-range", "2:7",
                           "--n-range", "1:1")
    assert code == 0
    header, rows = read_csv(out)
    free = [int(r[header.index("free_smooth")]) for r in rows]
    minimal = [int(r[header.index("minimal_smooth")]) for r in rows]
    assert free == [(k + 1) // 2 for k in range(2, 8)]
    assert minimal == [f + 1 for f in free]


def test_sweep_grid_exclusivity(capsys):
    code, _, err = run_cli(capsys, "sweep", "--pairs", "2:2",
                           "--k-range", "1:2", "--n-range", "1:2")
    assert code == 2 and "not both" in err
    code, _, err = run_cli(capsys, "sweep")
    assert code == 2 and "--pairs" in err


def test_sweep_empty_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--pairs", "")
    assert code == 0
    assert out == ",".join(SWEEP_COLUMNS) + "\n"


def test_sweep_json_and_text(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--pairs", "3:3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and set(rows[0]) == set(SWEEP_COLUMNS)
    assert rows[0]["free_smooth"] == 1

    code, out, _ = run_cli(capsys, "sweep", "--pairs", "3:3",
                           "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "\t".join(SWEEP_COLUMNS)


def test_parse_error_names_token(capsys):
    code, out, err = run_cli(capsys, "classify", "--k", "3", "--n", "2",
                             "--seq", "1^")
    assert code == 2
    assert out == "" and "1^" in err


def test_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "classify", "--k", "0", "--n", "1",
                           "--seq", "1")
    assert code == 2 and err.startswith("error:")


def test_budget_refusal_exit(capsys):
    code, out, err = run_cli(capsys, "invariant", "--which", "minimal-smooth",
                             "--k", "9", "--n", "9", "--budget", "10")
    assert code == 3
    assert out == "" and err.startswith("refused:") and "10" in err

    code, _, err = run_cli(capsys, "explore", "--pairs", "7:5",
                           "--budget", "10")
    assert code == 3 and err.startswith("refused:")

    # the budget counts every node of the one walk, whatever --workers says:
    # C_{9;9}'s minimal-smooth search visits 11558 nodes
    for argv in (("verify", "--k", "5", "--n", "3", "--max-length", "8",
                  "--budget", "100"),
                 ("invariant", "--which", "minimal-smooth", "--k", "9", "--n", "9",
                  "--budget", "5000")):
        errs = set()
        for workers in ("1", "2", "8"):
            code, out, err = run_cli(capsys, *argv, "--workers", workers)
            assert code == 3 and out == "" and err.startswith("refused:")
            errs.add(err)
        assert len(errs) == 1


def test_recursion_limit_refusal_exit(capsys):
    # the DFS recurses once per term, so a walk to 1200 terms outgrows
    # Python's recursion limit; it is refused, not a traceback
    argv = ("invariant", "--which", "free-smooth", "--k", "1200", "--n", "1",
            "--budget", "100000")
    code, out, err = run_cli(capsys, *argv, "--workers", "1")
    assert (code, out) == (3, "")
    assert err == ("refused: enumeration aborted: a walk to length 1200 exceeds "
                   "Python's recursion limit\n")
    # --workers is ignored, so the refusal is the same at any value
    assert run_cli(capsys, *argv, "--workers", "2") == (code, out, err)


def test_negative_budget_is_invalid_input(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    argv = ("invariant", "--which", "free-smooth", "--k", "5", "--n", "3")
    cache = ("--cache-dir", str(tmp_path))
    code, fresh, _ = run_cli(capsys, *argv, *cache)
    assert code == 0
    invalid = (2, "", "error: --budget must be >= 0, got -1\n")
    # invalid with or without a cached answer, and in a sweep that catches refusals
    assert run_cli(capsys, *argv, "--budget", "-1") == invalid
    assert run_cli(capsys, *argv, *cache, "--budget", "-1") == invalid
    assert run_cli(capsys, "sweep", "--pairs", "5:3", "--budget", "-1") == invalid
    # a budget of 0 serves the cache or refuses
    assert run_cli(capsys, *argv, *cache, "--budget", "0") == (0, fresh, "")
    code, out, err = run_cli(capsys, *argv, "--budget", "0")
    assert (code, out) == (3, "") and err.startswith("refused:")


def test_argparse_native_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--k", "3", "--n", "2"])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--pairs", "4-3"])
    assert exc.value.code == 2
    assert "expected K:N" in capsys.readouterr().err


def test_cache_dir_flag(tmp_path, capsys):
    args = ("invariant", "--which", "free-smooth", "--k", "7", "--n", "5",
            "--cache-dir", str(tmp_path))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    assert (tmp_path / "free_smooth_k7_n5_c14.json").exists()
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and second == first


def test_cached_search_serves_its_sibling(tmp_path, capsys, monkeypatch):
    # a cached free-smooth search stores minimal-smooth too, so a minimal
    # call with a budget of 0 is served the uncached bytes
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    pair = ("--k", "7", "--n", "5")
    cache = ("--cache-dir", str(tmp_path))
    minimal = ("invariant", "--which", "minimal-smooth", *pair)
    code, fresh, _ = run_cli(capsys, *minimal)
    assert code == 0
    assert run_cli(capsys, "invariant", "--which", "free-smooth", *pair, *cache)[0] == 0
    assert run_cli(capsys, *minimal, *cache, "--budget", "0") == (0, fresh, "")


def test_corrupt_cache_file_is_recomputed(tmp_path, capsys):
    args = ("invariant", "--which", "free-smooth", "--k", "7", "--n", "5",
            "--cache-dir", str(tmp_path))
    code, first, _ = run_cli(capsys, *args)
    path = tmp_path / "free_smooth_k7_n5_c14.json"
    truncated = path.read_text(encoding="utf-8")[:40]
    mistyped = json.dumps({**json.loads(first), "witnesses": [5]})
    for text in (truncated, mistyped):
        path.write_text(text, encoding="utf-8")
        code, second, err = run_cli(capsys, *args)
        assert code == 0 and err == "" and second == first
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(first)


def test_mismatched_cache_file_is_recomputed(tmp_path, capsys):
    # a file that answers another request is a miss, not a stale answer
    # (a cached smoothness search at its default cap stores its sibling too)
    cache = ("--cache-dir", str(tmp_path))
    for served, served_files, asked, asked_files in [
            (("invariant", "--which", "free-smooth", "--k", "5", "--n", "3"),
             ["free_smooth_k5_n3_c8.json", "minimal_smooth_k5_n3_c9.json"],
             ("invariant", "--which", "free-smooth", "--k", "6", "--n", "3"),
             ["free_smooth_k6_n3_c8.json", "minimal_smooth_k6_n3_c9.json"]),
            (("verify", "--what", "structure", "--k", "5", "--n", "3"),
             ["verify_structure_k5_n3_c7.json"],
             ("verify", "--what", "cases", "--k", "5", "--n", "3"),
             ["verify_cases_k5_n3_c7.json"])]:
        before = {f.name for f in tmp_path.iterdir()}
        run_cli(capsys, *served, *cache)
        assert {f.name for f in tmp_path.iterdir()} - before == set(served_files)
        written = tmp_path / served_files[0]
        code, fresh, _ = run_cli(capsys, *asked)
        assert code == 0
        code, _, _ = run_cli(capsys, *asked, *cache)
        assert ({f.name for f in tmp_path.iterdir()} - before
                == set(served_files) | set(asked_files))
        target = tmp_path / asked_files[0]
        shutil.copy(written, target)
        code, out, err = run_cli(capsys, *asked, *cache)
        assert code == 0 and err == "" and out == fresh
        assert json.loads(target.read_text(encoding="utf-8")) == json.loads(fresh)


def test_cache_dir_env(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv(CACHE_DIR_ENV, str(env_dir))

    code, _, _ = run_cli(capsys, "invariant", "--which", "index", "--n", "6")
    assert code == 0
    assert (env_dir / "index_k1_n6_c12.json").exists()

    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "invariant", "--which", "index", "--n", "7",
                         "--cache-dir", str(flag_dir))
    assert code == 0
    assert (flag_dir / "index_k1_n7_c14.json").exists()
    assert not (env_dir / "index_k1_n7_c14.json").exists()


def test_workers_identical_output(capsys):
    outputs = []
    for w in ("1", "2", "8"):
        code, out, _ = run_cli(capsys, "invariant", "--which", "minimal-smooth",
                               "--k", "9", "--n", "9", "--workers", w)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]

    code, base, _ = run_cli(capsys, "verify", "--k", "5", "--n", "3")
    assert code == 0
    code, par, _ = run_cli(capsys, "verify", "--k", "5", "--n", "3",
                           "--workers", "4")
    assert code == 0 and par == base


def test_console_script_installed():
    exe = shutil.which("idemfree")
    if exe is None:
        pytest.skip("console script not on PATH")
    env = {k: v for k, v in os.environ.items() if k != CACHE_DIR_ENV}
    proc = subprocess.run([exe, "invariant", "--which", "index", "--n", "6"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 5


# argv fuzzing: k, n <= 12, --cap <= 30, --max-length <= 14 or huge, --budget <= 3000
# keep every search small; a huge --k or --cap sizes masks and per-length lists,
# a huge --max-length only the closed-form counts
_SEQ_TOKENS = ("1", "2^3", "1^3,5^2", "7", "0", "-1", "1^0", "2^-1", "^2", "1^", "a", "",
               "1,,2", "3^2^2", " 4 ", "1.5")
_PAIR_TOKENS = ("4-3", "a:b", "4:", ":3", "4:3:2", " 5 : 3 ", "")
# True in most draws, so most argv get past argparse to the commands
_USUALLY = st.sampled_from((True,) * 9 + (False,))


def _mostly(good, bad):
    return _USUALLY.flatmap(lambda ok: good if ok else bad)


def _int_text(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(("", "x", "1.5", "0x3")))


def _choice(good, bad):
    return _mostly(st.sampled_from(good), st.just(bad))


def _pair_text():
    return _mostly(st.tuples(st.integers(-3, 12), st.integers(-3, 12))
                   .map(lambda pair: f"{pair[0]}:{pair[1]}"),
                   st.sampled_from(_PAIR_TOKENS))


@st.composite
def _cli_argv(draw, cache_dir):
    values = {
        "--k": _int_text(-3, 12),
        "--n": _int_text(-3, 12),
        "--seq": st.one_of(st.lists(st.sampled_from(_SEQ_TOKENS), min_size=1, max_size=4)
                           .map(",".join),
                           st.text(alphabet="0123456789^,- x", max_size=6)),
        "--what": _choice(("structure", "cases"), "all"),
        "--max-length": st.one_of(_int_text(-3, 14),
                                  st.sampled_from((10**6, 10**20)).map(str)),
        "--which": _choice(("free-smooth", "minimal-smooth", "index"), "both"),
        "--kind": _choice(("free", "minimal"), "other"),
        "--cap": _int_text(-3, 30),
        "--pairs": st.lists(_pair_text(), max_size=4).map(",".join),
        "--k-range": _pair_text(),
        "--n-range": _pair_text(),
        "--format": _choice(("json", "text", "csv"), "xml"),
        "--workers": _int_text(-3, 64),
        "--cache-dir": st.just(cache_dir),
    }
    # (required, optional) options per command
    own = {
        "classify": (("--k", "--n", "--seq"), ()),
        "verify": (("--k", "--n"), ("--what", "--max-length")),
        "invariant": (("--which", "--n"), ("--k", "--cap")),
        "search": (("--k", "--n", "--kind"), ("--cap",)),
        "explore": (("--pairs",), ("--cap",)),
        "sweep": ((), ("--pairs", "--k-range", "--n-range", "--cap")),
    }
    command = draw(_choice(sorted(own), "bogus"))
    required, optional = own.get(command, ((), ()))
    # mostly the command's own options, now and then a required one missing
    # or a foreign one added
    chosen = [name for name in required if draw(_USUALLY)]
    chosen += [name for name in optional + ("--format", "--workers", "--cache-dir")
               if draw(st.booleans())]
    if not draw(_USUALLY):
        chosen.append(draw(st.sampled_from(sorted(values))))
    argv = [command]
    for name in draw(st.permutations(chosen)):
        argv += [name, draw(values[name])]
    # always bounded: no search runs at the default budget
    return argv + ["--budget", draw(_int_text(-5, 3000))]


def test_fuzzed_argv_ends_in_an_exit_code(tmp_path, capsys, monkeypatch):
    # every argv ends in exit 0, 1, 2 or 3 with no traceback: argparse's
    # rejection is SystemExit(2) and no other exception escapes main
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)

    @settings(max_examples=300, deadline=None)
    @given(_cli_argv(str(tmp_path)))
    def check(argv):
        try:
            code = main(argv)
            parsed = True
        except SystemExit as exc:
            code, parsed = exc.code, False
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if not parsed:
            assert code == 2 and out == "", argv
        elif code == 2:
            assert out == "" and err.startswith("error: "), argv
        elif code == 3:
            assert out == "" and err.startswith("refused: "), argv
        else:
            assert out and err == "", argv

    check()
