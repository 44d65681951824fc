"""Command line surface: parsing, rendering, exit codes, caching."""

import csv
import io
import json
import os
import shutil
import subprocess

import pytest

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

    # the budget counts visited nodes over all shards, whatever the workers:
    # C_{9;9}'s minimal-smooth search visits 11558 nodes, its largest shard 3010
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
    cache = ("--cache-dir", str(tmp_path))
    for served, asked in [
            (("invariant", "--which", "free-smooth", "--k", "5", "--n", "3"),
             ("invariant", "--which", "free-smooth", "--k", "6", "--n", "3")),
            (("verify", "--what", "structure", "--k", "5", "--n", "3"),
             ("verify", "--what", "cases", "--k", "5", "--n", "3"))]:
        before = set(tmp_path.iterdir())
        run_cli(capsys, *served, *cache)
        written, = set(tmp_path.iterdir()) - before
        code, fresh, _ = run_cli(capsys, *asked)
        assert code == 0
        code, _, _ = run_cli(capsys, *asked, *cache)
        target, = set(tmp_path.iterdir()) - before - {written}
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
