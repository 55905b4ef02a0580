"""End-to-end tests for the command line interface.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout/stderr splitting are observable; the console-script tests run
the declared entry point, and the installed script where there is one,
through a real subprocess.
"""

from __future__ import annotations

import csv
import io
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twigjoin import index_io
from twigjoin.cli import main
from twigjoin.matcher import evaluate
from twigjoin.twig import parse

METRICS_RE = re.compile(r"^nodes_read=\d+, bytes_scanned=\d+, micros=\d+$")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated document plus its index, built through the CLI itself."""
    d = tmp_path_factory.mktemp("cli")
    xml = d / "doc.xml"
    idx = d / "doc.idx"
    assert main(["gen", "-o", str(xml), "--seed", "3",
                 "--target-nodes", "2000"]) == 0
    assert main(["index", str(xml), "-o", str(idx)]) == 0
    return d


@pytest.fixture(scope="module")
def idx_path(workdir):
    return str(workdir / "doc.idx")


@pytest.fixture(scope="module")
def guide(idx_path):
    return index_io.load(idx_path).guide


# --- gen ---


def test_gen_reports_node_count(tmp_path, capsys):
    out = tmp_path / "g.xml"
    assert main(["gen", "-o", str(out), "--seed", "5",
                 "--target-nodes", "50"]) == 0
    text = capsys.readouterr().out
    m = re.search(r"^nodes: (\d+)$", text, re.M)
    assert m and int(m.group(1)) >= 50
    assert out.read_bytes().startswith(b"<")


def test_gen_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.xml", "b.xml", "c.xml"))
    for path, seed in ((a, "9"), (b, "9"), (c, "10")):
        assert main(["gen", "-o", str(path), "--seed", seed,
                     "--target-nodes", "300"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_rejects_bad_config(tmp_path, capsys):
    out = tmp_path / "g.xml"
    assert main(["gen", "-o", str(out), "--max-depth", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# --- index ---


def test_index_reports_counts(workdir, capsys):
    idx2 = workdir / "again.idx"
    assert main(["index", str(workdir / "doc.xml"), "-o", str(idx2)]) == 0
    out = capsys.readouterr().out
    guide_n = int(re.search(r"^guide nodes: (\d+)$", out, re.M).group(1))
    doc_n = int(re.search(r"^document nodes: (\d+)$", out, re.M).group(1))
    assert 0 < guide_n <= doc_n
    loaded = index_io.load(str(idx2))
    assert len(loaded.guide.nodes) == guide_n
    assert loaded.node_count == doc_n


def test_index_missing_input(tmp_path, capsys):
    assert main(["index", str(tmp_path / "nope.xml"),
                 "-o", str(tmp_path / "x.idx")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_index_malformed_xml(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<A><B></A>")
    assert main(["index", str(bad), "-o", str(tmp_path / "x.idx")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- query: results ---


def test_query_count_matches_library(idx_path, guide, capsys):
    q = "//A[./B]"
    assert main(["query", idx_path, q, "--count"]) == 0
    out = capsys.readouterr().out
    rs, _ = evaluate(guide, parse(q))
    assert int(out) == len(rs.matches)


def test_query_format_count_agrees_with_count_flag(idx_path, capsys):
    q = "//B[./C]/A"
    assert main(["query", idx_path, q, "--count"]) == 0
    by_flag = capsys.readouterr().out
    assert main(["query", idx_path, q, "--format", "count"]) == 0
    assert capsys.readouterr().out == by_flag


def test_query_empty_result_counts_zero(idx_path, capsys):
    assert main(["query", idx_path, "//Z[./A]/B", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_query_dotted_lines_match_library(idx_path, guide, capsys):
    q = "//C[./D]/E"
    assert main(["query", idx_path, q]) == 0
    lines = capsys.readouterr().out.splitlines()
    rs, _ = evaluate(guide, parse(q))
    want = ["\t".join(str(lab) for lab in mt.leaf_labels)
            for mt in rs.matches]
    assert lines == want
    assert lines, "fixture query should match something"


def test_engines_agree_on_result_lines(idx_path, capsys):
    q = "//B[./A]/C"
    seen = {}
    for engine in ("dt", "leafscan", "naive"):
        assert main(["query", idx_path, q, "--engine", engine]) == 0
        seen[engine] = sorted(capsys.readouterr().out.splitlines())
    assert seen["dt"] == seen["leafscan"] == seen["naive"]
    assert seen["dt"]


def test_query_flag_variants_agree(idx_path, capsys):
    q = "//A[./C]/B"
    assert main(["query", idx_path, q, "--count"]) == 0
    base = capsys.readouterr().out
    for extra in (["--no-jump"], ["--kernels", "numpy"],
                  ["--no-jump", "--kernels", "numba"]):
        assert main(["query", idx_path, q, "--count", *extra]) == 0
        assert capsys.readouterr().out == base


def test_project_jp_prints_witnesses(idx_path, guide, capsys):
    q = "//B[./C][./A]"
    assert main(["query", idx_path, q, "--project", "jp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rs, _ = evaluate(guide, parse(q))
    assert lines == [str(lab) for lab in rs.top_jp_labels]
    assert lines


# --- query: metrics channel ---


def test_metrics_go_to_stderr_in_fixed_format(idx_path, capsys):
    for engine in ("dt", "leafscan", "naive"):
        assert main(["query", idx_path, "//A/B", "--engine", engine,
                     "--count"]) == 0
        captured = capsys.readouterr()
        assert METRICS_RE.match(captured.err.strip()), captured.err


def _read_counters(err: str) -> tuple[int, int]:
    m = re.match(r"nodes_read=(\d+), bytes_scanned=(\d+)", err.strip())
    return int(m.group(1)), int(m.group(2))


def test_metrics_deterministic_across_runs(idx_path, capsys):
    q = "//A[./B]/C"
    runs = []
    for _ in range(2):
        assert main(["query", idx_path, q, "--count"]) == 0
        runs.append(_read_counters(capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert runs[0][0] > 0


# --- query: explain ---


def test_explain_prints_plan_before_results(idx_path, capsys):
    assert main(["query", idx_path, "//B[./C]/A", "--count",
                 "--explain"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("DT 1 @")
    assert out[-1].isdigit()


def test_explain_plans_once(idx_path, monkeypatch, capsys):
    import twigjoin.cli as cli
    import twigjoin.matcher as matcher

    calls = []

    def counted(fn):
        def plan(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return plan

    for mod in (cli, matcher):
        if hasattr(mod, "build_dt_schema"):
            monkeypatch.setattr(mod, "build_dt_schema", counted(mod.build_dt_schema))
    assert main(["query", idx_path, "//A[./B][.//C]/D", "--explain"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("DT 1 @")
    assert len(calls) == 1


def test_explain_zero_jp_query(idx_path, capsys):
    assert main(["query", idx_path, "//A/B", "--count", "--explain"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "no DT required"


@pytest.mark.parametrize("flags", [
    ["--explain", "--engine", "naive"],
    ["--explain", "--engine", "leafscan"],
    ["--project", "jp", "--engine", "naive"],
])
def test_dt_only_flags_rejected_elsewhere(idx_path, flags, capsys):
    assert main(["query", idx_path, "//A[./B]", *flags]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


# --- exit codes ---


def test_syntax_error_exits_1(idx_path, capsys):
    assert main(["query", idx_path, "//A[./B"]) == 1
    assert capsys.readouterr().err.startswith("query syntax error:")


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_missing_required_argument_exits_1(capsys):
    assert main(["query"]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_missing_index_exits_2(tmp_path, capsys):
    assert main(["query", str(tmp_path / "no.idx"), "//A"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_corrupt_index_exits_2(tmp_path, capsys):
    junk = tmp_path / "junk.idx"
    junk.write_bytes(b"definitely not an index, far too short to parse")
    assert main(["query", str(junk), "//A"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- bench ---


def _rows(out: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == [
        "name", "query", "engine", "nodes_read", "bytes_scanned", "micros"
    ]
    return list(reader)


def test_bench_workload_file(workdir, idx_path, capsys):
    wl = workdir / "wl.txt"
    wl.write_text("# header comment\n//A[./B]\n\n//C/D\n")
    assert main(["bench", idx_path, "--workload", str(wl)]) == 0
    rows = _rows(capsys.readouterr().out)
    # names carry the raw line number, and comments and blanks drop out
    assert [(r["name"], r["query"], r["engine"]) for r in rows] == [
        ("q2", "//A[./B]", "dt"), ("q2", "//A[./B]", "leafscan"),
        ("q4", "//C/D", "dt"), ("q4", "//C/D", "leafscan"),
    ]
    for r in rows:
        assert int(r["nodes_read"]) > 0
        assert int(r["bytes_scanned"]) >= 0
        assert int(r["micros"]) >= 0


def test_bench_engines_filter(workdir, idx_path, capsys):
    wl = workdir / "one.txt"
    wl.write_text("//A/B\n")
    assert main(["bench", idx_path, "--workload", str(wl),
                 "--engines", "naive"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["engine"] for r in rows] == ["naive"]


def test_bench_auto_single_branch(idx_path, capsys):
    assert main(["bench", idx_path, "--auto", "single-branch"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["name"] for r in rows] == [
        f"sb{k}" for k in range(2, 10) for _ in ("dt", "leafscan")
    ]
    assert all(r["query"].startswith("//") for r in rows)


def test_bench_auto_multi_branch(idx_path, capsys):
    assert main(["bench", idx_path, "--auto", "multi-branch",
                 "--engines", "dt"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["name"] for r in rows] == ["mb2", "mb3", "mb4", "mb5"]
    # mbN appends one more predicate each step onto the same trunk
    assert rows[0]["query"].count("[") == 2
    assert rows[3]["query"].count("[") == 5


def test_bench_unknown_engine_exits_1(workdir, idx_path, capsys):
    wl = workdir / "one2.txt"
    wl.write_text("//A\n")
    assert main(["bench", idx_path, "--workload", str(wl),
                 "--engines", "dt,bogus"]) == 1
    assert "unknown engine" in capsys.readouterr().err


def test_bench_empty_workload_exits_2(workdir, idx_path, capsys):
    wl = workdir / "empty.txt"
    wl.write_text("# nothing here\n\n")
    assert main(["bench", idx_path, "--workload", str(wl)]) == 2
    assert "no queries" in capsys.readouterr().err


def test_bench_missing_workload_exits_2(idx_path, tmp_path, capsys):
    assert main(["bench", idx_path, "--workload",
                 str(tmp_path / "gone.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- console script ---


def _check_count_query(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().isdigit()
    assert METRICS_RE.match(proc.stderr.strip()), proc.stderr


def test_console_script_runs(idx_path):
    """Run the ``twigjoin`` entry point declared in ``pyproject.toml`` the
    way an installer's generated wrapper does, so the declaration in this
    checkout is what gets checked, not whatever is first on ``PATH``."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["twigjoin"]
    module, func = entry.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "query", idx_path, "//A[./B]",
         "--count"],
        capture_output=True, text=True, timeout=120,
    )
    _check_count_query(proc)


@pytest.mark.skipif(shutil.which("twigjoin") is None,
                    reason="twigjoin console script not on PATH")
def test_installed_console_script_runs(idx_path):
    proc = subprocess.run(
        [shutil.which("twigjoin"), "query", idx_path, "//A[./B]", "--count"],
        capture_output=True, text=True, timeout=120,
    )
    _check_count_query(proc)


def test_module_entry_matches_script(idx_path):
    proc = subprocess.run(
        [sys.executable, "-m", "twigjoin", "query", idx_path,
         "//A[./B]", "--count"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().isdigit()
