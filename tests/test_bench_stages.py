"""Smoke test of ``bench/stages.py`` at a tiny sample size.

The timed demo runs only in the slow tier; the other tests stand a stub
in for it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import synth_sample
from sensecluster import em
from sensecluster.features import build_schema, extract

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "stages.py"


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("stages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def demo_stub(stages, monkeypatch):
    """Stand in for ``run_demo``: its wall time and mismatches, to set."""
    stub = {"wall_s": 0.25, "problems": []}
    monkeypatch.setattr(stages, "run_demo", lambda repeat: (stub["wall_s"], stub["problems"]))
    return stub


def test_writes_and_checks_the_stage_file(stages, tmp_path, demo_stub):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert stages.main(["--sizes", "24", "--repeat", "1", "--output", str(first)]) == 0
    report = json.loads(first.read_text())
    assert set(report["host"]) == {"python", "numpy", "cpu_count", "machine"}
    assert report["demo"] == {"wall_s": 0.25}
    size = report["sizes"]["24"]
    assert size["peak_rss_mb"] > 0
    assert sorted(size["sets"]) == ["A", "B", "C"]
    for row in size["sets"].values():
        assert 1 <= row["distinct_rows"] <= 24
        for key in ("dissim_s", "mcquitty_s", "ward_s", "em_s", "em_iter_us"):
            low, high = row[f"{key}_q"]
            assert 0 <= low <= row[key] <= high
        assert row["em_iterations"] == stages.EM_ITERATIONS
        assert row["em_iter_us"] > 0
        for method in ("mcquitty", "ward", "em"):
            assert len(row[f"{method}_sha256"]) == 64
        for method in ("mcquitty", "ward"):
            assert 0 <= row[f"{method}_ties_drawn"] <= 22

    # EM's digest is of its assignment alone
    sample = synth_sample(stages.WORD, stages.CATEGORY, n=24, seed=stages.SAMPLE_SEED)
    for set_id, row in size["sets"].items():
        result = em.fit(extract(sample, build_schema(sample, set_id)), stages.K, stages.SEED)
        assignment = " ".join(map(str, result.assignment.tolist()))
        assert row["em_sha256"] == hashlib.sha256(assignment.encode()).hexdigest()

    # a second run repeats the digests, and a changed one is reported
    args = ["--sizes", "24", "--repeat", "1", "--output", str(second), "--check", str(first)]
    assert stages.main(args) == 0
    rerun = json.loads(second.read_text())
    assert stages.mismatches(rerun, report) == []
    report["sizes"]["24"]["sets"]["B"]["ward_sha256"] = "0" * 64
    del report["sizes"]["24"]["sets"]["C"]["em_sha256"]
    problems = stages.mismatches(rerun, report)
    assert [problem.split(":")[0] for problem in problems] == [
        "N=24 set B ward_sha256",
        "N=24 set C em_sha256",
    ]
    assert problems[1].endswith("!= recorded None")


def test_check_fails_on_a_demo_output_mismatch(stages, tmp_path, demo_stub, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert stages.main(["--sizes", "24", "--repeat", "1", "--output", str(first)]) == 0
    demo_stub["problems"] = ["demo aggregates.csv: None != recorded af16"]
    args = ["--sizes", "24", "--repeat", "1", "--output", str(second), "--check", str(first)]
    assert stages.main(args) == 1
    assert capsys.readouterr().err == "demo aggregates.csv: None != recorded af16\n"


def test_check_reads_the_recorded_file_before_writing_over_it(stages, tmp_path, demo_stub):
    path = tmp_path / "stages.json"
    assert stages.main(["--sizes", "24", "--repeat", "1", "--output", str(path)]) == 0
    report = json.loads(path.read_text())
    report["sizes"]["24"]["sets"]["A"]["mcquitty_sha256"] = "0" * 64
    path.write_text(json.dumps(report))
    args = ["--sizes", "24", "--repeat", "1", "--output", str(path), "--check", str(path)]
    assert stages.main(args) == 1
    assert json.loads(path.read_text())["sizes"]["24"]["sets"]["A"]["mcquitty_sha256"] != "0" * 64


def test_a_check_run_leaves_the_checked_file_as_it_was(stages, tmp_path, demo_stub, monkeypatch):
    # as ``--check BENCH_stages.json`` without ``--output``, which used to
    # rewrite the checked file with only the sizes it ran
    path = tmp_path / "BENCH_stages.json"
    assert stages.main(["--sizes", "24", "--repeat", "1", "--output", str(path)]) == 0
    recorded = path.read_bytes()
    monkeypatch.setattr(stages, "DEFAULT_OUTPUT", path)
    assert stages.main(["--sizes", "24", "--repeat", "1", "--check", str(path)]) == 0
    assert path.read_bytes() == recorded
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_stages.json"]


def test_demo_mismatches_lists_changed_missing_and_extra_files(stages, tmp_path, monkeypatch):
    out = tmp_path / "out"
    (out / "confusion").mkdir(parents=True)
    files = {"aggregates.csv": b"a\n", "confusion/drug_A_em.txt": b"b\n", "summary.txt": b"c\n"}
    sha = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    listing = tmp_path / "expected.sha256"
    listing.write_text("".join(f"{sha[name]}  {name}\n" for name in files))
    monkeypatch.setattr(stages, "DEMO_DIGESTS", listing)
    for name, data in files.items():
        (out / name).write_bytes(data)
    assert stages.demo_mismatches(out) == []

    (out / "summary.txt").write_bytes(b"changed\n")
    (out / "aggregates.csv").unlink()
    (out / "confusion" / "extra.txt").write_bytes(b"d\n")
    problems = stages.demo_mismatches(out)
    assert [problem.split(":")[0] for problem in problems] == [
        "demo aggregates.csv",
        "demo confusion/extra.txt",
        "demo summary.txt",
    ]
    assert problems[0] == f"demo aggregates.csv: None != recorded {sha['aggregates.csv']}"
    assert problems[1].endswith("!= recorded None")


@pytest.mark.slow
@pytest.mark.skipif(
    not np.__version__.startswith("2.4."), reason="demo/expected.sha256 was recorded with numpy 2.4"
)
def test_demo_run_matches_the_recorded_digests(stages):
    wall_s, problems = stages.run_demo(1)
    assert wall_s > 0
    assert problems == []


def test_timed_warms_up_then_reports_quartiles(stages):
    calls = []
    quartiles, result = stages.timed(3, lambda: calls.append(None) or len(calls))
    assert len(calls) == 4 and result == 4
    assert quartiles[0] <= quartiles[1] <= quartiles[2]
    quartiles, _ = stages.timed(1, lambda: None)
    assert quartiles[0] == quartiles[1] == quartiles[2]


def test_quartiles_stay_within_the_times_seen(stages, monkeypatch):
    # 1 s and 9 s: exclusive quartiles would put the first below 0
    clock = iter([0.0, 1.0, 1.0, 10.0])
    monkeypatch.setattr(stages.time, "perf_counter", lambda: next(clock))
    quartiles, _ = stages.timed(2, lambda: None)
    assert quartiles == (3.0, 5.0, 7.0)
