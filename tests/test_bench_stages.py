"""Smoke test of ``bench/stages.py`` at a tiny sample size."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "stages.py"


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("stages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_and_checks_the_stage_file(stages, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert stages.main(["--sizes", "24", "--repeat", "1", "--output", str(first)]) == 0
    report = json.loads(first.read_text())
    assert set(report["host"]) == {"python", "numpy", "cpu_count", "machine"}
    size = report["sizes"]["24"]
    assert size["peak_rss_mb"] > 0
    assert sorted(size["sets"]) == ["A", "B", "C"]
    for row in size["sets"].values():
        assert 1 <= row["distinct_rows"] <= 24
        for stage in ("dissim", "mcquitty", "ward"):
            assert row[f"{stage}_s"] >= 0
        for method in ("mcquitty", "ward"):
            assert len(row[f"{method}_sha256"]) == 64
            assert 0 <= row[f"{method}_ties_drawn"] <= 22

    # a second run repeats the digests, and a changed one is reported
    args = ["--sizes", "24", "--repeat", "1", "--output", str(second), "--check", str(first)]
    assert stages.main(args) == 0
    rerun = json.loads(second.read_text())
    assert stages.mismatches(rerun, report) == []
    report["sizes"]["24"]["sets"]["B"]["ward_sha256"] = "0" * 64
    (problem,) = stages.mismatches(rerun, report)
    assert problem.startswith("N=24 set B ward_sha256:")
