"""Smoke test of ``bench/stages.py`` at a tiny sample size."""

import hashlib
import importlib.util
import json
from pathlib import Path

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
        for stage in ("dissim", "mcquitty", "ward", "em"):
            assert row[f"{stage}_s"] >= 0
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
