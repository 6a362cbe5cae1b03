"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with:

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

import hashlib

from checks import check_outputs, output_digests
from run import run_rep
from workloads import EM_ITERATIONS, WordSpec, Workload, write_inputs

TINY = Workload(
    "tiny",
    (WordSpec("drug", "noun", 30, 2), WordSpec("line", "noun", 28, 3)),
    ("A",),
    ("mcquitty", "em"),
    2,
)


def _tree_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_generator_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        write_inputs(TINY, seed, tmp_path / name)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


def test_corrupted_outputs_count_as_failed_trials(tmp_path):
    config = write_inputs(TINY, 3, tmp_path / "in")
    out = tmp_path / "out"
    rep = run_rep(TINY, config, out, True, "smoke")
    assert (rep["failed"], rep["problems"]) == (0, [])
    assert rep["calls"]["em.e_step"] == TINY.trials * 2 * (EM_ITERATIONS + 1)
    assert rep["counts"]["agglom.mcquitty.merges"] == TINY.trials * (30 - 2 + 28 - 3)

    golden = output_digests(out)
    assert check_outputs(out, TINY, 0, golden) == (0, [])
    failed, problems = check_outputs(out, TINY, 0, {**golden, "summary.txt": "0" * 64})
    assert failed == TINY.trials_total and problems

    confusion = out / "confusion" / "drug_A_em.txt"
    text = confusion.read_text()
    lines = text.splitlines()
    cells = lines[2].split()
    cells[1] = str(int(cells[1]) + 1)
    lines[2] = "  ".join(cells)
    confusion.write_text("\n".join(lines) + "\n")
    failed, problems = check_outputs(out, TINY, 0)
    assert failed == 1 and "drug" in problems[0]
    confusion.write_text(text)

    results = out / "results.csv"
    text = results.read_text()
    rows = text.splitlines()
    fields = rows[2].split(",")  # trial 1, so the confusion check stays clean
    fields[5] = "1.5"
    results.write_text("\n".join(rows[:2] + [",".join(fields)] + rows[3:]) + "\n")
    failed, problems = check_outputs(out, TINY, 0)
    assert failed == 1 and len(problems) == 1

    results.write_text("\n".join(rows[:1] + rows[2:]) + "\n")
    failed, problems = check_outputs(out, TINY, 0)
    assert failed == TINY.trials and len(problems) == 1
