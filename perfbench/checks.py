"""Checks on the files one ``run`` wrote, and their digests.

Every problem found is charged to the trials it affects, so a run's
``failed`` count says how many of its trials cannot be trusted.
"""

import hashlib
from pathlib import Path


# The files ``run`` writes for a graded experiment. Files a later version
# adds beside them (diagnostics, timings) are neither digested nor compared.
CHECKED_FILES = ("results.csv", "aggregates.csv", "summary.txt", "confusion/*.txt")


def output_digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every checked output file, keyed by path relative to ``outdir``."""
    return {
        path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for pattern in CHECKED_FILES
        for path in sorted(outdir.glob(pattern))
    }


def _mapped_diagonal(text: str) -> tuple[int, int]:
    """(sum of the mapped cells, count in the caption) of a written confusion matrix."""
    lines = text.splitlines()
    header = lines[1].split()[1:]
    # sense rows run from line 2 to the column-totals row before the blank line
    body = lines[2 : lines.index("") - 1]
    rows = {cells[0]: [int(v) for v in cells[1:-1]] for cells in map(str.split, body)}
    diagonal = sum(rows[name][c] for c, name in enumerate(header) if name in rows)
    caption = int(lines[-1].rsplit(" - ", 1)[1].split()[0])
    return diagonal, caption


def check_outputs(outdir: Path, workload, exit_code: int, golden=None):
    """Return (failed trials, problems) for one run of ``workload``.

    A trial fails when its cell is missing or incomplete, its accuracy is
    outside [0, 1], its n or k is wrong, or (for the reported trial) the
    written confusion matrix disagrees with the accuracy. With ``golden``
    (the digests recorded at the default seed), any file whose digest
    differs fails every trial.
    """
    cells = {
        (w.word, s, a): w
        for w in workload.words
        for s in workload.feature_sets
        for a in workload.algorithms
    }
    trials = range(workload.trials)
    every_trial = {(cell, t) for cell in cells for t in trials}
    failed: set = set()
    problems: list[str] = []

    def fail(message, keys):
        problems.append(message)
        failed.update(keys)

    if exit_code != 0:
        problems.append(f"run exited with code {exit_code}")

    rows: dict = {}
    results = outdir / "results.csv"
    lines = results.read_text(encoding="utf-8").splitlines() if results.is_file() else []
    for line in lines[1:]:
        word, set_id, alg, trial, _, accuracy, n, k = line.split(",")
        rows[(word, set_id, alg), int(trial)] = (float(accuracy), int(n), int(k))

    for cell, spec in cells.items():
        found = {t for (c, t) in rows if c == cell}
        if found != set(trials):
            fail(f"cell {cell} has trials {sorted(found)}", {(cell, t) for t in trials})
            continue
        for t in trials:
            accuracy, n, k = rows[cell, t]
            if not 0.0 <= accuracy <= 1.0 or (n, k) != (spec.n, spec.k):
                fail(f"cell {cell} trial {t}: accuracy {accuracy}, n {n}, k {k}", {(cell, t)})
        confusion = outdir / "confusion" / f"{cell[0]}_{cell[1]}_{cell[2]}.txt"
        try:
            diagonal, caption = _mapped_diagonal(confusion.read_text(encoding="utf-8"))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            fail(f"cell {cell}: unreadable confusion matrix ({exc})", {(cell, 0)})
            continue
        if not diagonal == caption == round(rows[cell, 0][0] * spec.n):
            fail(
                f"cell {cell}: mapped diagonal {diagonal}, caption {caption}, "
                f"accuracy {rows[cell, 0][0]}",
                {(cell, 0)},
            )

    if exit_code != 0 and not failed:
        failed.update(every_trial)
    if golden is not None:
        digests = output_digests(outdir)
        if digests != golden:
            paths = golden.keys() | digests.keys()
            changed = sorted(p for p in paths if golden.get(p) != digests.get(p))
            fail(f"outputs differ from the recorded digests: {changed}", every_trial)
    return len(failed), problems
