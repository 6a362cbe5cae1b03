#!/usr/bin/env python3
"""One-line mutants of the agglomeration code and of the summary's
significance mark, each run against its tests.

Usage, from the root of a checkout:

    python3 bench/mutants.py [NAME ...]

For each mutant in ``MUTANTS`` (or only those named), the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
replaces the mutant's text there and runs ``pytest -x`` on the mutant's
test files. A mutant is killed when a test fails; a run that pytest
cannot complete stops the script, as does a mutant's text (of any
listed mutant) that does not occur exactly once in its file. The script
prints one line per mutant and exits 1 if any mutant survives.
``EQUIVALENT`` lists mutants that no test can kill, with the reason;
they are printed, not run. The run takes about 10-40 s per mutant and
is kept out of tier-1 and CI.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AGGLOM = "src/sensecluster/agglom.py"
AGGLOM_TESTS = ("tests/test_agglom.py", "tests/test_agglom_reference.py")

# name: (file, text as written, mutated text, test files)
MUTANTS = {
    "refresh-without-slot-i": (
        AGGLOM,
        "        stale[i] = stale[j] = True",
        "        stale[j] = True",
        AGGLOM_TESTS,
    ),
    "tie-tol-1e-6": (AGGLOM, "TIE_TOL = 1e-9", "TIE_TOL = 1e-6", AGGLOM_TESTS),
    "tie-tol-1e-12": (AGGLOM, "TIE_TOL = 1e-9", "TIE_TOL = 1e-12", AGGLOM_TESTS),
    "searchsorted-left": (
        AGGLOM,
        '    a = int(cum.searchsorted(r, side="right"))',
        '    a = int(cum.searchsorted(r, side="left"))',
        AGGLOM_TESTS,
    ),
    "scan-two-hits-or-more": (
        AGGLOM,
        "    if hits.size == 2:",
        "    if hits.size >= 2:",
        AGGLOM_TESTS,
    ),
    "scan-upper-with-diagonal": (
        AGGLOM,
        "    cand = hits[hits // m * (m + 1) < hits]",
        "    cand = hits[hits // m * (m + 1) <= hits]",
        AGGLOM_TESTS,
    ),
    "scan-lower-triangle": (
        AGGLOM,
        "    cand = hits[hits // m * (m + 1) < hits]",
        "    cand = hits[hits // m * (m + 1) > hits]",
        AGGLOM_TESTS,
    ),
    "summary-alpha-05": (
        "src/sensecluster/evaluate.py",
        "def not_significantly_below(samples: dict, alpha: float = 0.01) -> set:",
        "def not_significantly_below(samples: dict, alpha: float = 0.05) -> set:",
        ("tests/test_runner.py",),
    ),
}

# name: (file, text as written, mutated text, why no test can kill it)
EQUIVALENT = {
    "cache-above-40": (
        AGGLOM,
        "CACHE_ABOVE = 150",
        "CACHE_ABOVE = 40",
        "the cached pick and the full scan pick the same pair by design",
    ),
    "scan-two-hits-or-fewer": (
        AGGLOM,
        "    if hits.size == 2:",
        "    if hits.size <= 2:",
        "the minimum of a symmetric block always hits at least twice",
    ),
}


def check_text(path: str, line: str) -> None:
    """Stop unless ``line`` occurs exactly once in ``path`` of this checkout."""
    if (ROOT / path).read_text().count(line) != 1:
        raise SystemExit(f"{path}: {line.strip()!r} must occur exactly once")


def killed(name: str) -> bool:
    """Whether the mutant's tests fail on a copy of the tree carrying it."""
    path, line, mutated, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / path
        target.write_text(target.read_text().replace(line, mutated))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True,
            text=True,
        )
    # 1 is failed tests; any other exit is a broken run, not a verdict
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc.returncode == 1


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - MUTANTS.keys())
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    # every listed mutant, so that none goes stale as the code changes
    for path, line, *_ in (*MUTANTS.values(), *EQUIVALENT.values()):
        check_text(path, line)
    survived = []
    for name in names or MUTANTS:
        verdict = "killed" if killed(name) else "SURVIVED"
        print(f"{name}: {verdict}", flush=True)
        if verdict == "SURVIVED":
            survived.append(name)
    for name, (_, _, _, why) in EQUIVALENT.items():
        print(f"{name}: equivalent, not run ({why})")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
