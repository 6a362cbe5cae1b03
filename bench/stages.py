#!/usr/bin/env python3
"""Stage timings of the clustering pipeline, written to BENCH_stages.json.

Usage, from the root of a checkout:

    python3 bench/stages.py [--sizes 600 1000 2000] [--repeat 5]
                            [--output BENCH_stages.json] [--check FILE]

For each sample size N, a fresh interpreter builds
``tests/conftest.py::synth_sample("drug", "noun", n=N, seed=1)``, extracts
feature sets A, B and C, and times ``dissim.build``, ``agglom.mcquitty``
and ``agglom.ward`` (on ``dissim.row_vectors``) and ``em.fit`` (on the
feature matrix, with its default stopping rule) at k=2 and seed 1,
recording the median of ``--repeat`` runs of each, the number of
distinct rows of the mismatch matrix, and the interpreter's peak RSS.
Every merge trace and assignment is recorded as a SHA-256 digest
(``tests/conftest.py::digest``, of ``merge_trace`` followed by the
space-separated assignment), with the tie draws, and EM's assignment as the
digest of the space-separated assignment alone, so a fast but wrong
build shows. The host's Python and numpy versions and CPU count are
recorded too.

The demo grid is timed as well: ``sensecluster run`` on
``demo/experiment.ini`` at ``-j 1``, each of ``--repeat`` runs a fresh
interpreter (its start-up included) writing to a temporary directory,
recorded as the median under ``demo``.

``--check FILE`` compares the digests and tie draws of this run with
those recorded in FILE for the same sizes (FILE is read before the run,
so it may also be the output), and every demo output with
``demo/expected.sha256``, and exits 1 if any differs or is missing.
Timings and peak RSS are never compared.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_stages.json"
DEMO_CONFIG = ROOT / "demo" / "experiment.ini"
DEMO_DIGESTS = ROOT / "demo" / "expected.sha256"
SETS = ("A", "B", "C")
WORD, CATEGORY, SAMPLE_SEED, K, SEED = "drug", "noun", 1, 2, 1


def median_time(repeat: int, call):
    """Median wall time of ``repeat`` calls, and the last call's result."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def measure_size(n: int, repeat: int) -> dict:
    """Every stage on every feature set at sample size n, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    from conftest import digest, synth_sample

    from sensecluster import agglom, em
    from sensecluster.dissim import build, row_vectors
    from sensecluster.features import build_schema, extract

    sample = synth_sample(WORD, CATEGORY, n=n, seed=SAMPLE_SEED)
    sets = {}
    for set_id in SETS:
        matrix = extract(sample, build_schema(sample, set_id))
        dissim_s, d = median_time(repeat, lambda: build(matrix))
        row = {"distinct_rows": len(np.unique(d.cells, axis=0)), "dissim_s": dissim_s}
        for name, method, data in (
            ("mcquitty", agglom.mcquitty, d),
            ("ward", agglom.ward, row_vectors(d)),
        ):
            row[f"{name}_s"], result = median_time(repeat, lambda: method(data, K, SEED))
            row[f"{name}_ties_drawn"] = result.ties_drawn
            row[f"{name}_sha256"] = digest(result, agglom.merge_trace(result))
        row["em_s"], result = median_time(repeat, lambda: em.fit(matrix, K, SEED))
        row["em_sha256"] = digest(result)
        sets[set_id] = row
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"peak_rss_mb": peak_rss_mb, "sets": sets}


def run_size(n: int, repeat: int) -> dict:
    """``measure_size`` in a fresh interpreter, so peak RSS is its own."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(n), "--repeat", str(repeat)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def demo_mismatches(outdir: Path) -> list[str]:
    """The files under ``outdir`` whose SHA-256 differs from the one in
    ``DEMO_DIGESTS``, and the files that only one of the two lists."""
    lines = DEMO_DIGESTS.read_text().splitlines()
    expected = {name: sha for sha, name in (line.split(maxsplit=1) for line in lines)}
    got = {
        path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in outdir.rglob("*")
        if path.is_file()
    }
    return [
        f"demo {name}: {got.get(name)} != recorded {expected.get(name)}"
        for name in sorted(expected.keys() | got.keys())
        if got.get(name) != expected.get(name)
    ]


def run_demo(repeat: int) -> tuple[float, list[str]]:
    """Median wall time of ``repeat`` demo runs, and every mismatch that
    any of their outputs has against ``DEMO_DIGESTS``."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    command = [sys.executable, "-m", "sensecluster.cli", "run", "--config", str(DEMO_CONFIG)]
    command += ["-j", "1", "-o"]
    times, problems = [], []
    for _ in range(repeat):
        with tempfile.TemporaryDirectory() as outdir:
            start = time.perf_counter()
            subprocess.run([*command, outdir], env=env, check=True, capture_output=True)
            times.append(time.perf_counter() - start)
            problems += [p for p in demo_mismatches(Path(outdir)) if p not in problems]
    return statistics.median(times), problems


def host() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def mismatches(report: dict, recorded: dict) -> list[str]:
    """The digests and tie draws of ``report`` that ``recorded`` lacks or
    records differently."""
    problems = []
    for n, size in report["sizes"].items():
        for set_id, row in size["sets"].items():
            for key, value in row.items():
                if not key.endswith(("_sha256", "_ties_drawn")):
                    continue
                expected = recorded["sizes"].get(n, {}).get("sets", {}).get(set_id, {}).get(key)
                if value != expected:
                    problems.append(f"N={n} set {set_id} {key}: {value} != recorded {expected}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[600, 1000, 2000])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--check", type=Path)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    if args.child is not None:
        print(json.dumps(measure_size(args.child, args.repeat)))
        return 0

    # read before the run, as --output may name the same file
    recorded = json.loads(args.check.read_text()) if args.check is not None else None
    sizes = {str(n): run_size(n, args.repeat) for n in args.sizes}
    demo_s, demo_problems = run_demo(args.repeat)
    report = {
        "host": host(),
        "sample": {"word": WORD, "category": CATEGORY, "seed": SAMPLE_SEED},
        "k": K,
        "seed": SEED,
        "repeat": args.repeat,
        "sizes": sizes,
        "demo": {"wall_s": demo_s},
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if recorded is not None:
        problems = mismatches(report, recorded) + demo_problems
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        print(f"digests match {args.check} and {DEMO_DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
