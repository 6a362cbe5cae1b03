#!/usr/bin/env python3
"""sensecluster benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 60 --trace 0

Writes the workload's seeded corpora and config under ``.perfbench_work/``,
then, until ``--seconds`` are used, runs ``sensecluster.runner.run``
(``jobs=1``) on them in fresh child processes, one per repetition, and
checks every repetition's output files. The last line of standard output
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from traced repetitions with ``--trace 1``. ``--record-golden`` stores the output and trace digests
of the default seed in ``golden.json`` instead. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_outputs, output_digests
from tracing import COUNTED, SPANNED, self_times
from workloads import ROOT, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
# with --seconds up to 60, a hung child still ends the run within 180 s
CHILD_TIMEOUT_S = 110
# self time plus child spans must account for the traced wall time to within this
ACCOUNTING_TOL = 0.01


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_rep(workload, config: Path, outdir: Path, traced: bool, run_id: str, golden=None) -> dict:
    """One repetition in a fresh interpreter, with its output checked."""
    args = [str(config), str(outdir), str(int(traced)), run_id]
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {run_id} exited with {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    failed, problems = check_outputs(
        outdir, workload, rep["exit_code"], golden["outputs"] if golden else None
    )
    rep["failed"], rep["problems"] = failed, problems
    rep["outputs"] = output_digests(outdir)
    if traced:
        selfs = self_times(rep["spans"])
        rep["self_s"] = selfs
        unaccounted = abs(sum(selfs.values()) - rep["wall_s"])
        if unaccounted > ACCOUNTING_TOL * rep["wall_s"] + 1e-3:
            problems.append(f"{run_id}: spans miss {unaccounted:.4f} s of the traced wall time")
        missing = sorted(n for n in workload.expected if rep["calls"].get(n, 0) == 0)
        if missing:
            problems.append(f"{run_id}: no calls recorded for {missing}")
        if golden and rep["digest"] != golden["trace"]:
            problems.append(f"{run_id}: merge traces or EM assignments differ from golden.json")
    return rep


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> list[dict]:
    """Repeat the workload until ``seconds`` are used; return every repetition."""
    config = write_inputs(workload, seed, workdir / "inputs")
    golden = None
    if seed == DEFAULT_SEED and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text())[workload.name]
    modes = (False, True) if trace else (False,)
    reps: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            run_id = f"{workload.name}-{seed}-{len(reps)}"
            outdir = workdir / run_id
            rep = run_rep(workload, config, outdir, traced, run_id, golden)
            rep["traced"] = traced
            reps.append(rep)
            shutil.rmtree(outdir)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return reps


def _consistency_problems(reps: list[dict]) -> list[str]:
    """Every repetition of one seed must write the same files and see the same results."""
    problems = []
    if len({json.dumps(r["outputs"], sort_keys=True) for r in reps}) > 1:
        problems.append("repetitions wrote different output files")
    traced = [r for r in reps if r["traced"]]
    if len({r["digest"] for r in traced}) > 1:
        problems.append("traced repetitions saw different merge traces or EM assignments")
    if len({json.dumps([r["calls"], r["counts"]], sort_keys=True) for r in traced}) > 1:
        problems.append("traced repetitions recorded different call counts")
    return problems


def end_to_end(workload, reps: list[dict]) -> dict:
    # Other tenants of a shared host only ever add time, in phases of tens
    # of seconds, so the fastest repetition is the steadiest estimate of
    # the program's own cost; a run median follows the host's phase.
    wall = min(r["wall_s"] for r in reps)
    return {
        "wall_s": (wall, "s"),
        "trials_per_s": (workload.trials_total / wall, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
    }


def per_layer(reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = traced[0]
    calls, counts = first["calls"], first["counts"]

    def self_s(name):
        return statistics.median(r["self_s"].get(name, 0.0) for r in traced)

    metrics = {}
    for module_name, fn_name in SPANNED:
        name = f"{module_name}.{fn_name}"
        metrics[f"{name}.self_s"] = (self_s(name), "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for module_name, fn_name in COUNTED:
        name = f"{module_name}.{fn_name}"
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    metrics["dissim.bytes"] = (counts.get("dissim.bytes", 0), "bytes")
    merges = {alg: counts.get(f"agglom.{alg}.merges", 0) for alg in ("mcquitty", "ward")}
    metrics["agglom.merges"] = (sum(merges.values()), "count")
    for alg, count in merges.items():
        us = self_s(f"agglom.{alg}") / count * 1e6 if count else 0.0
        metrics[f"agglom.{alg}.merge_us"] = (us, "us")
    iterations = counts.get("em.iterations", 0)
    fits = calls.get("em.fit", 0)
    metrics["em.iterations"] = (iterations, "count")
    us = self_s("em.fit") / iterations * 1e6 if iterations else 0.0
    metrics["em.iter_us"] = (us, "us")
    ratio = counts.get("em.converged", 0) / fits if fits else 0.0
    metrics["em.converged_ratio"] = (ratio, "ratio")
    cells = sum(1 for path in first["outputs"] if path.startswith("confusion/"))
    metrics["runner.cells"] = (cells, "count")
    metrics["trace.wall_s"] = (statistics.median(r["wall_s"] for r in traced), "s")
    # each traced repetition is compared with the untraced one just before it
    overheads = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


def record_golden(workload) -> None:
    """Store the default seed's output and trace digests for ``workload``."""
    with tempfile.TemporaryDirectory(dir=_work_root()) as tmp:
        workdir = Path(tmp)
        config = write_inputs(workload, DEFAULT_SEED, workdir / "inputs")
        rep = run_rep(workload, config, workdir / "out", True, "golden")
    if rep["problems"] or rep["failed"]:
        raise RuntimeError(f"not recording a failing run: {rep['problems']}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[workload.name] = {"outputs": rep["outputs"], "trace": rep["digest"]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _work_root() -> Path:
    root = ROOT / ".perfbench_work"
    root.mkdir(exist_ok=True)
    return root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "sensecluster" / "runner.py", ROOT / "demo" / "make_corpora.py"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} not found", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.record_golden:
        record_golden(workload)
        return 0

    with tempfile.TemporaryDirectory(dir=_work_root()) as tmp:
        reps = measure(workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    problems = [p for r in reps for p in r["problems"]] + _consistency_problems(reps)
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    attempted = workload.trials_total * len(reps)
    failed = sum(r["failed"] for r in reps)
    metrics = per_layer(reps) if args.trace else end_to_end(workload, reps)
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
