"""One workload repetition in a fresh interpreter.

Usage: python3 perfbench/child.py CONFIG OUTPUT_DIR TRACE RUN_ID

Times ``import sensecluster``, then ``sensecluster.runner.run`` with
``jobs=1`` on the given config, writing results to OUTPUT_DIR. With
TRACE=1 the layer boundaries are traced (see ``tracing``). Prints one
JSON object as its last line. Expects ``src`` on PYTHONPATH.
"""

import json
import resource
import sys
import time


def main(config_path: str, output_dir: str, traced: bool, run_id: str) -> dict:
    start = time.perf_counter()
    import sensecluster.runner

    setup_s = time.perf_counter() - start

    config = sensecluster.runner.load_config(config_path)
    config.output_dir = output_dir
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install()

    start = time.perf_counter()
    exit_code = sensecluster.runner.run(config, jobs=1)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
    }
    if tracer is not None:
        out.update(
            spans=tracer.spans,
            calls=tracer.calls,
            counts=tracer.counts,
            digest=tracer.result_digest(),
        )
    return out


if __name__ == "__main__":
    config_path, output_dir, trace_flag, run_id = sys.argv[1:5]
    print(json.dumps(main(config_path, output_dir, trace_flag == "1", run_id)))
