"""Child process of the benchmark: runs one workload's operations.

run.py starts it with the thread pools pinned and ``PYTHONPATH`` set to
the checkout's ``src``.  Operations run one after another in this
process (a closed loop with one client), in whole passes over the
workload.  Another pass starts only while it is expected, from the last
pass's time, to end within ``--seconds``; at least one pass runs.
Measurements go to the JSON file named by ``--result``.

    python3 perfbench/worker.py --workload kohn-box --seed 0 --seconds 30 \\
        --trace 0 --out-dir DIR --result DIR/result.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, cpu_seconds, install, layer_metrics
from workloads import WORKLOADS


def _run_op(main, op, seed, out, tracer):
    argv = [*op.argv, "--seed", str(seed), "--out", str(out)]
    t0, c0 = time.perf_counter(), cpu_seconds()
    error = None
    try:
        rc = tracer.call("cli.main", main, argv)[1] if tracer else main(argv)
    except (Exception, SystemExit) as exc:  # an operation that raises has failed
        traceback.print_exc()
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return {"name": op.name, "wall": time.perf_counter() - t0,
            "cpu": cpu_seconds() - c0, "rc": rc, "error": error,
            "report": out.name}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import numpy
    import scipy
    import artifact
    import artifact.cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    ops = WORKLOADS[args.workload]
    passes = []
    start = time.perf_counter()
    while (not passes
           or time.perf_counter() - start + passes[-1]["wall"] <= args.seconds):
        t0, c0 = time.perf_counter(), cpu_seconds()
        results = [_run_op(artifact.cli.main, op, args.seed,
                           args.out_dir / f"{len(passes)}-{op.name}.out", tracer)
                   for op in ops]
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes.append({"wall": time.perf_counter() - t0,
                       "cpu": cpu_seconds() - c0, "ops": results,
                       "maxrss_mb": rss_kib / 1024})

    payload = {
        "package": artifact.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": _blas_build(numpy)},
        "passes": passes,
    }
    if tracer:
        payload["layers"] = layer_metrics(tracer.spans)
    args.result.write_text(json.dumps(payload))


def _blas_build(numpy):
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


if __name__ == "__main__":
    main()
