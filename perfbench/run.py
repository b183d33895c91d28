"""Benchmark of the artifact audit pipeline: certified low spectra ->
inequality audit -> report, on fixed workloads.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload surface-audit --seed 0 --seconds 30 --trace 0

--trace 0 runs the workload in one fresh child process, in as many whole
passes as fit in --seconds (at least one), and reports the end-to-end metrics (median
per pass for times).  --trace 1 runs one untraced and one traced pass,
each in its own child, and reports the per-layer metrics of the traced
one.  Every report is checked by the oracle (oracle.py); the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --record checks a single pass and stores its
reference data (once) and report digests (per seed) under reference/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from oracle import check, digest, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SPEC = HERE.parent / "BENCHMARK.json"
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 6  # before and again after the workload: 12 timed probes
SETUP_PROBE = "import time, artifact.cli, scipy.sparse.linalg; print(time.monotonic())"
# A run ends within --seconds plus this margin, which covers set-up, a
# pass that takes longer than the one before it and a traced pass (one
# surface-audit pass takes about 15-20 s on a 2-core machine).
DEADLINE_MARGIN_S = 130.0
THREAD_VARS = ("SPECTRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def setup_probes(root, env, count, warm=False):
    """Times from process start until the CLI and scipy's sparse solvers
    are imported, one fresh process each.  With ``warm`` a first probe
    compiles bytecode and is not timed."""
    samples = []
    for probe in range(count + warm):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=root, env=env,
                             capture_output=True, text=True, timeout=60)
        if out.returncode:
            raise HarnessError(f"set-up probe failed: {out.stderr.strip()}")
        if probe or not warm:
            samples.append(float(out.stdout) - t0)
    return samples


def run_worker(root, env, args, seconds, trace, out_dir, deadline):
    """Run the workload in a fresh child; returns its measurements."""
    out_dir.mkdir()
    result = out_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir), "--result", str(result)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError("workload still running at the deadline") from None
    finally:
        if proc.returncode is None:  # past the deadline, or told to stop
            proc.kill()
            proc.wait()
    if proc.returncode:
        raise HarnessError(f"worker exited with status {proc.returncode}")
    data = json.loads(result.read_text())
    if Path(data["package"]).resolve().parent != (root / "src" / "artifact").resolve():
        raise HarnessError(f"imported artifact from {data['package']}, not this checkout")
    data["out_dir"] = out_dir
    return data


def score(workload, data, ref):
    """Check every operation of every pass.  Returns (attempted, failed,
    digests), digests being one {op name: sha256} per pass."""
    ops = {op.name: op for op in WORKLOADS[workload]}
    attempted = failed = 0
    digests = []
    for index, one_pass in enumerate(data["passes"]):
        digests.append({})
        for res in one_pass["ops"]:
            attempted += 1
            path = data["out_dir"] / res["report"]
            if res["error"]:
                problems = [res["error"]]
            elif res["rc"] != 0:
                problems = [f"exit status {res['rc']}"]
            elif not path.is_file():
                problems = ["no report written"]
            else:
                text = path.read_bytes()
                digests[-1][res["name"]] = digest(text)
                problems = check(ops[res["name"]], text, ref["ops"][res["name"]])
            if problems:
                failed += 1
                print(f"FAIL pass {index} {res['name']}: " + "; ".join(problems),
                      file=sys.stderr)
    return attempted, failed, digests


def end_to_end(root, env, args, work, deadline, ref):
    # Probes on both sides of the workload, so that one slow spell of a
    # shared host does not decide the median.
    setup = setup_probes(root, env, SETUP_PROBES, warm=True)
    data = run_worker(root, env, args, args.seconds, 0, work / "plain", deadline)
    setup += setup_probes(root, env, SETUP_PROBES)
    attempted, failed, _ = score(args.workload, data, ref)
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in data["passes"]),
        "cpu_s": statistics.median(p["cpu"] for p in data["passes"]),
        # After the first pass, so that it does not depend on how many
        # passes fit in --seconds.
        "peak_rss_mb": data["passes"][0]["maxrss_mb"],
        "setup_s": statistics.median(setup),
    }
    return data, attempted, failed, metrics


def per_layer(root, env, args, work, deadline, ref):
    plain = run_worker(root, env, args, 0, 0, work / "plain", deadline)
    traced = run_worker(root, env, args, 0, 1, work / "traced", deadline)
    attempted, failed, plain_digests = score(args.workload, plain, ref)
    n, f, traced_digests = score(args.workload, traced, ref)
    attempted, failed = attempted + n, failed + f
    # The tracer must not change what the program computes.
    changed = [name for name, d in traced_digests[0].items()
               if plain_digests[0].get(name, d) != d]
    for name in changed:
        print(f"FAIL traced report of {name} differs from the untraced one",
              file=sys.stderr)
    failed += len(changed)
    seed_digests = ref.get("digests", {}).get(str(args.seed), {})
    metrics = dict(traced["layers"])
    metrics["audit.report_bytes"] = sum(
        (traced["out_dir"] / r["report"]).stat().st_size
        for r in traced["passes"][0]["ops"] if (traced["out_dir"] / r["report"]).is_file())
    metrics["audit.digest_matches"] = sum(
        1 for name, d in traced_digests[0].items() if seed_digests.get(name) == d)
    metrics["trace.overhead_ratio"] = traced["passes"][0]["wall"] / plain["passes"][0]["wall"]
    metrics["fail_ratio"] = failed / attempted
    return traced, attempted, failed, metrics


def record(root, env, args, work, deadline, ref):
    """Store the reference data (first recording) and this seed's digests."""
    data = run_worker(root, env, args, 0, 0, work / "plain", deadline)
    results = data["passes"][0]["ops"]
    bad = [r["name"] for r in results if r["error"] or r["rc"] != 0]
    if bad:
        raise HarnessError(f"cannot record a reference from failed operations: {bad}")
    texts = {r["name"]: (data["out_dir"] / r["report"]).read_bytes() for r in results}
    ops = {op.name: op for op in WORKLOADS[args.workload]}
    if ref is None:
        ref = {"workload": args.workload, "oracle_seed": args.seed, "digests": {},
               "ops": {name: summarize(ops[name], t) for name, t in texts.items()}}
    else:
        # Digests are kept even for reports that fail the oracle: they
        # record what the program wrote at this seed.
        attempted, failed, _ = score(args.workload, data, ref)
        if failed:
            print(f"seed {args.seed}: {failed} of {attempted} operations fail "
                  "the stored reference", file=sys.stderr)
    ref["digests"][str(args.seed)] = {name: digest(t) for name, t in texts.items()}
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {path.name} at seed {args.seed}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    start = time.monotonic()
    # A stop request unwinds through the clean-up below, which ends the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = Path.cwd()
    if not (root / "src" / "artifact" / "cli.py").is_file():
        print("run.py: no src/artifact/cli.py in the current directory; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    ref_path = REFERENCE_DIR / f"{args.workload}.json"
    ref = json.loads(ref_path.read_text()) if ref_path.is_file() else None
    if ref is None and not args.record:
        print(f"run.py: no reference {ref_path}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}

    env = child_env(root)
    (root / OUT_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / OUT_DIR))
    deadline = start + args.seconds + DEADLINE_MARGIN_S
    try:
        if args.record:
            return record(root, env, args, work, deadline, ref)
        load = os.getloadavg()
        measure = per_layer if args.trace else end_to_end
        data, attempted, failed, metrics = measure(root, env, args, work, deadline, ref)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / OUT_DIR).rmdir()
        except OSError:
            pass  # another run is using it

    env_info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "loadavg_start": load,
        "threads": 1, **data["versions"], "passes": len(data["passes"]),
        "op_wall_s": {r["name"]: statistics.median(p["ops"][i]["wall"] for p in data["passes"])
                      for i, r in enumerate(data["passes"][0]["ops"])},
    }
    print(json.dumps({"env": env_info}))
    for name, value in metrics.items():
        print(f"{name:<30} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{'fail_ratio':<30} {failed / attempted:.6g} {units['fail_ratio']} "
              f"({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
