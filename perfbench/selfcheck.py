"""Self-check of the benchmark harness on small inputs (under a minute).

    python3 perfbench/selfcheck.py        # from the root of a checkout

1. Runs the ``smoke`` workload (icosphere3, clifford32, square16, Kohn
   grid 16, 200 lemma trials) at two seeds, untraced and traced, and
   requires every operation to pass the oracle, the metric names to
   match BENCHMARK.json, and the traced reports to match the
   untraced ones byte for byte.
2. Tampers with correct reports (one flipped pass flag, one eigenvalue
   moved by a relative 1e-4) and requires both to count as failed.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/, and requires it to exit non-zero without a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

SEEDS = (0, 1)


def _bench(cwd, *args):
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, out.stderr


def check_runs(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for seed in SEEDS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines, err = _bench(root, "--workload", "smoke", "--seed", str(seed),
                                    "--seconds", "0", "--trace", str(trace))
            if rc:
                problems.append(f"seed {seed} trace {trace}: exit {rc}: {err[-500:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 5:
                problems.append(f"seed {seed} trace {trace}: {lines[-1][:200]}")
            want = {m["name"] for m in spec[key]}
            if set(result["metrics"]) != want:
                problems.append(f"trace {trace}: metrics {sorted(result['metrics'])} "
                                f"differ from BENCHMARK.json {sorted(want)}")
    return problems


def _scratch(root):
    (root / run.OUT_DIR).mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root / run.OUT_DIR))


def _flip_pass(report):
    report["records"][0]["pass"] = not report["records"][0]["pass"]


def _move_eigenvalue(report):
    vals = next(iter(report["spectra"].values()))["eigenvalues"]
    vals[-1] *= 1.0 + 1e-4


def check_tampering(root):
    """Each tampered report must count as one failed operation."""
    args = argparse.Namespace(workload="smoke", seed=0)
    ref = json.loads((run.REFERENCE_DIR / "smoke.json").read_text())
    work = _scratch(root)
    try:
        data = run.run_worker(root, run.child_env(root), args, 0, 0, work / "plain",
                              time.monotonic() + run.DEADLINE_MARGIN_S)
        attempted, failed, _ = run.score("smoke", data, ref)
        if failed:
            return [f"untampered smoke run has {failed} failures"]
        problems = []
        results = data["passes"][0]["ops"]
        for res, tamper in zip(results, (_flip_pass, _move_eigenvalue)):
            path = data["out_dir"] / res["report"]
            original = path.read_text()
            report = json.loads(original)
            tamper(report)
            path.write_text(json.dumps(report))
            n, failed, _ = run.score("smoke", data, ref)
            if failed != 1:
                problems.append(f"{tamper.__name__} on {res['name']}: "
                                f"fail_ratio {failed}/{n}, want 1/{n}")
            path.write_text(original)
        return problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory(root):
    """Without the program the benchmark must fail and print no result."""
    bare = _scratch(root)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or '"correct"' in out.stdout:
            return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    root = Path.cwd()
    problems = []
    for check in (check_runs, check_tampering, check_bare_directory):
        found = check(root)
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print("  " + problem)
    try:
        (root / run.OUT_DIR).rmdir()
    except OSError:
        pass  # another run is using it
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
