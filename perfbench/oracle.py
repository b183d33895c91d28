"""Correctness oracle: checks one operation's report against the reference.

The reference (``reference/<workload>.json``) was recorded from the
seed commit with ``run.py --record``.  An audit or Kohn report must
have the same (ineq, p, j) record keys and the same pass flags, every
spectrum's eigenvalues within EIG_REL of the largest audited
eigenvalue, and the same kernel counts; a lemma-check report must pass
with every relative residual at most LEMMA_RESIDUAL.  Report bytes are
compared separately (``digest``) and a mismatch is not a failure: a
change may move report numbers if it says which ones move.
"""

from __future__ import annotations

import hashlib
import json

EIG_REL = 1e-6
LEMMA_RESIDUAL = 1e-9


def digest(data):
    return hashlib.sha256(data).hexdigest()


def summarize(op, text):
    """The parts of a report the oracle compares, as stored in a reference."""
    report = json.loads(text)
    if op.is_lemma:
        return {"pass": report["pass"]}
    return {
        "records": sorted(([r["ineq"], r["p"], r["j"], r["pass"]]
                           for r in report["records"]),
                          key=lambda r: (r[0], -1 if r[1] is None else r[1], r[2])),
        "spectra": {key: {"eigenvalues": s["eigenvalues"], "zero_count": s["zero_count"]}
                    for key, s in report["spectra"].items()},
    }


def check(op, text, ref):
    """List of problems with one report; empty when it is correct."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if op.is_lemma:
        return _check_lemma(report)

    problems = []
    got = {(r["ineq"], r["p"], r["j"]): r["pass"] for r in report.get("records", ())}
    want = {(i, p, j): ok for i, p, j, ok in ref["records"]}
    if got.keys() != want.keys():
        problems.append(f"record keys differ: {len(got.keys() - want.keys())} extra, "
                        f"{len(want.keys() - got.keys())} missing")
    flipped = sorted(k for k in got.keys() & want.keys() if got[k] != want[k])
    if flipped:
        problems.append(f"pass flag differs for {len(flipped)} records, first {flipped[0]}")

    spectra = report.get("spectra", {})
    for key, ref_spec in ref["spectra"].items():
        spec = spectra.get(key)
        if spec is None:
            problems.append(f"spectrum {key} missing")
            continue
        vals, ref_vals = spec["eigenvalues"], ref_spec["eigenvalues"]
        if len(vals) != len(ref_vals):
            problems.append(f"spectrum {key}: {len(vals)} eigenvalues, want {len(ref_vals)}")
        else:
            tol = EIG_REL * max(abs(v) for v in ref_vals)
            worst = max(abs(a - b) for a, b in zip(vals, ref_vals))
            if not worst <= tol:
                problems.append(f"spectrum {key}: eigenvalue off by {worst:.3e} > {tol:.3e}")
        if spec["zero_count"] != ref_spec["zero_count"]:
            problems.append(f"spectrum {key}: zero_count {spec['zero_count']}, "
                            f"want {ref_spec['zero_count']}")
    for key, count in op.zero_counts.items():
        if spectra.get(key, {}).get("zero_count") != count:
            problems.append(f"spectrum {key}: zero_count is not the Betti number {count}")
    return problems


def _check_lemma(report):
    problems = []
    if report.get("pass") is not True:
        problems.append("lemma-check did not pass")
    runs = report.get("runs") or [{}]
    worst = max(r.get("max_relative_residual", float("inf")) for r in runs)
    if not worst <= LEMMA_RESIDUAL:
        problems.append(f"max relative residual {worst!r} > {LEMMA_RESIDUAL}")
    return problems
