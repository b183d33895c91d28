"""Acceptance gate: eight build criteria, one pass/fail line each.

Run with ``pytest -v`` (the test names carry the verdict) or ``pytest -s``
to see the printed ACCEPTANCE lines.  Expensive spectra are computed once
per module and their wall time is charged to every criterion that
consumes them, so the runtime limits are conservative.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from artifact.audit import (audit_closed, audit_dirichlet, audit_kohn,
                            closed_spectra, discretization_allowance,
                            emit_report)
from artifact.cli import main as cli_main
from artifact.commutator import run_trials
from artifact.curvature import curvature_data
from artifact.dec import dirichlet_laplacian, hodge_laplacian
from artifact.eigensolve import solve_pair
from artifact.heisenberg import (build_kohn_laplacian, heisenberg_grid,
                                 kohn_spectrum)
from artifact.mesh import clifford_torus, flat_rectangle, geodesic_cap, icosphere


def _verdict(criterion, detail, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status} - {detail}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def ico4():
    t0 = time.perf_counter()
    mesh = icosphere(1.0, 4)
    spectra = closed_spectra(mesh, k=22)
    return SimpleNamespace(mesh=mesh, spectra=spectra,
                           seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def cliff64():
    t0 = time.perf_counter()
    mesh = clifford_torus(64, 64)
    spectra = closed_spectra(mesh, k=22)
    return SimpleNamespace(mesh=mesh, spectra=spectra,
                           seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def square64():
    t0 = time.perf_counter()
    mesh = flat_rectangle(1.0, 1.0, 64, 64)
    pair = dirichlet_laplacian(mesh)
    spectrum = solve_pair(pair, k=17)
    return SimpleNamespace(mesh=mesh, pair=pair, spectrum=spectrum,
                           seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def ico4_audit(ico4):
    coarse = closed_spectra(icosphere(1.0, 3), k=22)
    allowance = discretization_allowance(ico4.spectra, coarse)
    records = audit_closed(ico4.mesh, ico4.spectra, j_max=20,
                           allowance=allowance)
    text = emit_report(records, "icosphere4", 4, spectra=ico4.spectra)
    return SimpleNamespace(records=records, allowance=allowance, text=text)


@pytest.fixture(scope="module")
def cliff64_audit(cliff64):
    coarse = closed_spectra(clifford_torus(32, 32), k=22)
    allowance = discretization_allowance(cliff64.spectra, coarse)
    records = audit_closed(cliff64.mesh, cliff64.spectra, j_max=20,
                           allowance=allowance)
    text = emit_report(records, "clifford64", 64, spectra=cliff64.spectra)
    return SimpleNamespace(records=records, allowance=allowance, text=text)


def _cap_audit(refinement):
    mesh = geodesic_cap(np.pi / 3.0, refinement)
    pair = dirichlet_laplacian(mesh)
    spectrum = solve_pair(pair, k=10)
    records = audit_dirichlet(mesh, pair, spectrum, ambient="sphere", j_max=8)
    text = emit_report(records, f"cap{refinement}", refinement,
                       spectra={0: spectrum})
    return SimpleNamespace(mesh=mesh, records=records, spectrum=spectrum,
                           text=text)


@pytest.fixture(scope="module")
def cap3_audit():
    return _cap_audit(3)


@pytest.fixture(scope="module")
def cap4_audit():
    return _cap_audit(4)


def test_criterion_1_closed_form_spectra(square64, ico4, cliff64):
    failures = []

    pq = sorted(p * p + q * q for p in range(1, 8) for q in range(1, 8))[:10]
    exact = np.pi ** 2 * np.array(pq, dtype=float)
    err = np.abs(square64.spectrum.eigenvalues[:10] / exact - 1.0).max()
    if err > 0.01:
        failures.append(f"square64 Dirichlet spectrum off by {err:.3%} > 1%")

    v0 = ico4.spectra[0].eigenvalues
    if ico4.spectra[0].zero_count != 1:
        failures.append("icosphere4 p=0 kernel is not 1-dimensional")
    if np.abs(v0[1:4] / 2.0 - 1.0).max() > 0.02:
        failures.append("icosphere4 p=0 triple at 2 off by > 2%")
    if np.abs(v0[4:9] / 6.0 - 1.0).max() > 0.02:
        failures.append("icosphere4 p=0 quintuple at 6 off by > 2%")
    if v0[9] < 6.0 * 1.5:
        failures.append("icosphere4 p=0 multiplicity pattern does not end at 9")

    v1 = ico4.spectra[1].eigenvalues
    if ico4.spectra[1].zero_count != 0:
        failures.append("icosphere4 p=1 unexpectedly has harmonic forms")
    if np.abs(v1[:6] / 2.0 - 1.0).max() > 0.02:
        failures.append("icosphere4 p=1 lowest six not within 2% of 2")

    if cliff64.spectra[1].zero_count != 2:
        failures.append(
            f"clifford64 p=1 zero_count {cliff64.spectra[1].zero_count} != 2")

    elapsed = square64.seconds + ico4.seconds + cliff64.seconds
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s > 120s")
    _verdict(1, f"closed-form spectra, square err {err:.2%}, "
                f"{elapsed:.1f}s", failures)


def test_criterion_2_reilly_equality(ico4, cliff64):
    def rel_gap(mesh, spectrum):
        vals = spectrum.eigenvalues
        curv = curvature_data(mesh)
        rhs = float(mesh.vertex_areas @ curv.H_norm2) / mesh.total_area
        lhs = float(vals[1] + vals[2])
        return (rhs - lhs) / rhs

    failures = []
    sphere_gaps, torus_gaps = [], []
    for r in (3, 4, 5):
        if r == 4:
            mesh, spec = ico4.mesh, ico4.spectra[0]
        else:
            mesh = icosphere(1.0, r)
            spec = solve_pair(hodge_laplacian(mesh, 0), k=3)
        sphere_gaps.append(rel_gap(mesh, spec))
    for n in (32, 64, 128):
        if n == 64:
            mesh, spec = cliff64.mesh, cliff64.spectra[0]
        else:
            mesh = clifford_torus(n, n)
            spec = solve_pair(hodge_laplacian(mesh, 0), k=3)
        torus_gaps.append(rel_gap(mesh, spec))

    for g in sphere_gaps:
        if not 0.0 <= g <= 0.03:
            failures.append(f"sphere relative gap {g:.2e} outside [0, 3%]")
    for a, b in zip(sphere_gaps, sphere_gaps[1:]):
        if not b < a:
            failures.append(f"sphere gap did not shrink: {a:.2e} -> {b:.2e}")
    # on the exact dual-cell complex the chordal grid torus has
    # lambda_2 = lambda_3 = 2 and |H|^2 = 4 at every vertex, both to
    # rounding, so the equality holds to rounding at every refinement
    for g in torus_gaps:
        if not abs(g) <= 1e-12:
            failures.append(f"torus relative gap {g:.2e} beyond 1e-12")
    _verdict(2, "generalized Reilly equality, sphere gaps "
                + "/".join(f"{g:.1e}" for g in sphere_gaps)
                + ", torus gaps " + "/".join(f"{g:.1e}" for g in torus_gaps),
             failures)


def test_criterion_3_dirichlet_chains(square64):
    records = audit_dirichlet(square64.mesh, square64.pair, square64.spectrum,
                              ambient="flat", j_max=15)
    failures = []
    lp1 = next(r for r in records
               if r["ineq"] == "levitin-parnovski" and r["j"] == 1)
    dev = abs(lp1["slack"] / (2.0 * np.pi ** 2) - 1.0)
    if dev > 0.03:
        failures.append(f"gap-bound slack off 2 pi^2 by {dev:.3%} > 3%")
    for ineq in ("payne-polya-weinberger", "hile-protter", "yang"):
        chain = [r for r in records if r["ineq"] == ineq]
        if not chain:
            failures.append(f"{ineq} missing from the catalog")
        for rec in chain:
            if not rec["pass"]:
                failures.append(f"{ineq} j={rec['j']} failed")
    _verdict(3, f"Dirichlet chains on square64, slack dev {dev:.2%}", failures)


def test_criterion_4_full_closed_suite(ico4_audit, cliff64_audit):
    failures = []
    for name, audit in (("icosphere4", ico4_audit),
                        ("clifford64", cliff64_audit)):
        if len(audit.records) != 16 * 20 + 6:
            failures.append(f"{name} has {len(audit.records)} records, "
                            f"expected {16 * 20 + 6}")
        for rec in audit.records:
            if not rec["pass"]:
                failures.append(f"{name} {rec['ineq']} p={rec['p']} "
                                f"j={rec['j']} failed")
    _verdict(4, "full closed suite j<=20, allowances "
                f"{ico4_audit.allowance:.4f}/{cliff64_audit.allowance:.4f}",
             failures)


def test_criterion_5_commutator_identity_trials():
    t0 = time.perf_counter()
    random_recs = run_trials(10000, dim_min=2, dim_max=50, seed=0)
    degen_recs = run_trials(1000, dim_min=2, dim_max=50, seed=1,
                            degenerate=True)
    elapsed = time.perf_counter() - t0
    failures = []
    worst_res = max(r["max_residual"] / r["scale"]
                    for r in random_recs + degen_recs)
    if worst_res > 1e-9:
        failures.append(f"identity residual {worst_res:.2e} > 1e-9 of scale")
    worst_coupling = max(r["max_coupling"] / r["coupling_scale"]
                         for r in degen_recs)
    if worst_coupling > 1e-10:
        failures.append(f"degenerate coupling {worst_coupling:.2e} > 1e-10")
    if len(random_recs) != 10000 or len(degen_recs) != 1000:
        failures.append("trial counts wrong")
    if elapsed > 180.0:
        failures.append(f"runtime {elapsed:.1f}s > 180s")
    _verdict(5, f"11k commutator trials, worst residual {worst_res:.1e}, "
                f"worst coupling {worst_coupling:.1e}, {elapsed:.1f}s",
             failures)


def test_criterion_6_kohn_sublaplacian():
    t0 = time.perf_counter()
    failures = []
    lam1 = {}
    for g in (32, 48):
        grid = heisenberg_grid(1, 1.0, 1.0, g)
        lap = build_kohn_laplacian(grid)
        if (lap != lap.T).nnz != 0:
            failures.append(f"{g}^3 operator not exactly symmetric")
        del lap
        res = kohn_spectrum(grid, k=12)
        if res.eigenvalues[0] <= 0.0:
            failures.append(f"{g}^3 operator not positive definite")
        records = audit_kohn(res.eigenvalues, n=1, j_max=10)
        for rec in records:
            if not rec["pass"]:
                failures.append(f"{g}^3 lambda_(j+1) <= 3 lambda_j failed "
                                f"at j={rec['j']}")
        lam1[g] = float(res.eigenvalues[0])
    agree = abs(lam1[48] - lam1[32]) / lam1[48]
    if agree > 0.02:
        failures.append(f"lambda_1 grid agreement {agree:.3%} > 2%")
    elapsed = time.perf_counter() - t0
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s > 300s")
    _verdict(6, f"Kohn box 32^3/48^3, lambda_1 agreement {agree:.3%}, "
                f"{elapsed:.1f}s", failures)


def test_criterion_7_cross_audit_consistency(ico4_audit, cliff64_audit,
                                             cap3_audit, cap4_audit):
    failures = []
    for name, audit in (("cap3", cap3_audit), ("cap4", cap4_audit)):
        sup = {r["j"]: r["rhs"] for r in audit.records
               if r["ineq"] == "dirichlet-potential-sup"}
        rss = {r["j"]: r["rhs"] for r in audit.records
               if r["ineq"] == "dirichlet-symmetric-space"}
        scale = max(abs(v) for v in sup.values())
        for j in sup:
            if abs(sup[j] - rss[j]) > 1e-9 * scale:
                failures.append(f"{name} j={j}: sphere-form and euclidean "
                                f"right sides differ beyond 1e-9")
    for name, audit in (("icosphere4", ico4_audit),
                        ("clifford64", cliff64_audit)):
        integral = {(r["p"], r["j"]): r["rhs"] for r in audit.records
                    if r["ineq"] == "gap-phi-integral"}
        sup = {(r["p"], r["j"]): r["rhs"] for r in audit.records
               if r["ineq"] == "gap-phi-sup"}
        for key, rhs in sup.items():
            if rhs < integral[key] - 1e-12 * abs(rhs):
                failures.append(f"{name} {key}: sup-form right side below "
                                f"integral form")
        basic = {(r["p"], r["j"]): r["rhs"] for r in audit.records
                 if r["ineq"] == "recursion-basic"}
        sharp = {(r["p"], r["j"]): r["rhs"] for r in audit.records
                 if r["ineq"] == "recursion-sharp"}
        for (p, j), rhs in sharp.items():
            if (p, j + 2) in basic and rhs > basic[(p, j + 2)] * (1 + 1e-12):
                failures.append(f"{name} p={p} j={j}: sharp recursion looser "
                                f"than basic")
    _verdict(7, "cross-audit consistency on caps, sphere and torus", failures)


def test_criterion_8_determinism(ico4, ico4_audit, cap4_audit, tmp_path):
    failures = []

    # a second, independent solve of the same pencils
    spectra = closed_spectra(ico4.mesh, k=22)
    records = audit_closed(ico4.mesh, spectra, j_max=20,
                           allowance=ico4_audit.allowance)
    fresh = emit_report(records, "icosphere4", 4, spectra=spectra)
    if fresh != ico4_audit.text:
        failures.append("closed-suite report not byte-identical across runs")

    cap_again = _cap_audit(4)
    if cap_again.text != cap4_audit.text:
        failures.append("Dirichlet report not byte-identical across runs")

    heis = []
    for _ in range(2):
        res = kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 18), k=8, seed=42)
        recs = audit_kohn(res.eigenvalues, n=1, j_max=6)
        heis.append(emit_report(recs, "heisenberg-n1", 18,
                                spectra={"kohn": res}))
    if heis[0] != heis[1]:
        failures.append("Kohn report not byte-identical across runs")

    out1, out2 = tmp_path / "l1.json", tmp_path / "l2.json"
    args = ["lemma-check", "--trials", "300", "--degenerate-trials", "30",
            "--dim-min", "2", "--dim-max", "20", "--seed", "3"]
    if cli_main(args + ["--out", str(out1)]) != 0:
        failures.append("lemma-check run 1 did not pass")
    if cli_main(args + ["--out", str(out2)]) != 0:
        failures.append("lemma-check run 2 did not pass")
    if out1.read_bytes() != out2.read_bytes():
        failures.append("lemma-check payload not byte-identical across runs")

    _verdict(8, "same-seed reruns byte-identical for all report kinds",
             failures)
