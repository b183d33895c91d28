import ast
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from artifact import audit
from artifact.audit import (AuditError, audit_closed, audit_dirichlet,
                            audit_kohn, closed_spectra,
                            discretization_allowance, emit_report,
                            integrate_against, reconstruct_density,
                            whitney_face_mass)
from artifact.dec import dirichlet_laplacian, hodge_laplacian
from artifact.eigensolve import solve_pair
from artifact.mesh import TriangleMesh


def solved_dirichlet(mesh, potential=None, k=8):
    """A Dirichlet pencil and its spectrum, as the audit receives them."""
    pair = dirichlet_laplacian(mesh, potential)
    return pair, solve_pair(pair, k=k)


@pytest.fixture(scope="module")
def sphere2_spectra(sphere2):
    return closed_spectra(sphere2, k=8)


@pytest.fixture(scope="module")
def square16_solved(square16):
    return solved_dirichlet(square16)


@pytest.fixture(scope="module")
def square16_q15(square16):
    return solved_dirichlet(square16, np.full(square16.num_vertices, 1.5), k=6)


def midpoint_whitney_mass(verts):
    """Edge-midpoint quadrature oracle for the Whitney mass of one triangle.

    Exact for the quadratic integrand <W_s, W_t>; works in any ambient
    dimension by computing in an in-plane orthonormal frame.
    """
    q1 = verts[1] - verts[0]
    q1 = q1 / np.linalg.norm(q1)
    q2 = verts[2] - verts[0]
    q2 = q2 - (q2 @ q1) * q1
    q2 = q2 / np.linalg.norm(q2)
    pts = np.array([[(v - verts[0]) @ q1, (v - verts[0]) @ q2] for v in verts])
    u, w = pts[1] - pts[0], pts[2] - pts[0]
    area = 0.5 * abs(u[0] * w[1] - u[1] * w[0])
    vandermonde = np.column_stack([np.ones(3), pts])
    coeffs = np.linalg.inv(vandermonde)  # column a: (const, grad) of lambda_a
    grads = coeffs[1:, :].T              # (3, 2)

    sides = [(0, 1), (1, 2), (0, 2)]     # canonical (min, max) per face side
    mids = [(pts[a] + pts[b]) / 2.0 for a, b in [(0, 1), (1, 2), (2, 0)]]
    mass = np.zeros((3, 3))
    for s, (i, j) in enumerate(sides):
        for t, (k, l) in enumerate(sides):
            total = 0.0
            for m in mids:
                lam = coeffs.T @ np.array([1.0, m[0], m[1]])
                w_s = lam[i] * grads[j] - lam[j] * grads[i]
                w_t = lam[k] * grads[l] - lam[l] * grads[k]
                total += w_s @ w_t
            mass[s, t] = area / 3.0 * total
    return mass


@pytest.mark.parametrize("ambient_dim", [3, 4])
def test_whitney_mass_matches_midpoint_quadrature(ambient_dim):
    rng = np.random.default_rng(17 + ambient_dim)
    for _ in range(5):
        verts = rng.standard_normal((3, ambient_dim))
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        local = whitney_face_mass(mesh)[0]
        oracle = midpoint_whitney_mass(verts)
        assert np.abs(local - oracle).max() < 1e-13 * np.abs(oracle).max()


def test_whitney_mass_positive_definite(sphere2):
    local = whitney_face_mass(sphere2)
    assert np.abs(local - local.transpose(0, 2, 1)).max() < 1e-15
    eigs = np.linalg.eigvalsh(local)
    assert eigs.min() > 0.0


def test_density_normalization_all_degrees(sphere2):
    spectra = closed_spectra(sphere2, k=4)
    for p in (0, 1, 2):
        rho = reconstruct_density(sphere2, p, spectra[p].eigenvectors[:, 2])
        assert abs(float(rho.weights @ rho.values) - 1.0) < 1e-12
        assert rho.domain == ("vertex" if p == 0 else "face")
        assert integrate_against(
            sphere2, rho, np.ones(sphere2.num_vertices)) == pytest.approx(1.0)
    # lumped mass makes the p = 0 and p = 2 factors exactly the solver norm
    rho0 = reconstruct_density(sphere2, 0, spectra[0].eigenvectors[:, 1])
    assert abs(rho0.factor - 1.0) < 1e-12
    rho2 = reconstruct_density(sphere2, 2, spectra[2].eigenvectors[:, 1])
    assert abs(rho2.factor - 1.0) < 1e-12


def test_density_factor_near_one_for_whitney(sphere2):
    res = solve_pair(hodge_laplacian(sphere2, 1), k=6)
    for idx in range(6):
        rho = reconstruct_density(sphere2, 1, res.eigenvectors[:, idx])
        assert 0.99 <= rho.factor <= 1.0 + 1e-12


def test_density_factor_gate(sphere2):
    res = solve_pair(hodge_laplacian(sphere2, 0), k=2)
    with pytest.raises(AuditError, match="density"):
        reconstruct_density(sphere2, 0, 2.0 * res.eigenvectors[:, 1])
    with pytest.raises(ValueError):
        reconstruct_density(sphere2, 3, res.eigenvectors[:, 1])


def test_discretization_allowance():
    fine = {0: np.array([0.0, 2.0, 2.0]), 1: np.array([1.0, 2.0, 4.0])}
    coarse = {0: np.array([1e-9, 2.1, 2.0]), 1: np.array([1.0, 2.0, 4.4])}
    # kernel row excluded; worst live deviation is 0.1 at degree 1
    assert discretization_allowance(fine, coarse) == pytest.approx(0.3)
    assert discretization_allowance(fine, fine) == 0.0


def test_audit_closed_catalog_shape(sphere2, sphere2_spectra):
    records = audit_closed(sphere2, sphere2_spectra, j_max=5)
    assert len(records) == 16 * 5 + 6
    assert all(r["pass"] for r in records)
    ids = {r["ineq"] for r in records}
    assert ids == {"gap-curvature-integral", "gap-curvature-sup",
                   "gap-phi-integral", "gap-phi-sup", "gap-phi-first",
                   "recursion-basic", "recursion-sharp", "asada",
                   "reilly", "reilly-sum"}
    assert {p for r in records for p in [r["p"]]} == {0, 1, 2}
    asada = [r for r in records if r["ineq"] == "asada"]
    assert len(asada) == 1 and asada[0]["p"] == 1
    assert all(r["p"] in (0, 1) for r in records
               if r["ineq"].startswith("gap-curvature"))
    # records arrive sorted by (ineq, p, j)
    keys = [(r["ineq"], r["p"], r["j"]) for r in records]
    assert keys == sorted(keys)


def test_audit_closed_reilly_terms(sphere2, sphere2_spectra):
    spectra = sphere2_spectra
    records = audit_closed(sphere2, spectra, j_max=2)
    reilly = next(r for r in records if r["ineq"] == "reilly")
    # lambda_2 <= int |H|^2 / (2 Vol): on the unit sphere both sides -> 2
    assert reilly["lhs"] == pytest.approx(spectra[0].eigenvalues[1])
    assert reilly["rhs"] == pytest.approx(2.0, rel=0.02)
    rsum = next(r for r in records if r["ineq"] == "reilly-sum")
    assert rsum["lhs"] == pytest.approx(float(np.sum(spectra[0].eigenvalues[1:3])))
    assert rsum["rhs"] == pytest.approx(2.0 * reilly["rhs"])


def test_sharp_recursion_dominates_basic(sphere2, sphere2_spectra):
    records = audit_closed(sphere2, sphere2_spectra, j_max=6)
    basic = {(r["p"], r["j"]): r["rhs"] for r in records
             if r["ineq"] == "recursion-basic"}
    sharp = {(r["p"], r["j"]): r["rhs"] for r in records
             if r["ineq"] == "recursion-sharp"}
    for (p, j), rhs in sharp.items():
        if (p, j + 2) in basic:
            assert rhs <= basic[(p, j + 2)] + 1e-12 * abs(rhs)


def test_audit_closed_respects_allowance(sphere2, sphere2_spectra):
    # a failing record can only be rescued by a declared allowance
    records = audit_closed(sphere2, sphere2_spectra, j_max=3, tol_audit=-0.9)
    assert any(not r["pass"] for r in records)
    records = audit_closed(sphere2, sphere2_spectra, j_max=3, tol_audit=-0.9,
                           allowance=2.0)
    assert all(r["pass"] for r in records)
    assert all(r["terms"]["allowance"] == 2.0 for r in records)


def test_audit_closed_precomputed_spectra_and_errors(sphere2, square16,
                                                     sphere2_spectra):
    records = audit_closed(sphere2, sphere2_spectra, j_max=3)
    assert len(records) == 16 * 3 + 6
    with pytest.raises(AuditError, match="closed"):
        audit_closed(square16, sphere2_spectra, j_max=3)
    with pytest.raises(ValueError):
        audit_closed(sphere2, sphere2_spectra, j_max=0)
    # j_max = 7 needs 9 eigenvalues per degree; the spectra hold 8
    with pytest.raises(AuditError, match="eigenvalues"):
        audit_closed(sphere2, sphere2_spectra, j_max=7)


def test_audit_dirichlet_catalog(square16, square16_solved):
    pair, spectrum = square16_solved
    records = audit_dirichlet(square16, pair, spectrum, ambient="flat", j_max=6)
    assert len(records) == 31
    assert all(r["pass"] for r in records)
    vals = spectrum.eigenvalues
    lp = {r["j"]: r for r in records if r["ineq"] == "levitin-parnovski"}
    assert len(lp) == 6
    for j, rec in lp.items():
        assert rec["rhs"] == pytest.approx(6.0 * vals[j - 1], rel=1e-14)
        assert rec["lhs"] == pytest.approx(float(vals[j] + vals[j + 1]), rel=1e-14)
    # coarse-grid slack of the gap bound at j = 1 approaches 2 pi^2
    assert lp[1]["slack"] == pytest.approx(2.0 * np.pi**2, rel=0.06)
    ppw = next(r for r in records if r["ineq"] == "payne-polya-weinberger")
    assert ppw["rhs"] == pytest.approx(3.0 * vals[0], rel=1e-14)
    assert ppw["lhs"] == pytest.approx(vals[1], rel=1e-14)


def test_audit_dirichlet_potential_drops_flat_chain(square16, square16_q15):
    records = audit_dirichlet(square16, *square16_q15, ambient="flat", j_max=4)
    ids = {r["ineq"] for r in records}
    assert "levitin-parnovski" not in ids
    assert "payne-polya-weinberger" not in ids
    assert ids == {"dirichlet-potential-integral", "dirichlet-potential-sup"}
    assert all(r["pass"] for r in records)


def test_audit_dirichlet_reads_potential_from_pencil(square16, square16_q15,
                                                    square16_solved):
    # H = 0 inside the flat square, so each integral term is -q exactly
    # up to roundoff; the flat zero-potential chain is absent
    records = audit_dirichlet(square16, *square16_q15, ambient="flat", j_max=4)
    terms = [r["terms"]["potential_term"] for r in records
             if r["ineq"] == "dirichlet-potential-integral"]
    assert len(terms) == 4
    assert terms == pytest.approx([-1.5] * 4, abs=1e-12)
    assert "levitin-parnovski" not in {r["ineq"] for r in records}
    # the pencil never sees boundary values: a boundary-only potential is
    # the zero-potential operator, and it is audited as one
    q = np.where(square16.boundary_vertex, 3.0, 0.0)
    boundary_only = audit_dirichlet(square16, *solved_dirichlet(square16, q),
                                    ambient="flat", j_max=6)
    assert boundary_only == audit_dirichlet(square16, *square16_solved,
                                            ambient="flat", j_max=6)


def test_audit_dirichlet_reuses_given_pencil(square16, monkeypatch):
    q = np.full(square16.num_vertices, 0.5)
    pair, spectrum = solved_dirichlet(square16, q, k=6)
    expected = audit_dirichlet(square16, pair, spectrum, ambient="flat", j_max=4)

    def refuse(*args, **kwargs):
        raise AssertionError("pencil assembled or solved again")

    monkeypatch.setattr("artifact.audit.dirichlet_laplacian", refuse)
    monkeypatch.setattr("artifact.audit.solve_pair", refuse)
    records = audit_dirichlet(square16, pair, spectrum, ambient="flat", j_max=4)
    assert records == expected


def test_audit_dirichlet_sphere_cap_sup_agreement(cap3):
    records = audit_dirichlet(cap3, *solved_dirichlet(cap3, k=6),
                              ambient="sphere", j_max=4)
    dir_sup = {r["j"]: r["rhs"] for r in records
               if r["ineq"] == "dirichlet-potential-sup"}
    rss = {r["j"]: r["rhs"] for r in records
           if r["ineq"] == "dirichlet-symmetric-space"}
    scale = max(abs(v) for v in dir_sup.values())
    for j in dir_sup:
        # |H|^2 >= 4 somewhere on a spherical cap, so both sup fields
        # coincide; this ties the two bound families together
        assert abs(dir_sup[j] - rss[j]) <= 1e-9 * scale


def test_audit_dirichlet_errors(sphere2, square16, square16_solved):
    pair, spectrum = square16_solved
    with pytest.raises(AuditError, match="Dirichlet pencil"):
        audit_dirichlet(sphere2, hodge_laplacian(sphere2, 0), spectrum,
                        ambient="flat", j_max=2)
    with pytest.raises(ValueError):
        audit_dirichlet(square16, pair, spectrum, ambient="hyperbolic", j_max=2)
    with pytest.raises(ValueError):
        audit_dirichlet(square16, pair, spectrum, ambient="flat", j_max=0)
    # j_max = 7 needs 9 eigenvalues; the spectrum holds 8
    with pytest.raises(AuditError, match="eigenvalues"):
        audit_dirichlet(square16, pair, spectrum, ambient="flat", j_max=7)


def test_audit_kohn_pass_rule_is_additive():
    # lhs exceeds rhs = 3 by 5e-6: beyond 1e-6 * rhs, but within
    # 1e-6 * lambda_top = 1e-5, the margin every catalog uses
    recs = audit_kohn(np.array([1.0, 3.0 + 5e-6, 10.0]), n=1, j_max=2)
    r1 = recs[0]
    assert r1["lhs"] - r1["rhs"] > 1e-6 * r1["rhs"]
    assert r1["terms"]["margin"] == 1e-6 * 10.0
    assert r1["pass"]


def test_record_schema_shared_by_all_catalogs(sphere2, square16, sphere2_spectra,
                                              square16_solved):
    closed = audit_closed(sphere2, sphere2_spectra, j_max=2)
    dirichlet = audit_dirichlet(square16, *square16_solved, ambient="flat", j_max=2)
    kohn = audit_kohn(np.array([1.0, 2.0, 2.5, 7.0]), n=2, j_max=2)
    assert all(type(recs) is list for recs in (closed, dirichlet, kohn))
    keys = {"ineq", "p", "j", "lhs", "rhs", "slack", "pass", "terms"}
    for rec in closed + dirichlet + kohn:
        assert rec.keys() == keys
        assert {"tol_audit", "allowance", "margin"} <= rec["terms"].keys()


def test_one_builder_holds_the_pass_rule():
    # only _recorder computes a margin or builds a record with a "pass" key
    def rule_nodes(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id == "margin" and isinstance(n.ctx, ast.Store)
                or isinstance(n, ast.Dict) and any(isinstance(key, ast.Constant)
                                                   and key.value == "pass" for key in n.keys)]

    tree = ast.parse(Path(audit.__file__).read_text())
    (builder,) = [f for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_recorder"]
    assert len(rule_nodes(builder)) == 2
    assert rule_nodes(tree) == rule_nodes(builder)


def test_emit_report_json_deterministic(sphere2):
    s1, s2 = closed_spectra(sphere2, k=5), closed_spectra(sphere2, k=5)
    r1 = audit_closed(sphere2, s1, j_max=3)
    r2 = audit_closed(sphere2, s2, j_max=3)
    t1 = emit_report(r1, "sphere", 2, spectra=s1)
    t2 = emit_report(r2, "sphere", 2, spectra=s2)
    assert t1 == t2
    payload = json.loads(t1)
    assert payload["mesh"] == "sphere" and payload["refinement"] == 2
    assert set(payload["spectra"]) == {"0", "1", "2"}
    assert len(payload["records"]) == 16 * 3 + 6


def test_emit_report_csv_layout(square16, square16_solved):
    pair, spectrum = square16_solved
    records = audit_dirichlet(square16, pair, spectrum, ambient="flat", j_max=3)
    text = emit_report(records, "square", 16, spectra={0: spectrum}, fmt="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["mesh", "refinement", "ineq", "p", "j",
                       "lhs", "rhs", "slack", "pass", "terms"]
    assert len(rows) == 1 + len(records)
    body = rows[1:]
    assert [r[2] for r in body] == sorted(r[2] for r in body)
    lhs_back = float(body[0][5])
    assert lhs_back == records[0]["lhs"]
    terms = json.loads(body[0][9])
    assert "tol_audit" in terms and "margin" in terms


def test_emit_report_refuses_nonfinite():
    bad = {"ineq": "x", "p": 0, "j": 1, "lhs": float("nan"), "rhs": 1.0,
           "slack": 1.0, "pass": True, "terms": {}}
    with pytest.raises(AuditError, match="non-finite"):
        emit_report([bad], "m", 1)
    with pytest.raises(ValueError):
        emit_report([], "m", 1, fmt="yaml")
