"""Audits of universal eigenvalue inequalities on discretized surfaces.

Every audit record compares a spectral left-hand side against a
geometric right-hand side and reports lhs, rhs, slack = rhs - lhs and a
pass flag.  The catalog for closed surfaces (m = 2 throughout):

==========================  ====  =====================================
id                          p     statement (lambda ascending, 1-based)
==========================  ====  =====================================
gap-curvature-integral      0,1   sum_{l<=m} lam_{j+l} <= 4[(1+m/4) lam_j
                                    - int <R_p w, w> + 1/4 int |H|^2 |w|^2]
gap-curvature-sup           0,1   ... with inf K and sup |H|^2 in place
                                    of the integrals
gap-phi-integral            0-2   sum_{l<=m} lam_{j+l} <= 4[(1+m/4) lam_j
                                    + int phi |w|^2]
gap-phi-sup                 0-2   ... with the sup norm of phi
gap-phi-first               0-2   j = 1 only, fully geometric right side
recursion-basic             0-2   lam_j <= (1+4/m)^{j-1} J_p
                                    + ((1+4/m)^{j-1} - 1) ||phi||
recursion-sharp             0-2   lam_{j+m} <= 4[d1 J_p' + d2 ||phi||]
asada                       1     lam_1 <= J_p
reilly                      0     lam_2 <= (1/(m Vol)) int |H|^2
reilly-sum                  0     sum_{k<=m} lam_{k+1} <= (1/Vol) int |H|^2
==========================  ====  =====================================

with J_p = (p / (m (m-1) Vol)) int [(m-p)|H|^2 + (p-1)|h|^2] and
R_0 = 0, R_1 = K id.  The Dirichlet-with-potential catalog adds
dirichlet-potential-integral / -sup, dirichlet-symmetric-space for
domains in a round sphere, levitin-parnovski for flat zero-potential
domains, and the classical payne-polya-weinberger / hile-protter / yang
chains.  The Kohn sublaplacian spectrum of a box in the Heisenberg
group H^n adds heisenberg-sum: sum_{l<=n} lam_{j+l} <= (n+2) lam_j,
with scale lam_{j_max+n} and allowance 0.

Each audit builds its records only from what it is given: the closed
catalog reads the solved Hodge spectra (``closed_spectra``, which on a
genus-0 mesh derives the p = 1 spectrum from the p = 0 and p = 2
solves instead of factoring the p = 1 pencil), the
Dirichlet catalog reads the assembled pencil, which carries its own
potential, and its solved spectrum.  All three return a list of records.

A record passes when lhs <= rhs + (tol_audit + allowance) * scale with
scale = max(|lhs|, |rhs|, top audited eigenvalue); the additive form
keeps audits meaningful when the right side is exactly zero (kernel
rows).  ``allowance`` absorbs discretization error and should be set
from a two-refinement Richardson comparison.  One builder,
``_recorder``, holds this rule; each catalog binds it once (once per
degree in the closed catalog), so a record states only j, lhs, rhs and
its own terms.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple

import numpy as np

from .curvature import M_DIM, curvature_data, phi_field
# dirichlet_laplacian is unused here; perfbench/spans.py rebinds it by name.
from .dec import dirichlet_laplacian, hodge_laplacian
from .eigensolve import CertificationError, max_pairs, merged_eigenpairs, solve_pair

__all__ = ["AuditError", "DensityField", "reconstruct_density",
           "integrate_against", "whitney_face_mass", "discretization_allowance",
           "closed_spectra", "audit_closed", "audit_dirichlet", "audit_kohn",
           "emit_report"]

AUDIT_TOL = 1e-6
# Reconstructed densities must integrate to 1; the raw integral before
# renormalization is allowed to drift only this far.
DENSITY_FACTOR_RANGE = (0.99, 1.01)


class AuditError(RuntimeError):
    """An audit input or result is unusable (bad density, non-finite value)."""


DensityField = namedtuple("DensityField", ["values", "weights", "domain", "factor"])
DensityField.__doc__ += """

Pointwise squared-magnitude density of an eigenform, normalized so that
sum(weights * values) == 1.  ``domain`` is "vertex" or "face" and
``factor`` is the raw integral before renormalization (the deviation of
the interpolated norm from the lumped norm the solver used).
"""


# -- Whitney interpolation -------------------------------------------------


def whitney_face_mass(mesh):
    """Per-face 3x3 mass matrices of the Whitney 1-form basis, (F, 3, 3).

    Entry (s, t) is the integral over the face of <W_es, W_et> for the
    edges in ``mesh.face_edges`` order, with each W defined by the
    edge's canonical (tail < head) orientation.  Exact, via

        int_T <W_ij, W_kl> = (A/12) [ (1 + d_ik) g_jl - (1 + d_il) g_jk
                                      - (1 + d_jk) g_il + (1 + d_jl) g_ik ]

    where g = G / (4 A^2) is the Gram matrix of the barycentric
    gradients, G the side Gram ``mesh.side_gram`` (grad lambda_a is the
    side opposite corner a turned a quarter in the face plane, over 2A).
    Face side s runs from corner i = s to corner j = s + 1, and
    ``mesh.face_edge_signs`` turns it to the canonical orientation.
    """
    s = np.arange(3)[:, None]  # row side s: corners i = s, j = s + 1
    t = s.T                    # column side t: corners k = t, l = t + 1
    s1, t1 = (s + 1) % 3, (t + 1) % 3
    g = mesh.side_gram
    term = ((1.0 + (s == t)) * (g[:, s1, t1] + g[:, s, t])
            - ((1.0 + (s == t1)) * g[:, s1, t] + (1.0 + (s1 == t)) * g[:, s, t1]))
    sign = mesh.face_edge_signs
    return term * (sign[:, :, None] * sign[:, None, :]
                   / (48.0 * mesh.face_areas)[:, None, None])


def reconstruct_density(mesh, p, vec, face_mass=None):
    """Pointwise squared-magnitude density of a p-eigenform coefficient vector.

    p = 0: density u^2 on vertices, weighted by lumped vertex areas.
    p = 1: per-face average of |w|^2 under Whitney interpolation of the
    edge coefficients.  p = 2: y^2 per face, for the dual-graph
    eigenvector y of ``hodge_laplacian``, which holds the pointwise
    2-form value.  Cochains on the dual cells of ``mesh.dec`` are first
    lifted onto every edge or face (``DecComplex.lifts``).
    The result is renormalized to unit total integral; the raw integral
    is returned as ``factor`` and must lie within DENSITY_FACTOR_RANGE.
    """
    vec = np.asarray(vec, dtype=float)
    if p in mesh.dec.lifts:
        vec = mesh.dec.lifts[p] @ vec
    va, fa = mesh.vertex_areas, mesh.face_areas
    if p == 0:
        raw = vec ** 2
        factor = float(va @ raw)
        values, weights, domain = raw, va, "vertex"
    elif p == 1:
        if face_mass is None:
            face_mass = whitney_face_mass(mesh)
        x = vec[mesh.face_edges]
        per_face = np.einsum("fs,fst,ft->f", x, face_mass, x)
        factor = float(per_face.sum())
        values, weights, domain = per_face / fa, fa, "face"
    elif p == 2:
        raw = vec ** 2
        factor = float(fa @ raw)
        values, weights, domain = raw, fa, "face"
    else:
        raise ValueError(f"form degree must be 0, 1 or 2, got {p}")
    return DensityField(_unit_density(p, values, factor), weights, domain, factor)


def _unit_density(p, values, factor):
    """``values / factor`` once the raw integral ``factor`` is in range."""
    lo, hi = DENSITY_FACTOR_RANGE
    if not (lo <= factor <= hi):
        raise AuditError(
            f"p={p} density integrates to {factor:.6f} before renormalization, "
            f"outside [{lo}, {hi}]; the interpolated and lumped norms disagree")
    return values / factor


def integrate_against(mesh, density, vertex_field):
    """Integral of a vertex scalar field against a reconstructed density.

    Face-supported densities see the field through its per-face corner
    average.
    """
    field = np.asarray(vertex_field, dtype=float)
    if density.domain == "vertex":
        return float(np.sum(density.weights * density.values * field))
    face_avg = field[mesh.faces].mean(axis=1)
    return float(np.sum(density.weights * density.values * face_avg))


# -- audit mechanics -------------------------------------------------------


def _finite(x, what):
    if not math.isfinite(x):
        raise AuditError(f"non-finite value in {what}: {x!r}")
    return float(x)


def _recorder(records, p, common, tol_audit, allowance, scale):
    """The one pass rule: returns ``add(ineq, j, lhs, rhs, **terms)``,
    which appends a record of degree ``p`` to ``records`` with
    ``common`` and ``terms`` as its terms.  The record passes when
    lhs <= rhs + margin, margin = (tol_audit + allowance)
    * max(|lhs|, |rhs|, scale); non-finite values raise ``AuditError``."""
    def add(ineq, j, lhs, rhs, **terms):
        lhs = _finite(lhs, f"{ineq} lhs")
        rhs = _finite(rhs, f"{ineq} rhs")
        margin = (tol_audit + allowance) * max(abs(lhs), abs(rhs), scale)
        records.append({
            "ineq": ineq,
            "p": p,
            "j": j,
            "lhs": lhs,
            "rhs": rhs,
            "slack": rhs - lhs,
            "pass": bool(lhs <= rhs + margin),
            "terms": {**{k: _finite(v, f"{ineq} term {k}") if isinstance(v, float) else v
                         for k, v in {**common, **terms}.items()},
                      "tol_audit": tol_audit, "allowance": allowance, "margin": margin},
        })
    return add


def _check_j_max(j_max):
    """Refuse an audit of no index; the CLI calls this before solving."""
    if j_max < 1:
        raise ValueError(f"j_max must be positive, got {j_max}")


def _sort_records(records):
    records.sort(key=lambda r: (r["ineq"], -1 if r["p"] is None else r["p"], r["j"]))
    return records


def discretization_allowance(fine, coarse):
    """Audit tolerance from a Richardson comparison of two refinements.

    ``fine`` and ``coarse`` map form degree to ``SpectrumResult``s.
    Returns three times the worst relative difference over the shared
    indices past the fine spectrum's ``zero_count`` kernel values.
    """
    worst = 0.0
    for p, spec in fine.items():
        n = min(len(spec.eigenvalues), len(coarse[p].eigenvalues))
        vals_f = spec.eigenvalues[spec.zero_count:n]
        if vals_f.size:
            rel = np.abs(vals_f - coarse[p].eigenvalues[spec.zero_count:n]) / vals_f
            worst = max(worst, float(rel.max()))
    return 3.0 * worst


def closed_spectra(mesh, k, seed=42):
    """Certified spectra of the three Hodge Laplacian pencils.

    p = 0 and p = 2 are solved directly.  On a surface with
    b1 = 2 - chi = 0 the p = 1 spectrum is derived from them (see
    ``_derived_one_forms``) and certified on the assembled p = 1 pencil
    without factoring it.  The derived values are complete at and below
    the smaller of the top p = 0 and top p = 2 eigenvalues, which the
    inertia checks of those two solves certify; if the k-th lies above
    it, p = 0 and p = 2 are solved once more with 2k pairs (at most
    ``max_pairs`` of their dimension), and a second shortfall raises
    ``CertificationError``.  Other surfaces (the torus carries b1 = 2
    harmonic 1-forms) solve the p = 1 pencil directly.
    """
    pairs = {p: hodge_laplacian(mesh, p) for p in (0, 1, 2)}
    spectra = {p: solve_pair(pairs[p], k=k, seed=seed) for p in (0, 2)}
    if mesh.euler_characteristic != 2:  # b1 = 2 - chi harmonic 1-forms
        spectra[1] = solve_pair(pairs[1], k=k, seed=seed)
    else:
        spectra[1] = _derived_one_forms(mesh, pairs[1], spectra[0], spectra[2], k)
        if spectra[1] is None:
            wide = {p: solve_pair(pairs[p], k=min(2 * k, max_pairs(pairs[p].dim)), seed=seed)
                    for p in (0, 2)}
            spectra[1] = _derived_one_forms(mesh, pairs[1], wide[0], wide[2], k)
        if spectra[1] is None:
            raise CertificationError(
                f"fewer than k={k} derived 1-form eigenvalues lie below the "
                "completeness bound, even from 2k pairs of p=0 and p=2")
    return dict(sorted(spectra.items()))


def _derived_one_forms(mesh, pair1, spec0, spec2, k):
    """The k lowest p = 1 pairs of a genus-0 mesh, mapped from p = 0 and p = 2.

    With diagonal stars and d1 d0 = 0 the p = 1 pencil is the exact part
    plus the coexact part, so each nonzero p = 0 pair (lam, u) gives
    w = d0 u / sqrt(lam) and each nonzero p = 2 pair (lam, y) of the
    dual-graph pencil gives w = star1^-1 d1^T y / sqrt(lam), both
    star1-normalised, and
    b1 = 0 leaves no harmonic forms.  ``merged_eigenpairs`` takes the k
    lowest mapped pairs, bounded by the ``meta["complete_below"]`` of
    the p = 0 and p = 2 solves (their top eigenvalue, or ``inf`` for a
    solve that returned its whole spectrum), and re-certifies them on
    ``pair1`` without factoring it; it returns None when the k-th lies
    above the bound.  Since b1 = 0 the inertia count
    below any shift under the bound is (nu0 - 1) + (nu2 - 1), read off
    the two inertia-certified solves.
    """
    for p, spec in ((0, spec0), (2, spec2)):
        if spec.zero_count != 1:
            raise CertificationError(
                f"p={p} solve counts {spec.zero_count} zero eigenvalues; deriving the "
                "1-form spectrum needs b0 = b2 = 1 (one closed genus-0 surface)")
    c = mesh.dec
    lam0, lam2 = spec0.eigenvalues[1:], spec2.eigenvalues[1:]

    def exact(idx):
        return (c.d0 @ spec0.eigenvectors[:, 1 + idx]) / np.sqrt(lam0[idx])

    def coexact(idx):
        return (c.d1.T @ spec2.eigenvectors[:, 1 + idx]) \
            / (c.star1[:, None] * np.sqrt(lam2[idx]))

    tops = [spec.meta["complete_below"] for spec in (spec0, spec2)]
    result = merged_eigenpairs(pair1.stiffness, pair1.mass_diag,
                               list(zip((lam0, lam2), tops, (exact, coexact))), k)
    if result is not None:
        result.meta.update(method="derived", sources=(0, 2))
    return result


def audit_closed(mesh, spectra, j_max=20, tol_audit=AUDIT_TOL, allowance=0.0):
    """Run the full closed-surface catalog; returns the records.

    ``spectra`` maps form degree to the solved Hodge pencil of ``mesh``
    (see ``closed_spectra``), each with at least j_max + 2 eigenvalues.
    """
    if not mesh.is_closed:
        raise AuditError("closed-surface audit needs a closed mesh")
    _check_j_max(j_max)
    k = j_max + M_DIM
    for p in (0, 1, 2):
        if len(spectra[p].eigenvalues) < k:
            raise AuditError(f"need {k} eigenvalues for degree {p}, "
                             f"got {len(spectra[p].eigenvalues)}")

    curv = curvature_data(mesh)
    va, vol = mesh.vertex_areas, mesh.total_area
    int_h2 = float(va @ curv.H_norm2)
    int_mix = {p: float(va @ ((M_DIM - p) * curv.H_norm2 + (p - 1) * curv.h_norm2))
               for p in (0, 1, 2)}
    j_geom = {p: p / (M_DIM * (M_DIM - 1) * vol) * int_mix[p] for p in (0, 1, 2)}
    face_mass = whitney_face_mass(mesh)

    growth = 1.0 + 4.0 / M_DIM     # recursion ratio, = 3
    bump = 1.0 + M_DIM / 4.0       # gap prefactor, = 3/2
    records = []
    for p in (0, 1, 2):
        vals = spectra[p].eigenvalues
        vecs = spectra[p].eigenvectors
        phi = phi_field(curv, p)
        add = _recorder(records, p, {"vol": vol, "zero_count": spectra[p].zero_count},
                        tol_audit, allowance, float(vals[k - 1]))
        geometric = {"geometric_term": j_geom[p], "sup_phi": phi.sup}

        for j in range(1, j_max + 1):
            lam_j = float(vals[j - 1])
            gap_lhs = float(vals[j] + vals[j + 1])
            rho = reconstruct_density(mesh, p, vecs[:, j - 1], face_mass)
            int_h2_rho = integrate_against(mesh, rho, curv.H_norm2)
            int_phi_rho = integrate_against(mesh, rho, phi.values)

            if p in (0, 1):
                int_curv_rho = integrate_against(mesh, rho, curv.K) if p == 1 else 0.0
                delta1 = curv.inf_K if p == 1 else 0.0
                add("gap-curvature-integral", j, gap_lhs,
                    4.0 * (bump * lam_j - int_curv_rho + 0.25 * int_h2_rho),
                    lambda_j=lam_j, curvature_term=int_curv_rho, h2_term=int_h2_rho,
                    density_factor=rho.factor)
                add("gap-curvature-sup", j, gap_lhs,
                    4.0 * (bump * lam_j - delta1 + 0.25 * curv.sup_H2),
                    lambda_j=lam_j, inf_curvature=delta1, sup_h2=curv.sup_H2)

            add("gap-phi-integral", j, gap_lhs, 4.0 * (bump * lam_j + int_phi_rho),
                lambda_j=lam_j, phi_term=int_phi_rho, density_factor=rho.factor)
            add("gap-phi-sup", j, gap_lhs, 4.0 * (bump * lam_j + phi.sup),
                lambda_j=lam_j, sup_phi=phi.sup)

            ratio = growth ** (j - 1)
            add("recursion-basic", j, lam_j, ratio * j_geom[p] + (ratio - 1.0) * phi.sup,
                **geometric)
            add("recursion-sharp", j, float(vals[j + 1]),
                4.0 * (bump * ratio * j_geom[p] + (bump * ratio - M_DIM / 4.0) * phi.sup),
                **geometric)

        add("gap-phi-first", 1, float(vals[1] + vals[2]), 4.0 * (bump * j_geom[p] + phi.sup),
            **geometric)
        if p == 1:
            add("asada", 1, float(vals[0]), j_geom[1], geometric_term=j_geom[1])
        if p == 0:
            add("reilly", 2, float(vals[1]), int_h2 / (M_DIM * vol), int_h2=int_h2)
            add("reilly-sum", 1, float(vals[1] + vals[2]), int_h2 / vol, int_h2=int_h2)

    return _sort_records(records)


def audit_dirichlet(mesh, pair, spectrum, ambient="flat", j_max=15,
                    tol_audit=AUDIT_TOL, allowance=0.0):
    """Run the Dirichlet-with-potential catalog; returns the records.

    ``pair`` is the pencil ``dirichlet_laplacian(mesh, potential)`` and
    ``spectrum`` its solution with at least j_max + 2 eigenvalues.  The
    potential is read from ``pair.potential``, the interior values the
    pencil was assembled with, so the audit always sees the operator
    that was solved.  ``ambient`` is "flat" for domains immersed in a
    plane (enables the flat zero-potential chain) or "sphere" for
    domains in a unit round sphere (enables the symmetric-space form).
    """
    if ambient not in ("flat", "sphere"):
        raise ValueError(f'ambient must be "flat" or "sphere", got {ambient!r}')
    _check_j_max(j_max)
    if not pair.dirichlet:
        raise AuditError("Dirichlet audit needs a Dirichlet pencil")
    k = j_max + M_DIM
    if len(spectrum.eigenvalues) < k:
        raise AuditError(f"need {k} eigenvalues, got {len(spectrum.eigenvalues)}")

    interior = pair.interior_index_map
    q_int = pair.potential
    zero_potential = not q_int.any()
    curv = curvature_data(mesh)
    h2_int = curv.H_norm2[interior]
    weights = pair.mass_diag
    sup_field = float(np.abs(h2_int - 4.0 * q_int).max())

    vals = spectrum.eigenvalues
    vecs = spectrum.eigenvectors
    records = []
    add = _recorder(records, 0, {"zero_count": spectrum.zero_count}, tol_audit, allowance,
                    float(vals[k - 1]))
    for j in range(1, j_max + 1):
        lam_j = float(vals[j - 1])
        gap_lhs = float(vals[j] + vals[j + 1])
        raw = vecs[:, j - 1] ** 2
        factor = float(weights @ raw)
        rho = _unit_density(0, raw, factor)
        int_term = float(weights @ (rho * (0.25 * h2_int - q_int)))

        add("dirichlet-potential-integral", j, gap_lhs,
            4.0 * ((1.0 + M_DIM / 4.0) * lam_j + int_term),
            lambda_j=lam_j, potential_term=int_term, density_factor=factor)
        add("dirichlet-potential-sup", j, gap_lhs, (4.0 + M_DIM) * lam_j + sup_field,
            lambda_j=lam_j, sup_field=sup_field)
        if ambient == "sphere":
            intrinsic = np.maximum(h2_int - 4.0, 0.0)
            rss_sup = float(np.abs(intrinsic + 4.0 - 4.0 * q_int).max())
            add("dirichlet-symmetric-space", j, gap_lhs, (4.0 + M_DIM) * lam_j + rss_sup,
                lambda_j=lam_j, sup_field=rss_sup, curvature_shift=4.0)
        if ambient == "flat" and zero_potential:
            add("levitin-parnovski", j, gap_lhs, (4.0 + M_DIM) * lam_j, lambda_j=lam_j)

    if zero_potential:
        add("payne-polya-weinberger", 1, float(vals[1]),
            (1.0 + 4.0 / M_DIM) * float(vals[0]), lambda_1=float(vals[0]))
        for j in range(1, j_max + 1):
            add("hile-protter", j, float(vals[j]),
                (1.0 + 4.0 / M_DIM) * float(np.mean(vals[:j])),
                mean_below=float(np.mean(vals[:j])))
            gaps = float(vals[j]) - vals[:j]
            add("yang", j, float(np.sum(gaps ** 2)),
                4.0 / M_DIM * float(np.sum(gaps * vals[:j])), lambda_next=float(vals[j]))

    return _sort_records(records)


def audit_kohn(eigenvalues, n, j_max, tol_audit=AUDIT_TOL):
    """Audit sum_{l=1}^n lambda_{j+l} <= (n + 2) lambda_j for j <= j_max.

    ``eigenvalues`` is the Kohn sublaplacian spectrum of a box in H^n and
    must contain at least j_max + n entries in ascending order.  Returns
    one ``heisenberg-sum`` record per j, with allowance 0.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    _check_j_max(j_max)
    if len(vals) < j_max + n:
        raise ValueError(
            f"need at least j_max + n = {j_max + n} eigenvalues, got {len(vals)}")
    if (np.diff(vals) < -1e-12 * max(1.0, abs(vals[-1]))).any():
        raise ValueError("eigenvalues must be in ascending order")
    records = []
    add = _recorder(records, None, {"n": n}, tol_audit, 0.0, float(vals[j_max + n - 1]))
    for j in range(1, j_max + 1):
        lam_j = float(vals[j - 1])
        add("heisenberg-sum", j, float(vals[j:j + n].sum()), (n + 2.0) * lam_j, lambda_j=lam_j)
    return records


# -- reports ---------------------------------------------------------------


def emit_report(records, mesh_name, refinement, spectra=None, fmt="json"):
    """Serialize audit records deterministically; returns the text.

    JSON layout: {"mesh", "refinement", "records", "spectra"?} with the
    records ordered by (ineq, p, j); ``spectra`` maps a form degree or
    "kohn" to a SpectrumResult.  CSV flattens one record per row
    with the terms as a JSON column.  Non-finite values are refused.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f'fmt must be "json" or "csv", got {fmt!r}')
    records = _sort_records([dict(r) for r in records])
    for rec in records:
        for key in ("lhs", "rhs", "slack"):
            _finite(rec[key], f'{rec["ineq"]} {key}')
        for key, val in rec["terms"].items():
            if isinstance(val, float):
                _finite(val, f'{rec["ineq"]} term {key}')

    if fmt == "json":
        payload = {"mesh": mesh_name, "refinement": int(refinement),
                   "records": records}
        if spectra is not None:
            payload["spectra"] = {str(p): s.to_json_dict(p)
                                  for p, s in sorted(spectra.items())}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["mesh", "refinement", "ineq", "p", "j",
                         "lhs", "rhs", "slack", "pass", "terms"])
        for rec in records:
            writer.writerow([
                mesh_name, refinement, rec["ineq"],
                "" if rec["p"] is None else rec["p"], rec["j"],
                repr(rec["lhs"]), repr(rec["rhs"]), repr(rec["slack"]),
                str(rec["pass"]).lower(),
                json.dumps(rec["terms"], sort_keys=True),
            ])
        text = buf.getvalue()
    return text
