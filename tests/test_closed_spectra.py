"""The 1-form spectrum of a genus-0 surface, derived from p = 0 and p = 2.

The direct solve of the assembled p = 1 pencil is the oracle.
"""

import numpy as np
import pytest

import artifact.audit
import artifact.eigensolve
from artifact.audit import audit_closed, closed_spectra
from artifact.dec import hodge_laplacian
from artifact.eigensolve import CertificationError, _verify_inertia, solve_pair
from artifact.mesh import TriangleMesh, clifford_torus, icosphere


def record_factor_dims(monkeypatch):
    """Dimensions of every sparse factorization made from here on."""
    dims = []
    factor = artifact.eigensolve._factor_symmetric
    monkeypatch.setattr(artifact.eigensolve, "_factor_symmetric",
                        lambda k_csc: dims.append(k_csc.shape[0]) or factor(k_csc))
    return dims


def disjoint_union(*meshes):
    """One mesh made of the given meshes side by side, in the largest ambient space."""
    dim = max(m.ambient_dim for m in meshes)
    verts, faces, offset = [], [], 0
    for shift, m in enumerate(meshes):
        v = np.zeros((m.num_vertices, dim))
        v[:, :m.ambient_dim] = m.vertices
        v[:, 0] += 5.0 * shift
        verts.append(v)
        faces.append(m.faces + offset)
        offset += m.num_vertices
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


@pytest.mark.parametrize("refinement", [3, 4])
def test_derived_one_forms_match_direct_solve(refinement):
    mesh = icosphere(1.0, refinement)
    spectra = closed_spectra(mesh, k=22)
    derived = spectra[1]
    pair = hodge_laplacian(mesh, 1)
    direct = solve_pair(pair, k=22)

    rel = np.abs(derived.eigenvalues - direct.eigenvalues) / direct.eigenvalues
    assert rel.max() < 1e-12
    w = derived.eigenvectors
    gram = w.T @ (pair.mass_diag[:, None] * w)
    assert np.abs(gram - np.eye(22)).max() < 1e-12
    r = pair.stiffness @ w - (pair.mass_diag[:, None] * w) * derived.eigenvalues
    scale = np.abs(pair.stiffness).sum(axis=1).max()
    assert (np.linalg.norm(r, axis=0) / scale).max() < 1e-12
    assert derived.residuals.max() < 1e-12
    assert derived.zero_count == direct.zero_count == 0

    flags = [r["pass"] for r in audit_closed(mesh, spectra, j_max=20)]
    oracle = [r["pass"] for r in audit_closed(mesh, {**spectra, 1: direct}, j_max=20)]
    assert flags == oracle

    # provenance: the inertia count follows from the two source solves and
    # agrees with a factorization of the p = 1 pencil at the same lambda'
    meta = derived.meta
    assert meta["method"] == "derived" and meta["sources"] == (0, 2)
    bound = meta["complete_below"]
    assert bound == min(spectra[0].eigenvalues[-1], spectra[2].eigenvalues[-1])
    nu = {p: int((spectra[p].eigenvalues < meta["inertia_shift"]).sum()) for p in (0, 2)}
    assert meta["inertia_count"] == (nu[0] - 1) + (nu[2] - 1)
    below = np.sort(np.concatenate([spectra[0].eigenvalues[1:], spectra[2].eigenvalues[1:]]))
    below = below[below < bound]
    check = _verify_inertia(pair.stiffness, pair.mass_diag, np.append(below, bound), 22)
    assert check["inertia_shift"] == meta["inertia_shift"]
    assert check["inertia_count"] == meta["inertia_count"]
    assert "meta" not in derived.to_json_dict(1)


def test_coexact_map_of_dual_graph_pairs_certifies_on_p1(sphere3):
    """Each nonzero dual-graph p = 2 pair (lam, y) maps to
    w = star1^-1 d1^T y / sqrt(lam), a star1-unit eigenvector of the
    p = 1 pencil with the same value; every coexact value of the derived
    spectrum is one of them."""
    spec2 = solve_pair(hodge_laplacian(sphere3, 2), k=22)
    pair1 = hodge_laplacian(sphere3, 1)
    c = sphere3.dec
    lam, y = spec2.eigenvalues[1:], spec2.eigenvectors[:, 1:]
    w = (c.d1.T @ y) / (c.star1[:, None] * np.sqrt(lam))
    gram = w.T @ (pair1.mass_diag[:, None] * w)
    assert np.abs(gram - np.eye(len(lam))).max() < 1e-10
    r = pair1.stiffness @ w - (pair1.mass_diag[:, None] * w) * lam
    scale = np.abs(pair1.stiffness).sum(axis=1).max()
    assert (np.linalg.norm(r, axis=0) / scale).max() < 1e-12
    derived = closed_spectra(sphere3, k=22)[1]
    assert derived.meta["method"] == "derived"
    assert derived.residuals.max() < 1e-12
    coexact = np.isin(derived.eigenvalues, lam)
    assert coexact.any() and not coexact.all()


def test_sphere_factors_no_one_form_pencil(monkeypatch, sphere3):
    dims = record_factor_dims(monkeypatch)
    spectra = closed_spectra(sphere3, k=22)
    assert dims and sphere3.num_edges not in dims
    assert spectra[1].meta["method"] == "derived"


def test_torus_keeps_direct_one_form_solve(monkeypatch, torus16):
    dims = record_factor_dims(monkeypatch)
    spectra = closed_spectra(torus16, k=12)
    # the p = 1 pencil has a row per kept edge: one diagonal per grid square drops
    kept = torus16.dec.star1.size
    assert kept == torus16.num_edges - torus16.num_vertices and kept in dims
    direct = solve_pair(hodge_laplacian(torus16, 1), k=12)
    assert np.array_equal(spectra[1].eigenvalues, direct.eigenvalues)
    assert spectra[1].zero_count == 2


def test_derived_path_needs_one_kernel_per_degree(monkeypatch, sphere2):
    solve = artifact.audit.solve_pair

    def two_zeros_at_p0(pair, **kwargs):
        result = solve(pair, **kwargs)
        if pair.degree == 0:
            result.zero_count = 2
        return result

    monkeypatch.setattr(artifact.audit, "solve_pair", two_zeros_at_p0)
    with pytest.raises(CertificationError, match="b0 = b2 = 1"):
        closed_spectra(sphere2, k=8)


def test_other_topologies_never_derive():
    # two spheres: chi = 4, so the p = 1 pencil is solved directly
    spheres = closed_spectra(disjoint_union(icosphere(1.0, 1), icosphere(1.0, 1)), k=6)
    assert spheres[0].zero_count == 2 and spheres[1].meta["method"] == "shift-invert"
    assert spheres[1].zero_count == 0
    # a sphere beside a torus has chi = 2 but b0 = 2: refused, not derived
    with pytest.raises(CertificationError, match="b0 = b2 = 1"):
        closed_spectra(disjoint_union(icosphere(1.0, 1), clifford_torus(8, 8)), k=6)


def test_short_union_widens_once(monkeypatch, sphere2):
    calls = []
    solve = artifact.audit.solve_pair
    monkeypatch.setattr(artifact.audit, "solve_pair",
                        lambda pair, k, **kw: calls.append((pair.degree, k))
                        or solve(pair, k=k, **kw))
    # at k = 4 the l = 1 triples fill the union up to the bound
    spectra = closed_spectra(sphere2, k=4)
    assert calls == [(0, 4), (2, 4), (0, 8), (2, 8)]
    assert [len(spectra[p].eigenvalues) for p in (0, 1, 2)] == [4, 4, 4]
    direct = solve_pair(hodge_laplacian(sphere2, 1), k=4).eigenvalues
    assert np.abs(spectra[1].eigenvalues - direct).max() < 1e-12 * direct.max()

    # a second shortfall: the derivation sees only the first k pairs again
    derive, narrow = artifact.audit._derived_one_forms, []

    def without_the_wide_solves(mesh, pair1, spec0, spec2, k):
        narrow[:] = narrow or [spec0, spec2]
        return derive(mesh, pair1, *narrow, k)

    monkeypatch.setattr(artifact.audit, "_derived_one_forms", without_the_wide_solves)
    calls.clear()
    with pytest.raises(CertificationError, match="completeness bound"):
        closed_spectra(sphere2, k=4)
    assert calls == [(0, 4), (2, 4), (0, 8), (2, 8)]


def test_whole_source_spectra_are_complete(tetra):
    # dense solves of the tetrahedron return every p = 0 and p = 2 pair,
    # so no top eigenvalue limits the union: all E = 6 values are known
    spectra = closed_spectra(tetra, k=4)
    direct = solve_pair(hodge_laplacian(tetra, 1), k=4).eigenvalues
    assert np.abs(spectra[1].eigenvalues - direct).max() < 1e-12
    assert spectra[1].meta["complete_below"] == np.inf
    assert spectra[1].meta["inertia_count"] == tetra.num_edges
