"""The 1-form spectrum of a closed surface, derived from p = 0, p = 2 and
the harmonic 1-forms.

The direct solve of the assembled p = 1 pencil, and a dense ``eigh`` of
it, are the oracles.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

import artifact.audit
import artifact.eigensolve
from artifact.audit import _harmonic_one_forms, audit_closed, closed_spectra
from artifact.cli import main
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


def dense_one_form_values(mesh):
    pair = hodge_laplacian(mesh, 1)
    return eigh(pair.stiffness.toarray(), np.diag(pair.mass_diag), eigvals_only=True)


TOPOLOGIES = {
    "sphere": lambda: icosphere(1.0, 3),
    "torus": lambda: clifford_torus(16, 16),
    "two-spheres": lambda: disjoint_union(icosphere(1.0, 1), icosphere(1.0, 1)),
    "sphere-beside-torus": lambda: disjoint_union(icosphere(1.0, 1), clifford_torus(8, 8)),
}


@pytest.mark.parametrize("topology", [*TOPOLOGIES, "spectrum-p1"])
def test_no_closed_path_factors_a_one_form_pencil(monkeypatch, tmp_path, topology):
    dims = record_factor_dims(monkeypatch)
    # dense solves factor nothing: record the dimension of every solve too
    solve = artifact.eigensolve.smallest_eigenpairs
    monkeypatch.setattr(artifact.eigensolve, "smallest_eigenpairs",
                        lambda a, *args, **kw: dims.append(a.shape[0]) or solve(a, *args, **kw))
    if topology == "spectrum-p1":
        mesh = clifford_torus(8, 8)
        out = tmp_path / "p1.json"
        assert main(["spectrum", "--mesh", "clifford8", "-p", "1", "-k", "22",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["zero_count"] == 2
    else:
        mesh = TOPOLOGIES[topology]()
        assert closed_spectra(mesh, k=22)[1].meta["method"] == "derived"
    # the p = 1 pencil has a row per kept edge, more than p = 0 or p = 2
    assert dims and mesh.dec.star1.size not in dims


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [16, 32])
def test_torus_one_forms_match_direct_solve(n, seed):
    mesh = clifford_torus(n, n)
    derived = closed_spectra(mesh, k=22, seed=seed)[1]
    direct = solve_pair(hodge_laplacian(mesh, 1), k=22, seed=seed)
    assert derived.meta["method"] == "derived"
    assert derived.zero_count == direct.zero_count == 2
    # the two harmonic forms are exact zeros; the rest agree off the kernel
    assert not derived.eigenvalues[:2].any()
    lam = direct.eigenvalues
    assert np.abs(derived.eigenvalues[2:] - lam[2:]).max() < 1e-12 * lam[-1]
    assert derived.residuals.max() < 1e-12
    if n == 16:
        dense = dense_one_form_values(mesh)[:22]
        assert (np.abs(derived.eigenvalues[2:] - dense[2:]) / dense[2:]).max() < 1e-12


@pytest.mark.parametrize("n, seed", [(16, 3), (64, 0)])
def test_harmonic_forms_are_the_constant_forms_of_the_torus(n, seed):
    # on clifford64 at seed 0 one projection pass leaves d1 h at 1.6e-11
    # of the scale below; the second pass brings it to about 1e-14
    mesh = clifford_torus(n, n)
    pairs = {p: hodge_laplacian(mesh, p) for p in (0, 1, 2)}
    c = mesh.dec
    h = _harmonic_one_forms(mesh, pairs, seed=seed)
    assert h.shape == (c.star1.size, 2)
    assert np.abs(h.T @ (c.star1[:, None] * h) - np.eye(2)).max() < 1e-12
    # closed, coclosed and in the p = 1 kernel to rounding, against the
    # infinity norm of each operator
    for op in (c.d1, c.d0.T @ sp.diags(c.star1), pairs[1].stiffness):
        assert np.abs(op @ h).max() < 1e-12 * abs(op).sum(axis=1).max() * np.abs(h).max()
    # du and dv: the grid steps of each kept edge, wrapped around the torus
    grid = np.divmod(np.arange(mesh.num_vertices), n)
    for steps in grid:
        du = np.mod(c.d0 @ steps + n / 2, n) - n / 2
        assert np.abs(du).max() == 1.0
        rest = du - h @ (h.T @ (c.star1 * du))
        assert np.sqrt(c.star1 @ rest ** 2) < 1e-12 * np.sqrt(c.star1 @ du ** 2)


def test_no_harmonic_solve_without_harmonic_forms(monkeypatch, sphere2):
    monkeypatch.setattr(artifact.audit, "grounded_solver",
                        lambda *a, **kw: pytest.fail("solved for harmonic forms of a sphere"))
    pairs = {p: hodge_laplacian(sphere2, p) for p in (0, 1, 2)}
    assert _harmonic_one_forms(sphere2, pairs, seed=0).shape == (sphere2.dec.star1.size, 0)
    assert closed_spectra(sphere2, k=8)[1].zero_count == 0


def test_torus_derives_its_one_forms(monkeypatch, torus16):
    dims, grounded = record_factor_dims(monkeypatch), []
    solver = artifact.audit.grounded_solver
    monkeypatch.setattr(artifact.audit, "grounded_solver",
                        lambda a, ground: grounded.append((a.shape[0], len(ground)))
                        or solver(a, ground))
    spectra = closed_spectra(torus16, k=12)
    # the p = 1 pencil has a row per kept edge: one diagonal per grid square drops
    kept = torus16.dec.star1.size
    assert kept == torus16.num_edges - torus16.num_vertices and kept not in dims
    # one grounded solver each for the p = 0 and p = 2 stiffness, one row
    # grounded on the one component
    assert grounded == [(torus16.num_vertices, 1), (torus16.dec.cell_areas.size, 1)]
    direct = solve_pair(hodge_laplacian(torus16, 1), k=12)
    lam = direct.eigenvalues
    assert np.abs(spectra[1].eigenvalues - lam).max() < 1e-12 * lam[-1]
    assert spectra[1].zero_count == 2
    assert spectra[1].meta["method"] == "derived"


def test_derived_path_needs_one_kernel_per_degree(monkeypatch, sphere2):
    solve = artifact.audit.solve_pair
    zeros = {}

    def miscounted(pair, **kwargs):
        result = solve(pair, **kwargs)
        result.zero_count = zeros.get(pair.degree, result.zero_count)
        return result

    monkeypatch.setattr(artifact.audit, "solve_pair", miscounted)
    for degree, count in ((0, 2), (2, 0)):
        zeros.clear()
        zeros[degree] = count
        with pytest.raises(CertificationError, match=f"p={degree} solve counts {count} "
                           "zero eigenvalues, not one per connected component"):
            closed_spectra(sphere2, k=8)
    # two spheres have b0 = 2: one zero at p = 0 is one too few
    zeros.clear()
    zeros[0] = 1
    with pytest.raises(CertificationError, match=r"\(b0 = 2\)"):
        closed_spectra(disjoint_union(icosphere(1.0, 1), icosphere(1.0, 1)), k=6)


def test_every_topology_derives():
    # two spheres: b0 = 2, b1 = 0; a sphere beside a torus: b0 = 2, b1 = 2
    for mesh, b0, b1 in ((disjoint_union(icosphere(1.0, 1), icosphere(1.0, 1)), 2, 0),
                         (disjoint_union(icosphere(1.0, 1), clifford_torus(8, 8)), 2, 2)):
        assert mesh.num_components == b0 and 2 * b0 - mesh.euler_characteristic == b1
        spectra = closed_spectra(mesh, k=6)
        assert spectra[0].zero_count == spectra[2].zero_count == b0
        derived = spectra[1]
        assert derived.meta["method"] == "derived" and derived.zero_count == b1
        dense = dense_one_form_values(mesh)[:6]
        assert np.abs(derived.eigenvalues - dense).max() < 1e-10 * dense[-1]


def test_short_union_widens_until_complete(monkeypatch, sphere2):
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

    # a second shortfall: the derivation sees only the first k pairs again,
    # so the asks double once more
    derive, narrow = artifact.audit._derived_one_forms, []

    def the_wide_solves_late(mesh, pair1, sources, harmonic, k):
        narrow.append(sources)
        return derive(mesh, pair1, narrow[0] if len(narrow) == 2 else sources, harmonic, k)

    monkeypatch.setattr(artifact.audit, "_derived_one_forms", the_wide_solves_late)
    calls.clear()
    late = closed_spectra(sphere2, k=4)
    assert calls == [(0, 4), (2, 4), (0, 8), (2, 8), (0, 16), (2, 16)]
    assert np.abs(late[1].eigenvalues - direct).max() < 1e-12 * direct.max()

    # two disjoint spheres at k = 6: the first round holds four nonzero
    # values per degree, and the widened round completes the union
    monkeypatch.setattr(artifact.audit, "_derived_one_forms", derive)
    calls.clear()
    assert closed_spectra(disjoint_union(icosphere(1.0, 1), icosphere(1.0, 1)), k=6)
    assert calls == [(0, 6), (2, 6), (0, 12), (2, 12)]


def test_sources_see_past_the_kernel_at_small_k(sphere2):
    # a solve of k <= b0 pairs returns only kernel values, whose zero
    # count is not b0: the sources are asked for b0 + 1 pairs at least
    for mesh, k in ((sphere2, 1), (disjoint_union(icosphere(1.0, 1), icosphere(1.0, 1)), 2)):
        spectra = closed_spectra(mesh, k=k)
        b0 = mesh.num_components
        assert [len(spectra[p].eigenvalues) for p in (0, 1, 2)] == [b0 + 1, k, b0 + 1]
        direct = solve_pair(hodge_laplacian(mesh, 1), k=k).eigenvalues
        assert np.abs(spectra[1].eigenvalues - direct).max() < 1e-12 * direct.max()


def test_whole_source_spectra_are_complete(tetra):
    # dense solves of the tetrahedron return every p = 0 and p = 2 pair,
    # so no top eigenvalue limits the union: all E = 6 values are known
    spectra = closed_spectra(tetra, k=4)
    direct = solve_pair(hodge_laplacian(tetra, 1), k=4).eigenvalues
    assert np.abs(spectra[1].eigenvalues - direct).max() < 1e-12
    assert spectra[1].meta["complete_below"] == np.inf
    assert spectra[1].meta["inertia_count"] == tetra.num_edges
    # more pairs than the p = 1 pencil has rows are refused, not widened for
    with pytest.raises(ValueError, match="not in 1..6"):
        closed_spectra(tetra, k=7)
