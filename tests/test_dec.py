import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import artifact.dec
from artifact.audit import audit_closed, closed_spectra, reconstruct_density
from artifact.dec import (EigenproblemPair, assert_symmetric,
                          dirichlet_laplacian, exterior_derivative,
                          hodge_laplacian, hodge_star)
from artifact.eigensolve import cluster_slices, solve_pair
from artifact.mesh import MeshError, flat_rectangle, icosphere
from star2_pencil import star2_density, star2_pencil


def test_d0_incidence_structure(tetra):
    d0 = exterior_derivative(tetra, 0).toarray()
    assert d0.shape == (6, 4)
    assert (np.sort(d0, axis=1)[:, 0] == -1).all()
    assert (np.sort(d0, axis=1)[:, -1] == 1).all()
    assert (np.abs(d0).sum(axis=1) == 2).all()
    assert np.linalg.matrix_rank(d0) == 3  # = V - components


def test_d1_rank_and_complex(tetra):
    d0 = exterior_derivative(tetra, 0)
    d1 = exterior_derivative(tetra, 1)
    assert d1.shape == (4, 6)
    assert (d1 @ d0).nnz == 0  # d compose d = 0, exactly (integer arithmetic)
    assert np.linalg.matrix_rank(d1.toarray()) == 3  # = F - 1 on a sphere


def test_d1_d0_zero_on_curved(sphere2):
    d0 = exterior_derivative(sphere2, 0)
    d1 = exterior_derivative(sphere2, 1)
    assert (d1 @ d0).nnz == 0


def test_star0_sums_to_area(sphere2):
    s0 = hodge_star(sphere2, 0)
    total = sphere2.total_area
    assert abs(s0.diag.sum() - total) < 1e-12 * total
    assert s0.clamped == 0


def test_star2_inverse_face_areas(sphere2):
    s2 = hodge_star(sphere2, 2)
    assert np.abs(s2.diag * sphere2.face_areas - 1.0).max() < 1e-12


def test_star1_flat_grid_cotangent_values(square16):
    """On a unit-square right-triangle grid the circumcentric edge weights
    are 1 for interior axis-aligned edges and 0 for the diagonals (the
    circumcenter sits on the hypotenuse midpoint); zeros are clamped to a
    positive epsilon."""
    s1 = hodge_star(square16, 1)
    vecs = square16.vertices[square16.edges[:, 1]] - square16.vertices[square16.edges[:, 0]]
    diagonal = (np.abs(vecs[:, 0]) > 1e-12) & (np.abs(vecs[:, 1]) > 1e-12)
    interior_edge = ~(square16.boundary_vertex[square16.edges[:, 0]]
                      & square16.boundary_vertex[square16.edges[:, 1]])
    eps = 1e-8 * np.maximum(s1.diag, 0.0).mean()
    axis_int = ~diagonal & interior_edge
    assert np.abs(s1.diag[axis_int] - 1.0).max() < 1e-10
    assert (s1.diag[diagonal] <= 2 * eps).all()
    assert s1.clamped == int(diagonal.sum())


def test_star1_positive_everywhere(sphere3, torus16):
    for mesh in (sphere3, torus16):
        s1 = hodge_star(mesh, 1)
        assert (s1.diag > 0).all()
    assert hodge_star(sphere3, 1).clamped == 0
    assert hodge_star(torus16, 1).clamped == torus16.num_vertices  # one diagonal per cell


def test_complex_assembled_once_per_mesh(monkeypatch):
    """Every pencil, curvature field and density of one mesh reads one
    shared, read-only DEC complex: the cotangent weights are computed once."""
    calls = []
    weights = artifact.dec._cotangent_weights
    monkeypatch.setattr(artifact.dec, "_cotangent_weights",
                        lambda mesh: calls.append(mesh) or weights(mesh))
    mesh = icosphere(1.0, 2)  # fresh, so no earlier test has built its complex
    spectra = closed_spectra(mesh, k=4)
    audit_closed(mesh, spectra, j_max=2)
    assert len(calls) == 1 and calls[0] is mesh
    c = mesh.dec
    for array in (c.d0.data, c.d1.indices, c.stiffness0.data, c.star0.diag,
                  c.star1.diag, c.star2.diag, mesh.face_areas):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_laplacian_pairs_shape_and_symmetry(sphere2):
    for p, n in ((0, sphere2.num_vertices), (1, sphere2.num_edges),
                 (2, sphere2.num_faces)):
        pair = hodge_laplacian(sphere2, p)
        assert isinstance(pair, EigenproblemPair)
        assert pair.dim == n
        assert pair.degree == p
        assert not pair.dirichlet
        assert (pair.mass_diag > 0).all()
        assert_symmetric(pair.stiffness)
        dev = sp.csr_matrix(pair.stiffness - pair.stiffness.T)
        assert dev.nnz == 0 or np.abs(dev.data).max() == 0.0


def test_laplacian_psd(sphere2):
    for p in (0, 1, 2):
        pair = hodge_laplacian(sphere2, p)
        dense = pair.stiffness.toarray()
        w = np.linalg.eigvalsh(dense)
        assert w.min() >= -1e-9 * max(np.abs(dense).max(), 1.0)


def test_p0_kernel_is_constants(sphere2):
    pair = hodge_laplacian(sphere2, 0)
    ones = np.ones(pair.dim)
    assert np.abs(pair.stiffness @ ones).max() < 1e-10


def test_p2_pencil_equals_dual_p0_pencil(sphere2):
    """The 2-form pencil is the dual-complex 0-form pencil
    (d1 star1^-1 d1^T, diag(face areas)), congruent by star2 to the weak
    form of the star2-pencil oracle; their spectra agree to roundoff."""
    pair2 = hodge_laplacian(sphere2, 2)
    oracle = star2_pencil(sphere2)
    assert np.array_equal(pair2.mass_diag, sphere2.face_areas)
    vals_oracle = scipy.linalg.eigh(oracle.stiffness.toarray(), np.diag(oracle.mass_diag),
                                    eigvals_only=True)
    vals_p2 = scipy.linalg.eigh(pair2.stiffness.toarray(),
                                np.diag(pair2.mass_diag), eigvals_only=True)
    assert np.abs(vals_oracle - vals_p2).max() < 1e-8 * max(vals_p2.max(), 1.0)


@pytest.mark.parametrize("refinement", [3, 4])
def test_dual_graph_p2_matches_star2_oracle(refinement):
    """Same eigenvalues to 1e-12 relative away from the kernel; each
    cluster of eigenvectors y spans what star2 v of the oracle spans
    (y = +-star2 v for the simple kernel; the icosahedral symmetry
    leaves every other cluster of size 3, 4 or 5), and the p = 2
    densities, summed over each cluster so that no choice of basis moves
    them, agree to the accuracy of the two solves' vectors.  The last
    cluster may be cut at k, so it is left out.  On the same vector,
    the density of y = star2 v is the oracle's density of v to 1e-12."""
    mesh = icosphere(1.0, refinement)
    new = solve_pair(hodge_laplacian(mesh, 2), k=22)
    old = solve_pair(star2_pencil(mesh), k=22)
    lam = old.eigenvalues
    assert new.zero_count == old.zero_count == 1
    rel = np.abs(new.eigenvalues[1:] - lam[1:]) / lam[1:]
    assert rel.max() < 1e-12
    fa = mesh.face_areas
    y, x = new.eigenvectors, mesh.dec.star2.diag[:, None] * old.eigenvectors
    clusters = cluster_slices(lam, lam[-1])[:-1]
    assert clusters[0] == slice(0, 1)
    for cl in clusters:
        span = y[:, cl] @ (y[:, cl].T @ (fa[:, None] * x[:, cl]))
        assert np.abs(x[:, cl] - span).max() < 1e-9
        if cl.stop - cl.start == 1:
            assert np.abs(np.abs(y[:, cl]) - np.abs(x[:, cl])).max() < 1e-9
        # each density integrates to 1; compare in that integral norm
        rho_new = sum(reconstruct_density(mesh, 2, y[:, j]).values for j in range(cl.start, cl.stop))
        rho_old = sum(star2_density(mesh, old.eigenvectors[:, j]) for j in range(cl.start, cl.stop))
        assert fa @ np.abs(rho_new - rho_old) < 1e-9 * (cl.stop - cl.start)
    for j in range(len(lam)):
        # the density of y = star2 v is the oracle's density of v
        rho = reconstruct_density(mesh, 2, x[:, j]).values
        rho_old = star2_density(mesh, old.eigenvectors[:, j])
        assert np.abs(rho - rho_old).max() < 1e-12 * rho_old.max()


def test_dual_graph_p2_on_clamped_torus(torus16):
    """clifford16 has one clamped (zero-cotangent) edge per cell, so both
    forms carry 1/eps = 1e8-sized entries and neither is accurate to
    1e-12 (ROADMAP item 3).  Each value still lies within the sum of the
    two certified pencil-norm residuals of the other form's value."""
    new = solve_pair(hodge_laplacian(torus16, 2), k=22)
    old = solve_pair(star2_pencil(torus16), k=22)
    assert new.zero_count == old.zero_count == 1
    bound = new.meta["pencil_residuals"] + old.meta["pencil_residuals"]
    assert (np.abs(new.eigenvalues - old.eigenvalues) <= bound).all()
    assert (bound[1:] < 1e-5 * old.eigenvalues[1:]).all()


def test_p2_pencil_in_eigenvalue_units():
    """On icosphere4 ||A'||_inf of the dual-graph form is 11.7, in the
    units of its eigenvalues, not the 2.2e6 of the star2 form, so the
    solver's shift -1e-6 trace(A)/dim sits next to the kernel."""
    mesh = icosphere(1.0, 4)
    pair = hodge_laplacian(mesh, 2)
    assert spla.norm(pair.stiffness, np.inf) < 100.0
    assert spla.norm(star2_pencil(mesh).stiffness, np.inf) > 1e6
    res = solve_pair(pair, k=22)
    assert abs(res.meta["sigma"]) < 1e-4 * res.eigenvalues[1]


def test_p2_spectrum_converges_to_p0(sphere2, sphere3):
    """Diagonal-star 2-form spectra differ from 0-form spectra at any fixed
    mesh but the gap shrinks under refinement (second-order)."""
    def low_gap(mesh):
        v0 = solve_pair(hodge_laplacian(mesh, 0), k=4).eigenvalues
        v2 = solve_pair(hodge_laplacian(mesh, 2), k=4).eigenvalues
        return np.abs(v2[1:4] - v0[1:4]).max()
    gap2 = low_gap(sphere2)
    gap3 = low_gap(sphere3)
    assert gap3 < 0.5 * gap2


def test_dirichlet_interior_restriction(square16):
    pair = dirichlet_laplacian(square16)
    n_int = (~square16.boundary_vertex).sum()
    assert pair.dim == n_int
    assert pair.dirichlet
    assert pair.interior_index_map.shape == (n_int,)
    assert not square16.boundary_vertex[pair.interior_index_map].any()


def test_dirichlet_constant_potential_shifts_spectrum(square16):
    base = solve_pair(dirichlet_laplacian(square16), k=6)
    shifted = solve_pair(
        dirichlet_laplacian(square16, np.full(square16.num_vertices, 2.5)), k=6)
    assert np.abs(shifted.eigenvalues - base.eigenvalues - 2.5).max() < 1e-8


def test_dirichlet_rejects_closed_mesh(sphere2):
    with pytest.raises(MeshError):
        dirichlet_laplacian(sphere2)


def test_hodge_rejects_boundary_mesh(square16):
    with pytest.raises(MeshError):
        hodge_laplacian(square16, 0)


def test_dirichlet_potential_validation(square16):
    with pytest.raises(ValueError):
        dirichlet_laplacian(square16, np.ones(3))
    bad = np.zeros(square16.num_vertices)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        dirichlet_laplacian(square16, bad)


def test_pencils_check_symmetry_before_symmetrizing():
    # (A + A^T)/2 is symmetric whatever A is, so the check must read the
    # assembled stiffness; one perturbed off-diagonal entry between
    # interior vertices of the 0-form stiffness is refused
    for mesh, assemble in ((icosphere(1.0, 1), lambda m: hodge_laplacian(m, 0)),
                           (flat_rectangle(1.0, 1.0, 4, 4), dirichlet_laplacian)):
        s0 = mesh.dec.stiffness0.tocoo(copy=True)
        inner = (s0.row != s0.col) & ~mesh.boundary_vertex[s0.row] & ~mesh.boundary_vertex[s0.col]
        s0.data[np.argmax(inner * np.abs(s0.data))] *= 1.0 + 1e-6
        mesh.dec = dataclasses.replace(mesh.dec, stiffness0=s0.tocsr())
        with pytest.raises(ValueError, match="not symmetric"):
            assemble(mesh)


def test_assert_symmetric_raises():
    a = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        assert_symmetric(a)
