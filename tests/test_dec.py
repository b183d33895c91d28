import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import artifact.dec
from artifact.audit import audit_closed, closed_spectra, reconstruct_density
from artifact.dec import (EigenproblemPair, _cotangent_weights, assert_symmetric,
                          dirichlet_laplacian, exterior_derivative,
                          hodge_laplacian)
from artifact.eigensolve import cluster_slices, smallest_eigenpairs, solve_pair
from artifact.mesh import (MeshError, TriangleMesh, clifford_torus, flat_rectangle,
                           geodesic_cap, icosphere)
from clamped_dec import clamped_pencil, clamped_stiffness0
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
    s0 = sphere2.dec.star0
    total = sphere2.total_area
    assert abs(s0.sum() - total) < 1e-12 * total


def test_star2_inverse_face_areas(sphere2):
    # no weight is 0 on an icosphere, so every dual cell is one face and
    # star_2 = 1 / cell area is the inverse face area
    c = sphere2.dec
    assert np.abs(sphere2.face_areas / c.cell_areas - 1.0).max() < 1e-12
    assert c.star1.size == sphere2.num_edges and not c.lifts


def test_star1_flat_grid_cotangent_values(square16):
    """On a unit-square right-triangle grid the circumcentric edge weights
    are 1 for interior axis-aligned edges and exactly 0 for the diagonals
    (the circumcenter sits on the hypotenuse midpoint).  Each diagonal
    leaves the complex, so star1 keeps the raw axis weights.  The square
    has a boundary, so no dual cell is built: only the closed pencils
    read them (the two triangles of each square of a closed grid form
    one cell: ``test_dual_cell_complex_invariants``)."""
    w = _cotangent_weights(square16)
    vecs = square16.vertices[square16.edges[:, 1]] - square16.vertices[square16.edges[:, 0]]
    diagonal = (np.abs(vecs[:, 0]) > 1e-12) & (np.abs(vecs[:, 1]) > 1e-12)
    interior_edge = ~(square16.boundary_vertex[square16.edges[:, 0]]
                      & square16.boundary_vertex[square16.edges[:, 1]])
    axis_int = ~diagonal & interior_edge
    assert np.abs(w[axis_int] - 1.0).max() < 1e-10
    assert (w[diagonal] == 0.0).all()
    c = square16.dec
    assert np.array_equal(c.star1, w[~diagonal])
    assert c.d1 is None and c.cells is None and c.cell_areas is None and not c.lifts


def test_star1_positive_everywhere(sphere3, torus16):
    for mesh in (sphere3, torus16):
        assert (mesh.dec.star1 > 0).all()
    assert sphere3.dec.star1.size == sphere3.num_edges
    # one diagonal per grid square leaves the complex
    assert torus16.dec.star1.size == torus16.num_edges - torus16.num_vertices


@pytest.mark.parametrize("mesh, per_cell", [(clifford_torus(16, 16), 2),
                                            (icosphere(1.0, 2), 1)],
                         ids=["clifford16", "icosphere2"])
def test_dual_cell_complex_invariants(mesh, per_cell):
    """d1 d0 = 0 exactly, the cells tile the surface, and on the grid
    the two triangles of every square form one cell."""
    c = mesh.dec
    assert (c.d1 @ c.d0).nnz == 0
    assert c.d0.shape == (c.star1.size, mesh.num_vertices)
    assert c.d1.shape == (c.cell_areas.size, c.star1.size)
    assert abs(c.cell_areas.sum() - mesh.total_area) < 1e-12 * mesh.total_area
    assert c.cell_areas.size * per_cell == mesh.num_faces
    assert np.array_equal(np.bincount(c.cells), np.full(c.cell_areas.size, per_cell))


def test_cells_of_more_than_two_triangles_refused():
    """A pentagon on the circle of radius 5, fanned from one vertex on top
    and from another below: integer coordinates make the weights of all
    four diagonals exactly 0, so the middle triangle of each fan would
    join a cell of three, and the complex refuses the mesh."""
    verts = np.array([[5, 0, 0], [3, 4, 0], [-3, 4, 0], [-5, 0, 0], [0, -5, 0]], dtype=float)
    top = [[0, 1, 2], [0, 2, 3], [0, 3, 4]]
    bottom = [[1, 3, 2], [1, 4, 3], [1, 0, 4]]
    mesh = TriangleMesh(verts, top + bottom)
    assert (_cotangent_weights(mesh) == 0.0).sum() == 4
    with pytest.raises(MeshError, match="more than two triangles"):
        mesh.dec


@pytest.mark.parametrize("refinement", range(6))
def test_icosphere_complex_is_the_clamped_oracle_bitwise(refinement):
    """No icosphere weight is <= 0, so the dual-cell complex is the
    triangle complex the package used to clamp: every operator and every
    pencil is bitwise the oracle's."""
    mesh = icosphere(1.0, refinement)
    c = mesh.dec

    def same(a, b):
        a, b = sp.csr_matrix(a), sp.csr_matrix(b)
        return all(np.array_equal(x, y) for x, y in
                   ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))

    assert same(c.d0, exterior_derivative(mesh, 0)) and same(c.d1, exterior_derivative(mesh, 1))
    assert same(c.stiffness0, clamped_stiffness0(mesh))
    assert np.array_equal(c.cell_areas, mesh.face_areas) and not c.lifts
    for p in (0, 1, 2):
        pair, oracle = hodge_laplacian(mesh, p), clamped_pencil(mesh, p)
        assert same(pair.stiffness, oracle.stiffness)
        assert np.array_equal(pair.mass_diag, oracle.mass_diag)


def cocircular_pillow():
    """A quadrilateral on the circle of radius 5 (integer coordinates),
    split by one diagonal on top and by the other below: a closed mesh
    of two dual cells, each of two triangles of areas 15 and 30, whose
    two diagonals have weight exactly 0."""
    verts = np.array([[5, 0, 0], [3, 4, 0], [-4, 3, 0], [0, -5, 0]], dtype=float)
    return TriangleMesh(verts, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def test_seam_lift_splits_each_cell_by_area(torus16):
    """The p = 1 density lifts a kept-edge cochain onto every edge: each
    dropped diagonal takes the value that gives both triangles of its
    cell the same d1 x / area, that is the cell's d1 x split by area;
    kept edges keep their values.  A cell cochain goes to both triangles."""
    pillow = cocircular_pillow()
    assert (pillow.face_areas[[0, 2]] != pillow.face_areas[[1, 3]]).all()
    for mesh in (torus16, pillow):
        c = mesh.dec
        x = np.random.default_rng(0).standard_normal(c.star1.size)
        full = c.lifts[1] @ x
        cells = c.lifts[2].indices
        assert np.array_equal(c.lifts[2] @ np.arange(c.cell_areas.size, dtype=float), cells)
        assert c.cell_areas.size * 2 == mesh.num_faces
        curl = (exterior_derivative(mesh, 1) @ full) / mesh.face_areas
        cell_curl = (c.d1 @ x) / c.cell_areas
        assert np.abs(curl - cell_curl[cells]).max() < 1e-12 * np.abs(cell_curl).max()
        kept = _cotangent_weights(mesh) != 0.0
        assert np.array_equal(full[kept], x)


def test_complex_assembled_once_per_mesh(monkeypatch):
    """Every pencil, curvature field and density of one mesh reads one
    shared, read-only DEC complex: the cotangent weights are computed
    once, and so are the seam lifts of a mesh with dual cells of two
    triangles."""
    calls = []
    weights = artifact.dec._cotangent_weights
    monkeypatch.setattr(artifact.dec, "_cotangent_weights",
                        lambda mesh: calls.append(mesh) or weights(mesh))
    # fresh meshes, so no earlier test has built their complexes
    for mesh in (icosphere(1.0, 2), clifford_torus(8, 8)):
        spectra = closed_spectra(mesh, k=4)
        audit_closed(mesh, spectra, j_max=2)
        assert calls.pop() is mesh and not calls
        c = mesh.dec
        lifts = [a for m in c.lifts.values() for a in (m.data, m.indices)]
        for array in (c.d0.data, c.d1.indices, c.stiffness0.data, c.star0,
                      c.star1, c.cell_areas, mesh.face_areas, *lifts):
            with pytest.raises(ValueError):
                array[0] = 1.0
    assert mesh.dec.lifts


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
    y, x = new.eigenvectors, (1.0 / mesh.dec.cell_areas)[:, None] * old.eigenvectors
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
    """clifford16 has one zero-cotangent diagonal per grid square.  The
    clamped oracle keeps it, with 1/eps = 1e8-sized entries, and is
    accurate only to its pencil residuals; the exact complex merges its
    two triangles into one cell.  Each exact value lies within the
    oracle's certified pencil-norm residual of the oracle's value, and
    the exact pencil residuals are at rounding level."""
    new = solve_pair(hodge_laplacian(torus16, 2), k=22)
    old = solve_pair(clamped_pencil(torus16, 2), k=22)
    assert new.zero_count == old.zero_count == 1
    assert (np.abs(new.eigenvalues - old.eigenvalues) <= old.meta["pencil_residuals"]).all()
    lam = np.maximum(new.eigenvalues, new.eigenvalues[1])
    assert (new.meta["pencil_residuals"] <= 1e-10 * lam).all()
    assert abs(new.eigenvalues[0]) < 1e-12 * new.eigenvalues[1]


def test_p2_pencil_in_eigenvalue_units():
    """||A'||_inf of the dual-graph form is 11.7 on icosphere4 and 8.0 on
    clifford64, in the units of the eigenvalues, not the 2.2e6 of the
    star2 form or the 3.0e8 of the clamped torus, so the solver's shift
    -1e-6 trace(A)/dim sits next to the kernel."""
    for mesh, oracle in ((icosphere(1.0, 4), star2_pencil),
                         (clifford_torus(64, 64), lambda m: clamped_pencil(m, 2))):
        pair = hodge_laplacian(mesh, 2)
        assert spla.norm(pair.stiffness, np.inf) < 100.0
        assert spla.norm(oracle(mesh).stiffness, np.inf) > 1e6
        # the plain solve: solve_pair splits the icosphere pencil by its reflections
        res = smallest_eigenpairs(pair.stiffness, pair.mass_diag, k=22)
        assert abs(res.meta["sigma"]) < 1e-4 * res.eigenvalues[1]


def test_negative_dual_lengths_refused_where_star1_is_a_mass_or_inverted():
    """A vertex pulled most of the way to a neighbour puts two
    circumcentres beyond their edges: two negative weights.  The 0-form
    stiffness is PSD with them; p = 1 (mass star_1) and p = 2
    (star_1^-1) refuse the mesh."""
    base = icosphere(1.0, 2)
    v = base.vertices.copy()
    v[0] += 0.8 * (v[base.edges[base.edges[:, 0] == 0][0, 1]] - v[0])
    mesh = TriangleMesh(v, base.faces)
    assert (_cotangent_weights(mesh) < 0).sum() == 2
    a = hodge_laplacian(mesh, 0).stiffness.toarray()
    assert np.linalg.eigvalsh(a).min() > -1e-12 * np.abs(a).max()
    for p in (1, 2):
        with pytest.raises(MeshError, match="2 edges have a negative dual length"):
            hodge_laplacian(mesh, p)


def test_cap_dirichlet_lambda1_converges_monotonically():
    """cap3, cap4 and cap5 have 2, 12 and 16 negative weights, which the
    0-form stiffness keeps as they are: lambda_1 reads 4.86757, 4.92331
    and 4.93362 and approaches the exact 4.93604 from below, each step
    closer (the clamped stiffness overshot to 4.95709, then 4.95110)."""
    exact = 4.93604
    lam = [solve_pair(dirichlet_laplacian(geodesic_cap(np.pi / 3.0, r)), k=2).eigenvalues[0]
           for r in (3, 4, 5)]
    assert lam[0] < lam[1] < lam[2] < exact
    assert np.allclose(lam, [4.86757, 4.92331, 4.93362], atol=1e-5)


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
