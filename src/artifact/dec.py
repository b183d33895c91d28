"""Discrete exterior calculus operators on embedded triangle meshes.

Exterior derivatives are signed incidence matrices; Hodge stars are
diagonal (barycentric lumped areas for 0-forms, circumcentric
dual/primal length ratios for 1-forms, inverse dual-cell areas for
2-forms).  Laplacians are assembled in weak form as generalized pencils
A x = lambda M x with the geometer's sign convention (spectra >= 0).

Each mesh owns one :class:`DecComplex` (``mesh.dec``), built on first
use; every pencil, curvature field and density reads its operators from
there.  The complex lives on the circumcentric dual cells (Hirani,
*Discrete Exterior Calculus*, 2003).  Two triangles that share a
circumcentre, such as the two halves of a grid square, meet at an edge
whose dual edge has length 0: its cotangent weight is exactly 0.  That
edge is no 1-form unknown, so its row of d0 and its column of d1 are
dropped, and the two triangles form one dual cell, one row of d1 with
the sum of their areas.  star_1 holds the raw weights; no star is
clamped.  A negative weight (a circumcentre beyond its triangle's edge)
stays in the 0-form stiffness, which is PSD whatever the weights' signs,
and is refused where star_1 is a mass or is inverted (p = 1, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import MeshError

__all__ = [
    "DecComplex",
    "EigenproblemPair",
    "exterior_derivative",
    "hodge_laplacian",
    "dirichlet_laplacian",
    "assert_symmetric",
]

SYMMETRY_TOL = 1e-12


@dataclass
class EigenproblemPair:
    """Generalized symmetric pencil A x = lambda M x for one form degree.

    ``mass_diag`` holds the diagonal of M (strictly positive).  For
    Dirichlet problems the rows are the interior vertices only,
    ``interior_index_map`` maps retained rows back to mesh simplices, and
    ``potential`` is the read-only interior potential q_int assembled into
    A (zeros without a potential); it is None for Hodge pencils, whose
    rows are the cochains of ``mesh.dec`` (vertices, kept edges, dual
    cells).
    """

    stiffness: sp.csr_matrix
    mass_diag: np.ndarray
    degree: int
    dirichlet: bool
    interior_index_map: np.ndarray
    potential: np.ndarray | None

    @property
    def dim(self):
        return self.stiffness.shape[0]


def assert_symmetric(a, what="operator"):
    """Certify max |A - A^T| <= SYMMETRY_TOL * max(1, max |A|); raise otherwise."""
    d = (a - a.T).tocoo()
    gap = np.abs(d.data).max() if d.nnz else 0.0
    scale = max(1.0, np.abs(a.data).max() if a.nnz else 0.0)
    if gap > SYMMETRY_TOL * scale:
        raise ValueError(f"{what} is not symmetric: |A - A^T| = {gap:.3e}")


def _symmetrized(a):
    # (A + A^T)/2 is bitwise symmetric; entries move by at most one ulp.
    return ((a + a.T) * 0.5).tocsr()


def exterior_derivative(mesh, p):
    """Signed incidence matrix d_p of the triangle complex: rows are
    (p+1)-simplices, columns p-simplices.  ``mesh.dec`` holds the same
    operators on the circumcentric dual cells.

    d0 rows carry -1 at the edge tail (min vertex) and +1 at the head;
    d1 rows carry the face-versus-edge orientation signs.  d1 @ d0 = 0
    exactly, as every entry is a sum of cancelling +-1 terms.
    """
    if p == 0:
        e = mesh.num_edges
        rows = np.repeat(np.arange(e), 2)
        cols = mesh.edges.ravel()
        vals = np.tile([-1.0, 1.0], e)
        return sp.csr_matrix((vals, (rows, cols)), shape=(e, mesh.num_vertices))
    if p == 1:
        f = mesh.num_faces
        rows = np.repeat(np.arange(f), 3)
        cols = mesh.face_edges.ravel()
        vals = mesh.face_edge_signs.ravel().astype(np.float64)
        return sp.csr_matrix((vals, (rows, cols)), shape=(f, mesh.num_edges))
    raise ValueError(f"exterior derivative defined for p in {{0, 1}}, got {p}")


def _cotangent_weights(mesh):
    """Per-edge (cot a + cot b)/2 over the incident faces.

    This equals the signed circumcentric dual length divided by the
    primal edge length, in any ambient dimension.  Corner c lies between
    the sides e_{c+2} and -e_{c+1} of ``mesh.side_gram``, so cot(c)/2 is
    -G[c+2, c+1] / (4 A), and it weighs face side c + 1, the one opposite.
    """
    cot = -mesh.side_gram[:, [2, 0, 1], [1, 2, 0]] / (4.0 * mesh.face_areas[:, None])
    # corner by corner, each in face order
    return np.bincount(mesh.face_edges[:, [1, 2, 0]].T.ravel(), cot.T.ravel(),
                       mesh.num_edges)


@dataclass(frozen=True)
class DecComplex:
    """The DEC complex of one mesh on its circumcentric dual cells, read
    as ``mesh.dec``: d0 (kept edges x vertices) and d1 (dual cells x
    kept edges) with d1 @ d0 = 0 exactly, the stars ``star0`` (lumped
    vertex areas) and ``star1`` (the raw cotangent weight of each kept
    edge), ``cell_areas`` (the area of each cell's one or two triangles)
    and the unsymmetrized 0-form stiffness d0^T star_1 d0.  ``lifts``
    maps a kept-edge (p = 1) or cell (p = 2) cochain back onto every
    edge or face of the mesh; it is empty when no edge is dropped, since
    the cochains then live on the mesh's own edges and faces.  Every
    array is read-only, so all consumers share one copy.
    """

    d0: sp.csr_matrix
    d1: sp.csr_matrix
    star0: np.ndarray
    star1: np.ndarray
    cell_areas: np.ndarray
    stiffness0: sp.spmatrix
    lifts: dict

    @classmethod
    def of(cls, mesh):
        """Assemble the complex; ``mesh.dec`` calls this once per mesh."""
        w, f = _cotangent_weights(mesh), mesh.num_faces
        fe, signs = mesh.face_edges.ravel(), mesh.face_edge_signs.ravel().astype(np.float64)
        seam = (w == 0.0) & (np.bincount(fe, minlength=mesh.num_edges) == 2)
        # the two face sides on each seam, adjacent once sorted by edge; the
        # lower face of the two leads their cell
        sides = np.flatnonzero(seam[fe])
        sides = sides[np.argsort(fe[sides], kind="stable")].reshape(-1, 2)
        lead, other = sides.T // 3
        if np.unique(sides // 3).size < sides.size:
            raise MeshError("a dual cell of more than two triangles is not supported")
        cells = np.arange(f)
        cells[other] = lead
        cells = np.unique(cells, return_inverse=True)[1]
        live, index = ~seam[fe], np.cumsum(~seam) - 1
        d0 = exterior_derivative(mesh, 0)[~seam]
        d1 = sp.csr_matrix((signs[live], (np.repeat(cells, 3)[live], index[fe[live]])),
                           shape=(cells.max() + 1, d0.shape[0]))
        star1, cell_areas = w[~seam], np.bincount(cells, mesh.face_areas)
        stiffness0 = d0.T @ sp.diags(star1) @ d0
        lifts = {}
        if len(sides):
            # a seam's value x, with s its sign in the lead triangle, solves
            # s x = share (r_lead + r_other) - r_lead, r being the kept part
            # of a triangle's d1 x and share the lead's part of the cell's
            # area: both triangles then carry the cell's d1 x / area
            share = sp.diags(mesh.face_areas[lead] / cell_areas[cells[lead]])
            seams = sp.diags(signs[sides[:, 0]]) @ (
                share @ d1[cells[lead]] - exterior_derivative(mesh, 1)[lead][:, ~seam])
            order = np.argsort(np.concatenate([np.flatnonzero(~seam), fe[sides[:, 0]]]))
            lifts = {1: sp.vstack([sp.eye(star1.size), seams]).tocsr()[order],
                     2: sp.csr_matrix((np.ones(f), (np.arange(f), cells)))}
        mats = (d0, d1, stiffness0, *lifts.values())
        for a in (star1, cell_areas, *(a for m in mats for a in (m.data, m.indices, m.indptr))):
            a.setflags(write=False)
        return cls(d0, d1, mesh.vertex_areas, star1, cell_areas, stiffness0, lifts)


def hodge_laplacian(mesh, p):
    """Weak-form Hodge Laplacian pencil (A, M) on a closed mesh.

    A x = lambda M x with

        p = 0:  A = d0^T star_1 d0,                                M = star_0
        p = 1:  A = d1^T star_2 d1 + star_1 d0 star_0^{-1} d0^T star_1,  M = star_1
        p = 2:  A = d1 star_1^{-1} d1^T,                           M = diag(cell areas)

    on the cochains of ``mesh.dec``, with star_2 = 1 / cell area.  The
    p = 2 pencil is the dual-graph Laplacian: the weak form
    (star_2 d1 star_1^{-1} d1^T star_2, star_2) congruent by star_2, with
    the same eigenvalues and entries in eigenvalue units.  Its
    eigenvector y = star_2 v holds the pointwise 2-form value per cell.
    p = 1 and p = 2 refuse a negative star_1 weight with ``MeshError``.
    """
    if not mesh.is_closed:
        raise MeshError("hodge_laplacian needs a closed mesh; use dirichlet_laplacian")
    if p not in (0, 1, 2):
        raise ValueError(f"form degree must be 0, 1 or 2, got {p}")
    c = mesh.dec
    negative = int((c.star1 < 0.0).sum())
    if p and negative:
        raise MeshError(f"{negative} edges have a negative dual length; the p={p} pencil "
                        "weighs or inverts star_1 and needs it positive")
    if p == 0:
        a, mass = c.stiffness0, c.star0
    elif p == 1:
        up = c.d1.T @ sp.diags(1.0 / c.cell_areas) @ c.d1
        half = sp.diags(c.star1) @ c.d0
        a, mass = up + half @ sp.diags(1.0 / c.star0) @ half.T, c.star1
    else:
        a, mass = c.d1 @ sp.diags(1.0 / c.star1) @ c.d1.T, c.cell_areas
    assert_symmetric(a, what=f"hodge laplacian p={p}")
    return EigenproblemPair(_symmetrized(a), mass, p, False, np.arange(mass.size), None)


def dirichlet_laplacian(mesh, potential=None):
    """Dirichlet 0-form Laplacian with potential on a mesh with boundary.

    Rows and columns are restricted to interior vertices:
    A = (d0^T star_1 d0)_int + M_int diag(q_int), M = star_0 restricted.
    """
    if mesh.is_closed:
        raise MeshError("dirichlet_laplacian needs a mesh with boundary; use hodge_laplacian")
    if potential is None:
        potential = np.zeros(mesh.num_vertices)
    q = np.asarray(potential, dtype=np.float64)
    if q.shape != (mesh.num_vertices,):
        raise ValueError(f"potential must have one value per vertex, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("potential contains non-finite values")
    c = mesh.dec
    interior = np.nonzero(~mesh.boundary_vertex)[0]
    a = c.stiffness0[interior][:, interior]
    mass = c.star0[interior]
    q_int = q[interior]
    q_int.setflags(write=False)
    a = a + sp.diags(mass * q_int)
    assert_symmetric(a, what="dirichlet laplacian")
    return EigenproblemPair(_symmetrized(a), mass, 0, True, interior, q_int)
