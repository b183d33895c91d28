"""Discrete exterior calculus operators on embedded triangle meshes.

Exterior derivatives are signed incidence matrices; Hodge stars are
diagonal (barycentric lumped areas for 0-forms, circumcentric
dual/primal length ratios for 1-forms, inverse face areas for 2-forms).
Laplacians are assembled in weak form as generalized pencils
A x = lambda M x with the geometer's sign convention (spectra >= 0).

Each mesh owns one :class:`DecComplex` (``mesh.dec``), built on first
use; every pencil and curvature field reads its operators from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import MeshError

__all__ = [
    "HodgeStar",
    "DecComplex",
    "EigenproblemPair",
    "exterior_derivative",
    "hodge_star",
    "hodge_laplacian",
    "dirichlet_laplacian",
    "assert_symmetric",
]

SYMMETRY_TOL = 1e-12


class HodgeStar(NamedTuple):
    """Diagonal Hodge star: ``diag`` entries plus the count of clamped edges."""

    diag: np.ndarray
    clamped: int


@dataclass
class EigenproblemPair:
    """Generalized symmetric pencil A x = lambda M x for one form degree.

    ``mass_diag`` holds the diagonal of M (strictly positive).  For
    Dirichlet problems the rows are the interior vertices only,
    ``interior_index_map`` maps retained rows back to mesh simplices, and
    ``potential`` is the read-only interior potential q_int assembled into
    A (zeros without a potential); it is None for Hodge pencils.
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


def assert_symmetric(a, tol=SYMMETRY_TOL, what="operator"):
    """Certify max |A - A^T| <= tol * max(1, max |A|); raise otherwise."""
    d = (a - a.T).tocoo()
    gap = np.abs(d.data).max() if d.nnz else 0.0
    scale = max(1.0, np.abs(a.data).max() if a.nnz else 0.0)
    if gap > tol * scale:
        raise ValueError(f"{what} is not symmetric: |A - A^T| = {gap:.3e}")


def _symmetrized(a):
    # (A + A^T)/2 is bitwise symmetric; entries move by at most one ulp.
    return ((a + a.T) * 0.5).tocsr()


def exterior_derivative(mesh, p):
    """Signed incidence matrix d_p: rows are (p+1)-simplices, columns p-simplices.

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


def hodge_star(mesh, p):
    """Diagonal Hodge star for p in {0, 1, 2}.

    p = 0: lumped vertex areas.  p = 2: inverse face areas.  p = 1:
    circumcentric dual/primal length ratio per edge; ratios that fail to
    be positive (a circumcenter falling outside, or degenerately onto
    the boundary of, its triangle) are clamped to
    eps = 1e-8 * mean positive ratio, and the clamp count is reported.
    """
    if p == 0:
        return HodgeStar(mesh.vertex_areas, 0)
    if p == 2:
        return HodgeStar(1.0 / mesh.face_areas, 0)
    if p == 1:
        w = _cotangent_weights(mesh)
        eps = 1e-8 * float(np.maximum(w, 0.0).mean())
        bad = w <= 0.0
        w = np.where(bad, eps, w)
        return HodgeStar(w, int(bad.sum()))
    raise ValueError(f"hodge star defined for p in {{0, 1, 2}}, got {p}")


@dataclass(frozen=True)
class DecComplex:
    """d0, d1, the three Hodge stars and the unsymmetrized 0-form stiffness
    d0^T star_1 d0 of one mesh, read as ``mesh.dec``.  Every array is
    read-only, so all consumers share one copy.
    """

    d0: sp.csr_matrix
    d1: sp.csr_matrix
    star0: HodgeStar
    star1: HodgeStar
    star2: HodgeStar
    stiffness0: sp.spmatrix

    @classmethod
    def of(cls, mesh):
        """Assemble the complex; ``mesh.dec`` calls this once per mesh."""
        d0 = exterior_derivative(mesh, 0)
        d1 = exterior_derivative(mesh, 1)
        s0, s1, s2 = (hodge_star(mesh, p) for p in (0, 1, 2))
        stiffness0 = d0.T @ sp.diags(s1.diag) @ d0
        for m in (d0, d1, stiffness0):
            for a in (m.data, m.indices, m.indptr):
                a.setflags(write=False)
        for s in (s0, s1, s2):
            s.diag.setflags(write=False)
        return cls(d0, d1, s0, s1, s2, stiffness0)


def hodge_laplacian(mesh, p):
    """Weak-form Hodge Laplacian pencil (A, M) on a closed mesh.

    A x = lambda M x with

        p = 0:  A = d0^T star_1 d0,                                M = star_0
        p = 1:  A = d1^T star_2 d1 + star_1 d0 star_0^{-1} d0^T star_1,  M = star_1
        p = 2:  A = d1 star_1^{-1} d1^T,                           M = diag(face areas)

    The p = 2 pencil is the dual-graph Laplacian: the weak form
    (star_2 d1 star_1^{-1} d1^T star_2, star_2) congruent by star_2, with
    the same eigenvalues and entries in eigenvalue units.  Its
    eigenvector y = star_2 v holds the pointwise 2-form value per face.
    """
    if not mesh.is_closed:
        raise MeshError("hodge_laplacian needs a closed mesh; use dirichlet_laplacian")
    if p not in (0, 1, 2):
        raise ValueError(f"form degree must be 0, 1 or 2, got {p}")
    c = mesh.dec
    if p == 0:
        a = c.stiffness0
        mass = c.star0.diag
        n = mesh.num_vertices
    elif p == 1:
        up = c.d1.T @ sp.diags(c.star2.diag) @ c.d1
        half = sp.diags(c.star1.diag) @ c.d0
        down = half @ sp.diags(1.0 / c.star0.diag) @ half.T
        a = up + down
        mass = c.star1.diag
        n = mesh.num_edges
    else:
        a = c.d1 @ sp.diags(1.0 / c.star1.diag) @ c.d1.T
        mass = mesh.face_areas
        n = mesh.num_faces
    assert_symmetric(a, what=f"hodge laplacian p={p}")
    a = _symmetrized(a)
    return EigenproblemPair(a, mass, p, False, np.arange(n), None)


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
    mass = c.star0.diag[interior]
    q_int = q[interior]
    q_int.setflags(write=False)
    a = a + sp.diags(mass * q_int)
    assert_symmetric(a, what="dirichlet laplacian")
    a = _symmetrized(a)
    return EigenproblemPair(a.tocsr(), mass, 0, True, interior, q_int)
