"""Extrinsic curvature fields consumed by the eigenvalue inequalities.

Mean curvature vector H from the weak identity (Laplacian of the
coordinate functions equals H), Gaussian curvature K from angle defects
(which makes Gauss-Bonnet exact up to roundoff), and the second
fundamental form norm from the Gauss equation |h|^2 = |H|^2 - 2K, which
holds for surfaces in any codimension.  The phi(h, H) field combines
these into the pointwise bound entering the sup-norm inequalities.

Corner angles, like the cotangent weights of the 0-form stiffness, are
read from the mesh's one side Gram matrix ``mesh.side_gram`` (entry
[a, b] = e_a . e_b for the side e_a = p_{a+2} - p_{a+1} opposite corner
a), not from the corner positions.

Pointwise accuracy note: both estimators divide by the barycentric
lumped vertex area, so on meshes with irregular vertices (the 12
valence-5 vertices of an icosphere) the pointwise values carry a
persistent local overshoot even as the fields converge in the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["CurvatureData", "PhiField", "mean_curvature_vector",
           "gaussian_curvature", "second_fundamental_norm",
           "curvature_data", "phi_field"]

M_DIM = 2  # dimension m of the surfaces every curvature bound is stated for


@dataclass
class CurvatureData:
    """Per-vertex curvature fields with a validity mask.

    ``valid`` is False at boundary vertices, where the weak-form
    estimators see a truncated stencil; global statistics (sup_H2,
    inf_K) range over valid vertices only.
    """

    H_vec: np.ndarray
    H_norm2: np.ndarray
    K: np.ndarray
    h_norm2: np.ndarray
    valid: np.ndarray

    @property
    def sup_H2(self):
        return float(self.H_norm2[self.valid].max())

    @property
    def inf_K(self):
        return float(self.K[self.valid].min())


class PhiField(NamedTuple):
    values: np.ndarray
    sup: float


def mean_curvature_vector(mesh):
    """Mean curvature vector per vertex: (A X) / vertex area, coordinate-wise.

    A is the 0-form stiffness, X the coordinate functions; this realizes
    the identity "Laplacian of the immersion = mean curvature vector"
    with the positive-spectrum sign convention.  Values at boundary
    vertices are returned but are not meaningful.
    """
    return (mesh.dec.stiffness0 @ mesh.vertices) / mesh.dec.star0[:, None]


def gaussian_curvature(mesh):
    """Angle defect over lumped vertex area: K = (2 pi - sum of angles) / area.

    Corner c lies between the sides e_{c+2} and -e_{c+1}, so its angle is
    arccos(-G[c+2, c+1] / sqrt(G[c+2, c+2] G[c+1, c+1])) with G the side Gram.
    """
    g, prev, succ = mesh.side_gram, [2, 0, 1], [1, 2, 0]
    cos = -g[:, prev, succ] / np.sqrt(g[:, prev, prev] * g[:, succ, succ])
    # corner by corner, each in face order
    angles = np.bincount(mesh.faces.T.ravel(), np.arccos(np.clip(cos, -1.0, 1.0)).T.ravel(),
                         mesh.num_vertices)
    return (2.0 * np.pi - angles) / mesh.dec.star0


def second_fundamental_norm(H_norm2, K):
    """|h|^2 = max(|H|^2 - 2K, 0)."""
    return np.maximum(H_norm2 - 2.0 * K, 0.0)


def curvature_data(mesh):
    """All curvature fields for a mesh; validity mask excludes boundary vertices."""
    H = mean_curvature_vector(mesh)
    H2 = np.einsum("ij,ij->i", H, H)
    K = gaussian_curvature(mesh)
    return CurvatureData(H, H2, K, second_fundamental_norm(H2, K), ~mesh.boundary_vertex)


def phi_field(curv, p):
    """Pointwise curvature bound phi(h, H) for form degree p.

    phi = p^2 [ (m-5)/4 |H|^2 + |h|^2
                - (1/(4 m^2)) ( sqrt((m-1)(m-2)) |H| - 2 sqrt(m|h|^2 - |H|^2) )^2 ]
          + (1/2) sqrt(p) (p-1) (|H|^2 + |h|^2)
          + (1/4) |H|^2

    The inner radicand m|h|^2 - |H|^2 is nonnegative analytically and is
    clamped at zero against roundoff.  Returns the field and the sup
    norm max |phi| over valid vertices.

    For p = 0 this reduces to |H|^2 / 4 exactly; on a round sphere at
    p = 1 (|H|^2 = 4, |h|^2 = 2, m = 2) it vanishes identically.
    """
    if p not in (0, 1, 2):
        raise ValueError(f"form degree must be 0, 1 or 2, got {p}")
    m = M_DIM
    H2, h2 = curv.H_norm2, curv.h_norm2
    root = np.sqrt(np.maximum(m * h2 - H2, 0.0))
    inner = np.sqrt((m - 1.0) * (m - 2.0)) * np.sqrt(H2) - 2.0 * root
    phi = (p * p * ((m - 5.0) / 4.0 * H2 + h2 - inner * inner / (4.0 * m * m))
           + 0.5 * np.sqrt(p) * (p - 1.0) * (H2 + h2)
           + 0.25 * H2)
    sup = float(np.abs(phi[curv.valid]).max())
    return PhiField(phi, sup)

