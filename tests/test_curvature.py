import numpy as np
import pytest

from artifact.curvature import (CurvatureData, curvature_data, gaussian_curvature,
                                mean_curvature_vector, phi_field)
from artifact.mesh import clifford_torus, flat_rectangle, icosphere

SQRT2 = np.sqrt(2.0)


def original_vertex_mask(mesh):
    """The 12 valence-5 seed vertices of an icosphere (first 12 by construction)."""
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[:12] = True
    return mask


def test_sphere_pointwise_fields_regular_vertices(sphere3):
    curv = curvature_data(sphere3)
    regular = ~original_vertex_mask(sphere3)
    assert np.abs(curv.H_norm2[regular] - 4.0).max() < 0.02 * 4.0
    assert np.abs(curv.K[regular] - 1.0).max() < 0.03
    assert np.abs(curv.h_norm2[regular] - 2.0).max() < 0.05 * 2.0
    # mean curvature vector points along the outward normal (= position)
    radial = np.einsum("ij,ij->i", curv.H_vec, sphere3.vertices)
    assert (radial[regular] > 0).all()


def test_sphere_irregular_vertices_documented(sphere3):
    # the 12 valence-5 originals keep an O(1) relative defect in |H|^2
    # under refinement; they are excluded from pointwise claims above
    curv = curvature_data(sphere3)
    worst = np.abs(curv.H_norm2[:12] - 4.0).max() / 4.0
    assert 0.05 < worst < 0.5


def test_sphere_total_mean_curvature(sphere3):
    mesh = icosphere(1.0, 4)
    curv = curvature_data(mesh)
    total = float(curv.H_norm2 @ mesh.vertex_areas)
    assert abs(total - 16.0 * np.pi) < 0.01 * 16.0 * np.pi


def test_gauss_bonnet_exact(sphere2, torus16):
    for mesh, chi in ((sphere2, 2), (torus16, 0)):
        k = gaussian_curvature(mesh)
        assert abs(float(k @ mesh.vertex_areas) - 2.0 * np.pi * chi) < 5e-12


def test_torus_fields(torus32):
    curv = curvature_data(torus32)
    assert np.abs(curv.H_norm2 - 4.0).max() < 1e-6
    assert np.abs(curv.K).max() < 1e-9
    assert np.abs(curv.h_norm2 - 4.0).max() < 1e-6


def test_flat_rectangle_fields(square16):
    curv = curvature_data(square16)
    assert (curv.valid == ~square16.boundary_vertex).all()
    assert np.abs(curv.H_norm2[curv.valid]).max() < 1e-18
    assert np.abs(curv.K[curv.valid]).max() < 1e-9


def test_phi_p0_is_quarter_H2(sphere2):
    curv = curvature_data(sphere2)
    phi0 = phi_field(curv, 0)
    assert np.array_equal(phi0.values, 0.25 * curv.H_norm2)


def test_phi_torus_oracle(torus32):
    curv = curvature_data(torus32)
    phi1 = phi_field(curv, 1)
    phi2 = phi_field(curv, 2)
    assert abs(phi1.sup - 1.0) < 1e-6
    assert abs(phi2.sup - (4.0 * SQRT2 + 1.0)) < 1e-6


def test_phi_exact_sphere_fields():
    # feed exact continuum unit-sphere values through the formula
    n = 5
    curv = CurvatureData(
        H_vec=np.zeros((n, 3)), H_norm2=np.full(n, 4.0), K=np.ones(n),
        h_norm2=np.full(n, 2.0), valid=np.ones(n, dtype=bool))
    assert phi_field(curv, 1).sup < 1e-12
    assert abs(phi_field(curv, 2).sup - (3.0 * SQRT2 - 3.0)) < 1e-12


def test_phi_invalid_degree(sphere2):
    with pytest.raises(ValueError):
        phi_field(curvature_data(sphere2), 3)


def test_rigid_motion_invariance(sphere2):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = icosphere(1.0, 2)
    verts = moved.vertices @ q.T + np.array([0.3, -1.2, 2.0])
    moved = type(moved)(verts, moved.faces.copy())
    base = curvature_data(sphere2)
    rot = curvature_data(moved)
    scale = np.abs(base.H_norm2).max()
    assert np.abs(rot.H_norm2 - base.H_norm2).max() < 1e-9 * scale
    assert np.abs(rot.K - base.K).max() < 1e-9
    assert np.abs(rot.h_norm2 - base.h_norm2).max() < 1e-9 * scale


def test_scaling_covariance(sphere2):
    s = 3.0
    big = icosphere(s, 2)
    base = curvature_data(sphere2)
    scaled = curvature_data(big)
    assert np.abs(scaled.K * s**2 - base.K).max() < 1e-12 * np.abs(base.K).max()
    assert np.abs(scaled.H_norm2 * s**2 - base.H_norm2).max() \
        < 1e-12 * base.H_norm2.max()
    phi_base = phi_field(base, 1)
    phi_scaled = phi_field(scaled, 1)
    assert np.abs(phi_scaled.values * s**2 - phi_base.values).max() \
        < 1e-11 * max(phi_base.sup, 1.0)


def test_mean_curvature_vector_torus_direction(torus16):
    # the Clifford torus is minimal in the unit 3-sphere, so its mean
    # curvature in R^4 is purely radial: H parallel to the position
    # vector and orthogonal to the other normal (cos u, sin u, -cos v, -sin v)
    h = mean_curvature_vector(torus16)
    p = torus16.vertices
    cross_norm2 = (np.einsum("ij,ij->i", h, h) * np.einsum("ij,ij->i", p, p)
                   - np.einsum("ij,ij->i", h, p) ** 2)
    assert np.abs(cross_norm2).max() < 1e-9
    v = p * SQRT2
    other = np.column_stack([v[:, 0], v[:, 1], -v[:, 2], -v[:, 3]])
    assert np.abs(np.einsum("ij,ij->i", h, other)).max() < 1e-9
