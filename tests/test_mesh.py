import ast
from pathlib import Path

import numpy as np
import pytest

import artifact.mesh
from artifact.audit import whitney_face_mass
from artifact.cli import _build_fixture
from artifact.curvature import gaussian_curvature
from artifact.dec import _cotangent_weights
from artifact.mesh import (MeshError, TriangleMesh, clifford_torus,
                           flat_rectangle, generate, geodesic_cap, icosphere,
                           load_mesh, save_mesh)
import geometry_oracle
from conftest import tetrahedron
from mesh_oracle import build_edges_axis0, subdivide_on_sphere_loop

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

SRC = Path(__file__).resolve().parents[1] / "src"


def test_tetrahedron_combinatorics(tetra):
    assert tetra.num_vertices == 4
    assert tetra.num_edges == 6
    assert tetra.num_faces == 4
    assert tetra.euler_characteristic == 2
    assert tetra.is_closed
    assert not tetra.boundary_vertex.any()


def test_closed_meshes_count_their_components(tetra, torus16, square16):
    for mesh in (tetra, torus16):
        assert mesh.num_components == 1 and not mesh.vertex_component.any()
        assert not mesh.vertex_component.flags.writeable
    assert square16.num_components is None and square16.vertex_component is None


def test_edges_are_canonical_and_sorted(tetra):
    assert (tetra.edges[:, 0] < tetra.edges[:, 1]).all()
    order = np.lexsort((tetra.edges[:, 1], tetra.edges[:, 0]))
    assert (order == np.arange(6)).all()


def test_face_edges_traverse_face(sphere2):
    # each face's three edges connect exactly its three vertices
    for f in range(0, sphere2.num_faces, 37):
        verts = set(sphere2.faces[f])
        for e in sphere2.face_edges[f]:
            assert set(sphere2.edges[e]) <= verts


@pytest.mark.parametrize("refinement", [0, 1, 2, 3])
def test_icosphere_counts(refinement):
    mesh = icosphere(1.0, refinement)
    assert mesh.num_vertices == 10 * 4 ** refinement + 2
    assert mesh.num_edges == 30 * 4 ** refinement
    assert mesh.num_faces == 20 * 4 ** refinement
    assert mesh.euler_characteristic == 2


def test_icosphere_vertices_on_sphere():
    mesh = icosphere(2.5, 3)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 2.5).max() < 1e-12


def test_icosphere_area_converges():
    area = icosphere(1.0, 4).total_area
    assert abs(area - 4.0 * np.pi) / (4.0 * np.pi) < 0.005


def test_clifford_torus_shape():
    mesh = clifford_torus(16, 12)
    assert mesh.ambient_dim == 4
    assert mesh.num_vertices == 16 * 12
    assert mesh.num_edges == 3 * 16 * 12
    assert mesh.num_faces == 2 * 16 * 12
    assert mesh.euler_characteristic == 0
    assert mesh.is_closed
    # both circle factors have radius 1/sqrt(2)
    assert np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0).max() < 1e-12


def test_clifford_torus_area(torus32):
    area = torus32.total_area
    assert abs(area - 2.0 * np.pi ** 2) / (2.0 * np.pi ** 2) < 0.01


def test_flat_rectangle_boundary():
    mesh = flat_rectangle(2.0, 1.0, 8, 4)
    assert not mesh.is_closed
    assert mesh.num_vertices == 9 * 5
    assert mesh.euler_characteristic == 1
    assert mesh.boundary_vertex.sum() == 2 * (8 + 4)
    assert abs(mesh.total_area - 2.0) < 1e-12


def test_geodesic_cap_rim(cap3):
    assert not cap3.is_closed
    assert cap3.euler_characteristic == 1
    theta = np.arccos(np.clip(cap3.vertices[:, 2], -1.0, 1.0))
    assert theta.max() <= np.pi / 3.0 + 1e-9
    rim = cap3.boundary_vertex
    assert rim.any()
    assert np.abs(theta[rim] - np.pi / 3.0).max() < 1e-12


def test_generate_dispatch():
    mesh = generate("icosphere", radius=1.0, refinement=1)
    assert mesh.num_vertices == 42
    with pytest.raises(MeshError):
        generate("moebius")
    with pytest.raises(MeshError):
        generate("icosphere", bogus=3)


def test_vertices_read_only(sphere2):
    with pytest.raises(ValueError):
        sphere2.vertices[0, 0] = 99.0


def test_invalid_face_index():
    verts = np.zeros((3, 3))
    verts[1, 0] = 1.0
    verts[2, 1] = 1.0
    with pytest.raises(MeshError):
        TriangleMesh(verts, np.array([[0, 1, 3]]))


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.0, 1, 0]])
    with pytest.raises(MeshError):
        TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def test_inconsistent_orientation_rejected(tetra):
    faces = tetra.faces.copy()
    faces[0] = faces[0][::-1]
    with pytest.raises(MeshError):
        TriangleMesh(tetra.vertices, faces)


def test_nonmanifold_edge_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0.3],
                      [0.0, -1, 0.3], [-0.5, 0, 1.0]])
    faces = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError):
        TriangleMesh(verts, faces)


def test_off_roundtrip(tmp_path, sphere2):
    path = tmp_path / "mesh.off"
    save_mesh(sphere2, path)
    back = load_mesh(path)
    assert (back.vertices == sphere2.vertices).all()
    assert (back.faces == sphere2.faces).all()


def test_off_roundtrip_ambient4(tmp_path, torus16):
    path = tmp_path / "mesh4.off"
    save_mesh(torus16, path)
    back = load_mesh(path)
    assert back.ambient_dim == 4
    assert (back.vertices == torus16.vertices).all()


def test_off_rejects_malformed(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\nnot a number 0\n3 0 1 2\n")
    with pytest.raises(MeshError):
        load_mesh(path)


MESH_ARRAYS = ("vertices", "faces", "edges", "face_edges", "face_edge_signs",
               "boundary_vertex", "side_gram", "face_areas", "vertex_areas")


@pytest.mark.parametrize("family, levels", [
    ("icosphere", range(6)), ("square", (16, 64)), ("clifford", (16, 64)), ("cap", (3, 4, 5))])
def test_mesh_build_matches_loop_oracle_bitwise(family, levels, monkeypatch):
    """The vectorized midpoint numbering and edge keys build bitwise the
    meshes of the per-edge loop and the row-wise unique."""
    built = {lvl: _build_fixture(family, lvl) for lvl in levels}
    monkeypatch.setattr(artifact.mesh, "_subdivide_on_sphere", subdivide_on_sphere_loop)
    monkeypatch.setattr(TriangleMesh, "_build_edges", build_edges_axis0)
    for lvl in levels:
        oracle = _build_fixture(family, lvl)
        for name in MESH_ARRAYS:
            got, want = getattr(built[lvl], name), getattr(oracle, name)
            assert got.dtype == want.dtype and got.shape == want.shape, (lvl, name)
            assert np.array_equal(got, want), (lvl, name)
        assert built[lvl].total_area == oracle.total_area


@pytest.mark.parametrize("family, levels", [
    ("icosphere", range(6)), ("clifford", (16, 32, 64)), ("square", (16, 64)),
    ("cap", (3, 4, 5))])
def test_side_gram_geometry_matches_corner_oracle(family, levels):
    """Areas, cotangent weights and angle defects read from the side Gram
    equal the per-corner loops bitwise.  The Whitney mass sums its terms
    in another order; per face it agrees to 2e-15 kappa^2 relative, with
    kappa = longest side^2 / (2 A) the rounding gain of a thin face: at
    most 3.2 on these fixtures but for the rim slivers of cap3 (up to 39),
    where both forms are 2.9e-14 of the face's largest entry off the
    mass in exact arithmetic."""
    for lvl in levels:
        mesh = _build_fixture(family, lvl)
        assert np.array_equal(mesh.face_areas, geometry_oracle.face_areas(mesh)), lvl
        assert np.array_equal(_cotangent_weights(mesh),
                              geometry_oracle.cotangent_weights(mesh)), lvl
        assert np.array_equal(gaussian_curvature(mesh),
                              geometry_oracle.gaussian_curvature(mesh)), lvl
        got, want = whitney_face_mass(mesh), geometry_oracle.whitney_face_mass(mesh)
        kappa = mesh.side_gram.diagonal(axis1=1, axis2=2).max(axis=1) / (2.0 * mesh.face_areas)
        rel = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert (rel <= 2e-15 * kappa ** 2).all(), lvl


def test_only_mesh_gathers_corner_positions():
    # One module decides the triangle geometry: elsewhere it is read from
    # mesh.side_gram, never from vertices indexed by faces.
    def name(node):
        return getattr(node, "attr", getattr(node, "id", None))

    for path in sorted((SRC / "artifact").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        gathers = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Subscript)
                   and name(n.value) == "vertices"
                   and any(name(m) == "faces" for m in ast.walk(n.slice))]
        assert bool(gathers) == (path.name == "mesh.py"), (path.name, gathers)


def test_surface_measures_consistent(sphere3):
    fa, va, total = sphere3.face_areas, sphere3.vertex_areas, sphere3.total_area
    assert fa.shape == (sphere3.num_faces,)
    assert va.shape == (sphere3.num_vertices,)
    assert (fa > 0).all() and (va > 0).all()
    assert abs(fa.sum() - total) < 1e-12 * total
    assert abs(va.sum() - total) < 1e-12 * total


def test_tetra_matches_helper(tetra):
    fresh = tetrahedron()
    assert (fresh.faces == tetra.faces).all()


if HAVE_HYPOTHESIS:

    @given(n_x=st.integers(min_value=2, max_value=9),
           n_y=st.integers(min_value=2, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_rectangle_euler_formula(n_x, n_y):
        mesh = flat_rectangle(1.5, 0.7, n_x, n_y)
        assert mesh.num_vertices - mesh.num_edges + mesh.num_faces == 1
        assert mesh.num_faces == 2 * n_x * n_y

    @given(refinement=st.integers(min_value=0, max_value=2),
           radius=st.floats(min_value=0.1, max_value=10.0,
                            allow_nan=False, allow_infinity=False))
    @settings(max_examples=15, deadline=None)
    def test_icosphere_euler_formula(refinement, radius):
        mesh = icosphere(radius, refinement)
        assert mesh.euler_characteristic == 2
