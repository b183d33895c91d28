"""Oriented triangle meshes embedded in Euclidean space.

Meshes are immutable after construction: vertices live in R^N (N >= 3),
faces are oriented vertex triples, and the edge list plus boundary flags
are derived deterministically (edges sorted lexicographically by
(min vertex, max vertex)).  Validation enforces edge-manifoldness,
orientation consistency, non-degeneracy, and closed-surface Euler
characteristics.

All triangle geometry comes from one per-face side Gram matrix,
``TriangleMesh.side_gram``: entry [f, a, b] is e_a . e_b, where
e_a = p_{a+2} - p_{a+1} is the side of face f opposite corner a, taken
around the face (indices mod 3).  Face areas, cotangent weights, corner
angles and the Whitney 1-form mass all read it, so this module is the
only one that gathers the corner positions ``vertices[faces]``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix

__all__ = [
    "MeshError",
    "TriangleMesh",
    "load_mesh",
    "save_mesh",
    "generate",
    "icosphere",
    "clifford_torus",
    "flat_rectangle",
    "geodesic_cap",
]

_DEGENERACY_REL = 1e-12


class MeshError(ValueError):
    """Raised for malformed input files or violated mesh invariants."""


class TriangleMesh:
    """Oriented triangulated surface with vertices in R^N, N >= 3.

    Parameters
    ----------
    vertices : (V, N) array_like of float
        Vertex coordinates, N in {3, 4, ...}.
    faces : (F, 3) array_like of int
        Oriented vertex index triples.

    Attributes
    ----------
    edges : (E, 2) ndarray of int
        Undirected edges as (min, max) pairs, sorted lexicographically.
    boundary_vertex : (V,) ndarray of bool
        True for vertices on an edge with exactly one incident face.
    face_edges : (F, 3) ndarray of int
        Edge index of each face side (v0,v1), (v1,v2), (v2,v0).
    face_edge_signs : (F, 3) ndarray of int
        +1 where the face traverses the edge from min to max vertex.
    side_gram : (F, 3, 3) ndarray of float
        Entry [f, a, b] = e_a . e_b for the sides e_a = p_{a+2} - p_{a+1}
        opposite corner a.  Face side s of ``face_edges`` runs from corner
        s to corner s + 1, so it is e_{s+2}.
    face_areas, vertex_areas : (F,) and (V,) ndarrays of float
        Triangle areas and barycentric lumped vertex areas (one third of
        every incident face area); ``total_area`` is their common sum.
    num_components, vertex_component : int and (V,) ndarray of int
        On a closed mesh, its count b0 of connected components and the
        component of each vertex; None on a mesh with boundary.
    """

    def __init__(self, vertices, faces):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] < 3:
            raise MeshError("vertices must be a (V, N) array with N >= 3")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError("faces must be a (F, 3) array")
        if not np.isfinite(vertices).all():
            raise MeshError("non-finite vertex coordinate")
        self.vertices = vertices
        self.faces = faces
        self._validate_indices()
        self._build_edges()
        self._validate_geometry()
        self._validate_topology()
        for a in (self.vertices, self.faces, self.side_gram, self.face_areas,
                  self.vertex_areas):
            a.setflags(write=False)

    # -- derived sizes ---------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_faces(self):
        return self.faces.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def ambient_dim(self):
        return self.vertices.shape[1]

    @property
    def is_closed(self):
        return not self.boundary_vertex.any()

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_faces

    # -- validation ------------------------------------------------------

    def _validate_indices(self):
        v, f = self.num_vertices, self.faces
        if f.size and (f.min() < 0 or f.max() >= v):
            bad = int(np.nonzero((f < 0).any(axis=1) | (f >= v).any(axis=1))[0][0])
            raise MeshError(f"face index out of range at face {bad}")
        repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if repeated.any():
            raise MeshError(f"face repeats a vertex at face {int(np.nonzero(repeated)[0][0])}")

    def _build_edges(self):
        f = self.faces
        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        v = self.num_vertices
        # min * V + max orders the undirected edges lexicographically
        keys, inverse, counts = np.unique(
            directed.min(axis=1) * v + directed.max(axis=1),
            return_inverse=True, return_counts=True,
        )
        edges = np.stack([keys // v, keys % v], axis=1)
        if (counts > 2).any():
            e = edges[np.nonzero(counts > 2)[0][0]]
            raise MeshError(f"edge {tuple(e)} has more than two incident faces")
        # Opposite traversal by the two incident faces <=> no directed
        # duplicate among the 3F directed face sides.
        key = directed[:, 0] * v + directed[:, 1]
        if np.unique(key).size != key.size:
            order = np.argsort(key, kind="stable")
            dup = order[np.nonzero(np.diff(key[order]) == 0)[0][0]]
            i, j = directed[dup]
            raise MeshError(f"orientation error: edge ({i}, {j}) traversed twice in the same direction")
        self.edges = edges
        # face_edges[f, s] = edge id of side s; sign +1 when traversal is (min, max)
        self.face_edges = inverse.reshape(3, -1).T.copy()
        self.face_edge_signs = np.where(directed[:, 0] < directed[:, 1], 1, -1).reshape(3, -1).T.copy()
        boundary_edges = self.edges[counts == 1]
        flag = np.zeros(self.num_vertices, dtype=bool)
        flag[boundary_edges.ravel()] = True
        self.boundary_vertex = flag
        for a in (self.edges, self.face_edges, self.face_edge_signs,
                  self.boundary_vertex):
            a.setflags(write=False)

    def _validate_geometry(self):
        # The one gather of corner positions: side a = p_{a+2} - p_{a+1}
        # is opposite corner a, and the area is the Gram determinant of
        # sides 2 = p1 - p0 and 1 = p0 - p2, in any ambient dimension.
        corners = self.vertices[self.faces]
        sides = corners[:, [2, 0, 1]] - corners[:, [1, 2, 0]]
        gram = np.einsum("fai,fbi->fab", sides, sides)
        areas = 0.5 * np.sqrt(np.maximum(
            gram[:, 2, 2] * gram[:, 1, 1] - gram[:, 2, 1] * gram[:, 2, 1], 0.0))
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        diag2 = float(span @ span)
        bad = areas <= _DEGENERACY_REL * diag2
        if bad.any():
            raise MeshError(f"degenerate face {int(np.nonzero(bad)[0][0])} (area below threshold)")
        self.side_gram = gram
        self.face_areas = areas
        self.vertex_areas = np.zeros(self.num_vertices)
        np.add.at(self.vertex_areas, self.faces.ravel(), np.repeat(areas / 3.0, 3))
        self.total_area = float(areas.sum())

    def _validate_topology(self):
        self.num_components = self.vertex_component = None
        if not self.is_closed:
            return
        # imported here: loading csgraph costs every CLI start a few ms
        from scipy.sparse.csgraph import connected_components

        # Per connected component of a closed oriented surface, chi = 2 - 2g.
        adj = coo_matrix(
            (np.ones(self.num_edges), (self.edges[:, 0], self.edges[:, 1])),
            shape=(self.num_vertices, self.num_vertices),
        )
        n_comp, label = connected_components(adj, directed=False)
        chi_v = np.bincount(label, minlength=n_comp)
        chi_e = np.bincount(label[self.edges[:, 0]], minlength=n_comp)
        chi_f = np.bincount(label[self.faces[:, 0]], minlength=n_comp)
        chi = chi_v - chi_e + chi_f
        if ((chi % 2 != 0) | (chi > 2)).any():
            raise MeshError(f"closed mesh component with invalid Euler characteristic {chi.tolist()}")
        label.setflags(write=False)
        self.num_components, self.vertex_component = int(n_comp), label

    # -- derived operators -----------------------------------------------

    @cached_property
    def dec(self):
        """The mesh's discrete exterior calculus complex, assembled on first use."""
        from .dec import DecComplex
        return DecComplex.of(self)

    @cached_property
    def reflections(self):
        """The coordinate reflections x_a -> (min x_a + max x_a) - x_a that
        map the vertex array onto itself bitwise, found on first use.

        One ``(vertex_perm, face_perm)`` pair per such axis, identities
        left out: vertex i goes to vertex ``vertex_perm[i]``, and face f
        to face ``face_perm[f]``, which is None when the faces do not map
        onto faces (a grid whose diagonals all lean one way).  Each
        permutation is an involution; an axis whose points pair up in no
        involution is left out.  Nothing here says that a pencil of
        the mesh commutes with them; the solver checks that.
        """
        def lex(rows):
            order = np.lexsort(rows.T)
            return order, rows[order]

        def matching(order, image_order):
            # None unless an involution: repeated points or vertex sets
            # can pair up in more than one way
            perm = np.empty(order.size, dtype=np.intp)
            perm[image_order] = order
            perm.setflags(write=False)
            return perm if (perm[perm] == np.arange(perm.size)).all() else None

        def face_keys(faces):
            # one integer per vertex set, the sorted triple in base V (exact
            # for V < 2**21; a wrong match would fail the solver's check)
            a, b, c = np.sort(faces, axis=1).T
            keys = (a * self.num_vertices + b) * self.num_vertices + c
            order = np.argsort(keys)
            return order, keys[order]

        v_order, v_sorted = lex(self.vertices)
        f_order, f_sorted = face_keys(self.faces)
        found = []
        for axis in range(self.ambient_dim):
            col = self.vertices[:, axis]
            image = self.vertices.copy()
            image[:, axis] = (col.min() + col.max()) - col
            i_order, i_sorted = lex(image)
            if not np.array_equal(v_sorted, i_sorted):
                continue
            vertex_perm = matching(v_order, i_order)
            if vertex_perm is None or (vertex_perm == np.arange(vertex_perm.size)).all():
                continue
            fi_order, fi_sorted = face_keys(vertex_perm[self.faces])
            face_perm = (matching(f_order, fi_order)
                         if np.array_equal(f_sorted, fi_sorted) else None)
            found.append((vertex_perm, face_perm))
        return tuple(found)

    def __repr__(self):
        kind = "closed" if self.is_closed else "bounded"
        return (f"TriangleMesh(V={self.num_vertices}, E={self.num_edges}, "
                f"F={self.num_faces}, R^{self.ambient_dim}, {kind})")


# -- generation ----------------------------------------------------------


def icosphere(radius=1.0, refinement=0):
    """Icosahedron subdivided ``refinement`` times, vertices at ``radius``.

    V = 10 * 4**refinement + 2; closed, genus 0.
    """
    if radius <= 0:
        raise MeshError(f"invalid parameter radius={radius}")
    if refinement < 0:
        raise MeshError(f"invalid parameter refinement={refinement}")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    for _ in range(refinement):
        verts, faces = _subdivide_on_sphere(verts, faces)
    return TriangleMesh(verts * radius, faces)


def _subdivide_on_sphere(verts, faces):
    """Split each face into four, projecting edge midpoints onto the unit sphere.

    Midpoints are numbered after the old vertices in order of first
    encounter along the face sides (a, b), (b, c), (c, a), face by face.
    """
    v = len(verts)
    sides = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
    keys = sides.min(axis=1) * v + sides.max(axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(first)
    rank[order] = np.arange(first.size)
    i, j = sides[first[order]].T
    p = verts[i] + verts[j]
    mids = (v + rank[inverse]).reshape(-1, 3)
    (a, b, c), (ab, bc, ca) = faces.T, mids.T
    out = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return (np.concatenate([verts, p / np.sqrt(np.vecdot(p, p))[:, None]]),
            out.reshape(-1, 3))


def _grid_faces(corners):
    """Two triangles (v00, v10, v11) and (v00, v11, v01) per cell of a grid
    whose cell corners have the vertex indices ``corners``, every first
    triangle before every second one."""
    v00, v10, v01, v11 = corners[:-1, :-1], corners[1:, :-1], corners[:-1, 1:], corners[1:, 1:]
    return np.concatenate([np.stack([v00, v10, v11], axis=-1).reshape(-1, 3),
                           np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)])


def clifford_torus(n_u, n_v):
    """Flat torus (cos u, sin u, cos v, sin v)/sqrt(2) in R^4 on an n_u x n_v grid."""
    if n_u < 8 or n_v < 8:
        raise MeshError(f"invalid parameters n_u={n_u}, n_v={n_v} (need >= 8)")
    u = 2.0 * np.pi * np.arange(n_u) / n_u
    v = 2.0 * np.pi * np.arange(n_v) / n_v
    uu, vv = np.meshgrid(u, v, indexing="ij")
    verts = np.stack(
        [np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)], axis=-1
    ).reshape(-1, 4) / np.sqrt(2.0)
    idx = np.arange(n_u * n_v).reshape(n_u, n_v)
    return TriangleMesh(verts, _grid_faces(np.pad(idx, ((0, 1), (0, 1)), mode="wrap")))


def flat_rectangle(a, b, n_x, n_y):
    """Structured triangulation of [0,a] x [0,b] in the z=0 plane of R^3.

    n_x, n_y count grid cells; boundary vertices are flagged.
    """
    if a <= 0 or b <= 0:
        raise MeshError(f"invalid parameters a={a}, b={b}")
    if n_x < 2 or n_y < 2:
        raise MeshError(f"invalid parameters n_x={n_x}, n_y={n_y} (need >= 2)")
    x = np.linspace(0.0, a, n_x + 1)
    y = np.linspace(0.0, b, n_y + 1)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    verts = np.stack([xx, yy, np.zeros_like(xx)], axis=-1).reshape(-1, 3)
    idx = np.arange((n_x + 1) * (n_y + 1)).reshape(n_x + 1, n_y + 1)
    return TriangleMesh(verts, _grid_faces(idx))


def geodesic_cap(angle, refinement):
    """Geodesic cap of the unit sphere: polar angle <= ``angle`` from +z.

    Faces of an icosphere whose vertices all satisfy theta <= angle are
    kept; rim vertices are then moved along their azimuth onto the exact
    boundary circle theta = angle, staying on the unit sphere.
    """
    if not 0 < angle < np.pi:
        raise MeshError(f"invalid parameter angle={angle}")
    sphere = icosphere(1.0, refinement)
    theta = np.arccos(np.clip(sphere.vertices[:, 2], -1.0, 1.0))
    keep_f = (theta[sphere.faces] <= angle + 1e-9).all(axis=1)
    faces = sphere.faces[keep_f]
    if faces.size == 0:
        raise MeshError(f"invalid parameter angle={angle}: no faces on the cap")
    used = np.unique(faces)
    remap = -np.ones(sphere.num_vertices, dtype=np.int64)
    remap[used] = np.arange(used.size)
    trimmed = TriangleMesh(sphere.vertices[used], remap[faces])
    rim = trimmed.boundary_vertex
    verts = trimmed.vertices.copy()
    horiz = verts[rim, :2]
    norm = np.linalg.norm(horiz, axis=1, keepdims=True)
    verts[rim, :2] = np.sin(angle) * horiz / norm
    verts[rim, 2] = np.cos(angle)
    return TriangleMesh(verts, trimmed.faces)


_GENERATORS = {
    "icosphere": icosphere,
    "clifford_torus": clifford_torus,
    "flat_rectangle": flat_rectangle,
    "geodesic_cap": geodesic_cap,
}


def generate(shape, **params):
    """Dispatch to a named generator: icosphere, clifford_torus, flat_rectangle, geodesic_cap."""
    try:
        gen = _GENERATORS[shape]
    except KeyError:
        raise MeshError(f"unknown shape {shape!r}; choices: {sorted(_GENERATORS)}") from None
    try:
        return gen(**params)
    except TypeError as exc:
        raise MeshError(f"invalid parameters for {shape}: {exc}") from None


# -- OFF I/O -------------------------------------------------------------


def save_mesh(mesh, path):
    """Write OFF: header, "V F E", coordinates at 17 significant digits, faces.

    Ambient R^4 meshes are marked with a "# ambient 4" header comment.
    """
    lines = ["OFF"]
    if mesh.ambient_dim == 4:
        lines.append("# ambient 4")
    lines.append(f"{mesh.num_vertices} {mesh.num_faces} {mesh.num_edges}")
    for p in mesh.vertices:
        lines.append(" ".join(f"{c:.17g}" for c in p))
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read the OFF format written by :func:`save_mesh` and validate the mesh."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    ambient = 3
    lines = []
    for ln in raw:
        s = ln.strip()
        if not s:
            continue
        if s.startswith("#"):
            if s.replace(" ", "") == "#ambient4":
                ambient = 4
            continue
        lines.append(s)
    if not lines or lines[0] != "OFF":
        raise MeshError(f"{path}: not an OFF file (missing header)")
    try:
        nv, nf, _ = (int(t) for t in lines[1].split())
    except (IndexError, ValueError):
        raise MeshError(f"{path}: malformed count line") from None
    if len(lines) < 2 + nv + nf:
        raise MeshError(f"{path}: truncated file")
    try:
        verts = np.array([[float(t) for t in lines[2 + i].split()] for i in range(nv)])
    except ValueError:
        raise MeshError(f"{path}: malformed vertex line") from None
    if nv and verts.shape[1] != ambient:
        raise MeshError(f"{path}: expected {ambient} coordinates per vertex, got {verts.shape[1]}")
    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        toks = lines[2 + nv + i].split()
        if len(toks) != 4 or toks[0] != "3":
            raise MeshError(f"{path}: face line {i} is not a triangle")
        faces[i] = [int(t) for t in toks[1:]]
    return TriangleMesh(verts, faces)
