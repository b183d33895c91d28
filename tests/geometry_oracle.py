"""Per-corner loop oracles for the triangle geometry read from ``side_gram``.

Each function recomputes one geometric quantity from the corner
positions ``vertices[faces]`` with the loops that ``TriangleMesh``,
``dec``, ``curvature`` and ``audit`` used before they read the one
per-mesh side Gram matrix: face areas from the two sides leaving
corner 0, cotangent weights and angle defects corner by corner, and
the Whitney mass from explicit barycentric gradients with a search for
each edge's tail and head corner.  They are kept as the reference that
the side-Gram forms reproduce.
"""

import numpy as np


def face_areas(mesh):
    e1 = mesh.vertices[mesh.faces[:, 1]] - mesh.vertices[mesh.faces[:, 0]]
    e2 = mesh.vertices[mesh.faces[:, 2]] - mesh.vertices[mesh.faces[:, 0]]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g22 = np.einsum("ij,ij->i", e2, e2)
    g12 = np.einsum("ij,ij->i", e1, e2)
    return 0.5 * np.sqrt(np.maximum(g11 * g22 - g12 * g12, 0.0))


def cotangent_weights(mesh):
    """Per-edge (cot a + cot b)/2, summed corner by corner."""
    v = mesh.vertices[mesh.faces]
    w = np.zeros(mesh.num_edges)
    for corner in range(3):
        p0 = v[:, corner]
        u1 = v[:, (corner + 1) % 3] - p0
        u2 = v[:, (corner + 2) % 3] - p0
        dot = np.einsum("ij,ij->i", u1, u2)
        opposite = mesh.face_edges[:, (corner + 1) % 3]
        np.add.at(w, opposite, dot / (4.0 * mesh.face_areas))
    return w


def gaussian_curvature(mesh):
    """Angle defect over lumped vertex area, angles from corner vectors."""
    v = mesh.vertices[mesh.faces]
    angles = np.zeros(mesh.num_vertices)
    for corner in range(3):
        u1 = v[:, (corner + 1) % 3] - v[:, corner]
        u2 = v[:, (corner + 2) % 3] - v[:, corner]
        c = np.einsum("ij,ij->i", u1, u2) / np.sqrt(
            np.einsum("ij,ij->i", u1, u1) * np.einsum("ij,ij->i", u2, u2))
        np.add.at(angles, mesh.faces[:, corner], np.arccos(np.clip(c, -1.0, 1.0)))
    return (2.0 * np.pi - angles) / mesh.dec.star0


def barycentric_gradients(mesh):
    """grad lambda_a per face, (F, 3, d): orthogonal to the opposite edge,
    norm 1/height_a."""
    tri = mesh.vertices[mesh.faces]
    grads = np.empty_like(tri)
    for a in range(3):
        pa = tri[:, a]
        pb = tri[:, (a + 1) % 3]
        pc = tri[:, (a + 2) % 3]
        u = pc - pb
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w = pa - pb
        w = w - np.einsum("ij,ij->i", w, u)[:, None] * u
        grads[:, a] = w / np.einsum("ij,ij->i", w, w)[:, None]
    return grads


def whitney_face_mass(mesh):
    """Per-face Whitney 1-form mass from gradients and tail/head corners."""
    grads = barycentric_gradients(mesh)
    gram = np.einsum("fad,fbd->fab", grads, grads)
    tails = mesh.edges[mesh.face_edges, 0]
    heads = mesh.edges[mesh.face_edges, 1]
    loc_tail = np.empty_like(tails)
    loc_head = np.empty_like(heads)
    for corner in range(3):
        loc_tail[tails == mesh.faces[:, corner][:, None]] = corner
        loc_head[heads == mesh.faces[:, corner][:, None]] = corner
    rows = np.arange(mesh.num_faces)
    local = np.empty((mesh.num_faces, 3, 3))
    for s in range(3):
        i, j = loc_tail[:, s], loc_head[:, s]
        for t in range(3):
            k, l = loc_tail[:, t], loc_head[:, t]
            term = ((1.0 + (i == k)) * gram[rows, j, l]
                    - (1.0 + (i == l)) * gram[rows, j, k]
                    - (1.0 + (j == k)) * gram[rows, i, l]
                    + (1.0 + (j == l)) * gram[rows, i, k])
            local[:, s, t] = mesh.face_areas / 12.0 * term
    return local
