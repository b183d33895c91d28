"""Per-edge loop oracles for the vectorized mesh build.

``subdivide_on_sphere_loop`` numbers each edge midpoint in a dict as a
Python loop meets it, face by face, and normalizes it with
``np.linalg.norm``.  ``build_edges_axis0`` finds the undirected edges
with ``np.unique(..., axis=0)`` on the sorted vertex pairs.  They are
the code ``mesh._subdivide_on_sphere`` and ``TriangleMesh._build_edges``
replaced, kept as the reference that the replacement builds bitwise
the same meshes.
"""

import numpy as np

from artifact.mesh import MeshError


def subdivide_on_sphere_loop(verts, faces):
    vlist = list(verts)
    midpoint = {}

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        idx = midpoint.get(key)
        if idx is None:
            p = vlist[i] + vlist[j]
            vlist.append(p / np.linalg.norm(p))
            idx = len(vlist) - 1
            midpoint[key] = idx
        return idx

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return np.array(vlist), np.array(out, dtype=np.int64)


def build_edges_axis0(self):
    """``TriangleMesh._build_edges`` with the row-wise ``np.unique``."""
    f = self.faces
    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    undirected = np.sort(directed, axis=1)
    edges, inverse, counts = np.unique(
        undirected, axis=0, return_inverse=True, return_counts=True
    )
    if (counts > 2).any():
        e = edges[np.nonzero(counts > 2)[0][0]]
        raise MeshError(f"edge {tuple(e)} has more than two incident faces")
    key = directed[:, 0] * self.num_vertices + directed[:, 1]
    if np.unique(key).size != key.size:
        raise MeshError("orientation error")
    self.edges = edges
    self.face_edges = inverse.reshape(3, -1).T.copy()
    self.face_edge_signs = np.where(directed[:, 0] < directed[:, 1], 1, -1).reshape(3, -1).T.copy()
    flag = np.zeros(self.num_vertices, dtype=bool)
    flag[self.edges[counts == 1].ravel()] = True
    self.boundary_vertex = flag
