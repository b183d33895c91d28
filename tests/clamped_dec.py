"""The clamped Hodge-star complex, oracle of ``DecComplex``.

The package once built every pencil on the triangle complex itself: d0
and d1 of every edge and face, and a star_1 that clamped each cotangent
weight <= 0 to eps = 1e-8 * the mean positive weight.  ``DecComplex``
replaced that with the circumcentric dual cells and the raw weights.
Where no weight is <= 0 (every icosphere) the two are the same complex,
bitwise; on the grid fixtures, where the diagonal of each square has
weight exactly 0, the clamped form is the reference the exact one is
compared with.  ``clamped_star1`` and ``clamped_pencil`` assemble it the
way the package did.
"""

import numpy as np
import scipy.sparse as sp

from artifact.dec import EigenproblemPair, _cotangent_weights, _symmetrized, exterior_derivative


def clamped_star1(mesh):
    w = _cotangent_weights(mesh)
    eps = 1e-8 * float(np.maximum(w, 0.0).mean())
    return np.where(w <= 0.0, eps, w)


def clamped_stiffness0(mesh):
    d0 = exterior_derivative(mesh, 0)
    return d0.T @ sp.diags(clamped_star1(mesh)) @ d0


def clamped_pencil(mesh, p):
    """The Hodge pencil of degree p on the closed ``mesh``, clamped."""
    d0, d1, s1 = exterior_derivative(mesh, 0), exterior_derivative(mesh, 1), clamped_star1(mesh)
    if p == 0:
        a, mass = clamped_stiffness0(mesh), mesh.vertex_areas
    elif p == 1:
        up = d1.T @ sp.diags(1.0 / mesh.face_areas) @ d1
        half = sp.diags(s1) @ d0
        a, mass = up + half @ sp.diags(1.0 / mesh.vertex_areas) @ half.T, s1
    else:
        a, mass = d1 @ sp.diags(1.0 / s1) @ d1.T, mesh.face_areas
    return EigenproblemPair(_symmetrized(a), mass, p, False, np.arange(mass.size), None)
