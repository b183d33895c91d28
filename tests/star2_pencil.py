"""The star_2-congruent 2-form pencil, oracle of the dual-graph form.

``hodge_laplacian(mesh, 2)`` assembles A' = d1 star_1^{-1} d1^T with
M' = diag(face areas).  It replaced the weak form

    A = star_2 d1 star_1^{-1} d1^T star_2,    M = star_2,

which is A', M' congruent by star_2: the same eigenvalues, with
eigenvectors v = star_2^{-1} y.  ``star2_pencil`` assembles that form
the way the package did, as the reference for the spectra, the
eigenvectors and the densities of the dual-graph form.
"""

import numpy as np
import scipy.sparse as sp

from artifact.dec import EigenproblemPair, _symmetrized


def star2_pencil(mesh):
    c = mesh.dec
    star2 = 1.0 / c.cell_areas
    half = sp.diags(star2) @ c.d1
    a = _symmetrized(half @ sp.diags(1.0 / c.star1) @ half.T)
    return EigenproblemPair(a, star2, 2, False, np.arange(star2.size), None)


def star2_density(mesh, v):
    """The p = 2 density of a star_2-pencil eigenvector: (v / area)^2,
    unit-normalized."""
    raw = (v / mesh.face_areas) ** 2
    return raw / float(mesh.face_areas @ raw)
