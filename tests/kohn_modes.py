"""Every-mode oracle and full-grid lifts for ``heisenberg.kohn_spectrum``.

``every_mode_spectrum`` solves all m/2 t-mode operators for ceil(k/2)
pairs each and merges their lifts on the assembled L, with no inertia
count and no running bound.  It is the loop ``kohn_spectrum`` replaced
by spectrum slicing, kept as the reference that the slicing skips no
mode with a value among the k lowest.  ``lift_pairs`` rebuilds the
full-grid eigenvectors that ``kohn_spectrum`` no longer forms, so that
they can be re-certified on L.
"""

import numpy as np

from artifact import heisenberg
from artifact.eigensolve import merged_eigenpairs, smallest_eigenpairs


def mode_lifts(grid, vecs, v):
    """Lifts of real mode vectors (a, b) to eigenvectors of L: the real
    and imaginary parts of z (x) v, t the fastest axis, with z = a + i b
    on the nodes c of ``_x_pairs`` and a - i b on their images P_x c.
    z is sqrt(2) times the mode vector in the (x, y) basis, which makes
    both parts unit vectors."""
    reps, partners = heisenberg._x_pairs(grid)
    half = len(reps)

    def lift(part):
        def cols(idx):
            a, b = vecs[:half, idx], vecs[half:, idx]
            z = np.empty((2 * half, len(idx)), dtype=complex)
            z[reps], z[partners] = a + 1j * b, a - 1j * b
            return part((z[:, None, :] * v[None, :, None]).reshape(len(z) * len(v), -1))
        return cols

    return lift(np.real), lift(np.imag)


def lift_pairs(grid, result):
    """The full-grid eigenvectors of a ``kohn_spectrum`` result as columns,
    from its ``pair_mode``, ``pair_imag`` and ``mode_vectors``."""
    meta = result.meta
    vecs = heisenberg._t_modes(grid.g - 2, grid.spacings[-1])[1][:, ::-1]
    return np.column_stack([
        mode_lifts(grid, meta["mode_vectors"][:, [i]], vecs[:, j])[int(imag)](np.array([0]))
        for i, (j, imag) in enumerate(zip(meta["pair_mode"], meta["pair_imag"]))])


def every_mode_spectrum(grid, k=12, tol=1e-8, seed=42):
    """``kohn_spectrum`` with every mode solved for ceil(k/2) pairs: the
    mode with the smallest top has ceil(k/2) values at or below it, each
    doubled, so the merge is always complete."""
    lap = heisenberg.build_kohn_laplacian(grid)
    mu, vecs = heisenberg._t_modes(grid.g - 2, grid.spacings[-1])
    pieces = heisenberg._mode_pieces(grid)
    slack = heisenberg._certify_t_modes(grid, mu, vecs, pieces)
    parts, modes = [], []
    for mu_j, v, op in zip(mu, vecs.T, heisenberg._mode_operators(grid, mu, pieces)):
        res = smallest_eigenpairs(op, None, k=(k + 1) // 2, tol=tol, seed=seed,
                                  definite=True)
        top = float(res.eigenvalues[-1])
        parts += [(res.eigenvalues, top, lift)
                  for lift in mode_lifts(grid, res.eigenvectors, v)]
        modes.append({**res.meta, "mu": float(mu_j), "dim": op.shape[0]})
    result = merged_eigenpairs(lap, None, parts, k, tol)
    result.meta.update(method="every-mode", seed=seed, modes=modes, weyl_slack=slack)
    return result
