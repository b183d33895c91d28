"""Every-mode oracle and full-grid lifts for ``heisenberg.kohn_spectrum``.

``every_mode_spectrum`` solves all m/2 t-mode operators for ceil(k/2)
pairs each and merges their lifts on the assembled L, with no inertia
count and no running bound.  It is the loop ``kohn_spectrum`` replaced
by spectrum slicing, kept as the reference that the slicing skips no
mode with a value among the k lowest.  ``lift_pairs`` rebuilds the
full-grid eigenvectors that ``kohn_spectrum`` no longer forms, so that
they can be re-certified on L: a mode vector w lives on the (x, y) grid
in the real gauge of ``gauge``, and its lifts are sqrt(2) Re and
sqrt(2) Im of conj(U) w (x) v for the t-mode v.
"""

import numpy as np

from artifact import heisenberg
from artifact.eigensolve import merged_eigenpairs, smallest_eigenpairs


def gauge(grid):
    """Diagonal of U = diag(i^(sum of the (x, y) node indices)), the gauge
    in which every t-mode L_mu is the real ``heisenberg._mode_operators``
    operator U L_mu U^*."""
    n, m = grid.n, grid.g - 2
    return np.array([1, 1j, -1, -1j])[sum(np.indices((m,) * (2 * n))).ravel() % 4]


def mode_lifts(grid, vecs, v):
    """Lifts of real mode vectors w to eigenvectors of L: sqrt(2) times the
    real and imaginary parts of z (x) v, t the fastest axis, with
    z = conj(U) w a unit eigenvector of the complex t-mode L_mu; as
    v^T v = 0, both parts are unit vectors."""
    z = np.sqrt(2.0) * gauge(grid).conj()[:, None] * vecs

    def lift(part):
        def cols(idx):
            return part((z[:, idx][:, None, :] * v[None, :, None]).reshape(len(z) * len(v), -1))
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


def every_mode_spectrum(grid, k=12, seed=42):
    """``kohn_spectrum`` with every mode solved for ceil(k/2) pairs: the
    mode with the smallest top has ceil(k/2) values at or below it, each
    doubled, so the merge is always complete."""
    lap = heisenberg.build_kohn_laplacian(grid)
    mu, vecs = heisenberg._t_modes(grid.g - 2, grid.spacings[-1])
    pieces = heisenberg._mode_pieces(grid)
    slack = heisenberg._certify_t_modes(grid, mu, vecs, pieces)
    parts, modes = [], []
    for mu_j, v, op in zip(mu, vecs.T, heisenberg._mode_operators(mu, pieces)):
        res = smallest_eigenpairs(op, None, k=(k + 1) // 2, seed=seed, definite=True)
        top = float(res.eigenvalues[-1])
        parts += [(res.eigenvalues, top, lift)
                  for lift in mode_lifts(grid, res.eigenvectors, v)]
        modes.append({**res.meta, "mu": float(mu_j), "dim": op.shape[0]})
    result = merged_eigenpairs(lap, None, parts, k)
    result.meta.update(method="every-mode", seed=seed, modes=modes, weyl_slack=slack)
    return result
