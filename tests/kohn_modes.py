"""Every-mode oracle for ``heisenberg.kohn_spectrum``.

``every_mode_spectrum`` solves all m/2 t-mode operators for ceil(k/2)
pairs each and merges their lifts, with no inertia count and no running
bound.  It is the loop ``kohn_spectrum`` replaced by spectrum slicing,
kept as the reference that the slicing skips no mode with a value among
the k lowest.
"""

from artifact import heisenberg
from artifact.eigensolve import merged_eigenpairs, smallest_eigenpairs


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
                  for lift in heisenberg._mode_lifts(grid, res.eigenvectors, v)]
        modes.append({**res.meta, "mu": float(mu_j), "dim": op.shape[0]})
    result = merged_eigenpairs(lap, None, parts, k, tol)
    result.meta.update(method="every-mode", seed=seed, modes=modes, weyl_slack=slack)
    return result
