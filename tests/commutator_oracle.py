"""Per-trial oracle for ``commutator.run_trials``.

``run_trials`` draws its trials into one stack per dimension and checks
each stack in one pass.  This module checks every (L, G) pair on its
own, in trial order: it draws the pair, checks symmetry, takes the
eigenbasis of L as eigh returns it, reads B = V^T [L, G] V there and
computes the coupling and the identity from B and the double
commutator.  It shares with the stacked path only the random degenerate
matrices and the tolerances, which makes its records an independent
reference for the stacked ones.
"""

from typing import NamedTuple

import numpy as np

from artifact.commutator import (DEGENERACY_REL, ORTHOGONALITY_REL, CommutatorError,
                                 _random_degenerate)


def _check_symmetric(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    dev = np.abs(mat - mat.T).max()
    if dev > 1e-12 * max(1.0, np.abs(mat).max()):
        raise ValueError(f"{name} is not symmetric: max deviation {dev:.3e}")
    return mat


class _Pair(NamedTuple):
    """What both checks need of one (L, G) pair: G, the eigendecomposition
    of L, [L, G] and B = V^T [L, G] V, the eigenvalue gaps with their
    degeneracy mask |lambda_k - lambda_j| <= delta, and ||G||_2."""

    g_mat: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray
    comm: np.ndarray
    b_mat: np.ndarray
    gaps: np.ndarray
    degenerate: np.ndarray
    norm_g: float


def _decompose(l_mat, g_mat):
    l_mat = _check_symmetric(l_mat, "L")
    g_mat = _check_symmetric(g_mat, "G")
    vals, vecs = np.linalg.eigh(l_mat)
    spread = vals[-1] - vals[0]
    delta = DEGENERACY_REL * (spread if spread > 0 else 1.0)
    comm = l_mat @ g_mat - g_mat @ l_mat
    gaps = vals[None, :] - vals[:, None]
    return _Pair(g_mat, vals, vecs, comm, vecs.T @ comm @ vecs, gaps,
                 np.abs(gaps) <= delta, float(np.linalg.norm(g_mat, 2)))


def _max_coupling(pair):
    cross = np.abs(pair.b_mat[pair.degenerate & ~np.eye(len(pair.vals), dtype=bool)])
    return float(cross.max()) if cross.size else 0.0


def _identity_residual(pair):
    norm_l = float(np.abs(pair.vals).max())
    num_tol = ORTHOGONALITY_REL * max(norm_l * pair.norm_g, 1e-300)
    coupling = _max_coupling(pair)
    if coupling > num_tol:
        raise CommutatorError(f"degenerate cross term {coupling:.3e} exceeds "
                              f"tolerance {num_tol:.3e}: the eigenbasis leaves an eigenspace")

    degenerate, gaps, b_mat = pair.degenerate, pair.gaps, pair.b_mat
    weights = np.where(degenerate, 0.0, b_mat ** 2 / np.where(degenerate, 1.0, gaps))
    lhs = weights.sum(axis=1)

    double = pair.comm @ pair.g_mat - pair.g_mat @ pair.comm
    rhs = -0.5 * np.einsum("ij,ij->j", pair.vecs, double @ pair.vecs)

    scale = max(norm_l * pair.norm_g ** 2, 1e-300)
    return np.abs(lhs - rhs), scale


def _random_symmetric(rng, dim):
    mat = rng.standard_normal((dim, dim))
    return 0.5 * (mat + mat.T)


def run_trials(n_trials, dim_min=2, dim_max=30, seed=0, degenerate=False):
    """The records of ``commutator.run_trials``, one trial at a time."""
    if dim_min < 2 or dim_max < dim_min:
        raise ValueError(f"need 2 <= dim_min <= dim_max, got [{dim_min}, {dim_max}]")
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(n_trials):
        dim = int(rng.integers(dim_min, dim_max + 1))
        l_mat = (_random_degenerate if degenerate else _random_symmetric)(rng, dim)
        g_mat = _random_symmetric(rng, dim)
        pair = _decompose(l_mat, g_mat)
        residuals, scale = _identity_residual(pair)
        record = {"trial": trial, "dim": dim, "degenerate": bool(degenerate),
                  "max_residual": float(residuals.max()), "scale": scale}
        if degenerate:
            norm_l = np.abs(pair.vals).max()
            record["max_coupling"] = _max_coupling(pair)
            record["coupling_scale"] = float(max(norm_l * pair.norm_g, 1e-300))
        records.append(record)
    return records
