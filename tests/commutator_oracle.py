"""Per-trial oracle for ``commutator.run_trials``.

``run_trials`` draws its trials into one stack per dimension and checks
each stack at once.  This module keeps the loop it replaced: every
(L, G) pair is drawn, checked, eigendecomposed, adapted and measured on
its own, in trial order.  It shares with the stacked path only the
random degenerate matrices, the clustering helper and the block
rotation (looked up on the module, so a test that patches
``commutator._rotate_blocks`` patches both), which makes its records an
independent reference for the stacked ones.
"""

from typing import NamedTuple

import numpy as np

from artifact import commutator
from artifact.commutator import (DEGENERACY_REL, ORTHOGONALITY_REL, CommutatorError,
                                 _random_degenerate)
from artifact.eigensolve import cluster_slices


def _check_symmetric(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    dev = np.abs(mat - mat.T).max()
    if dev > 1e-12 * max(1.0, np.abs(mat).max()):
        raise ValueError(f"{name} is not symmetric: max deviation {dev:.3e}")
    return mat


class _Adapted(NamedTuple):
    """What both checks need of one (L, G) pair: G, the eigendecomposition
    of L with its degenerate ``blocks`` (gap ``delta``) rotated to
    diagonalize G, [L, G] and ||G||_2."""

    g_mat: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray
    blocks: list
    delta: float
    comm: np.ndarray
    norm_g: float


def _adapt(l_mat, g_mat):
    l_mat = _check_symmetric(l_mat, "L")
    g_mat = _check_symmetric(g_mat, "G")
    vals, vecs = np.linalg.eigh(l_mat)
    spread = vals[-1] - vals[0]
    delta = DEGENERACY_REL * (spread if spread > 0 else 1.0)
    blocks = cluster_slices(vals, delta)
    commutator._rotate_blocks(vecs, g_mat, blocks)
    comm = l_mat @ g_mat - g_mat @ l_mat
    return _Adapted(g_mat, vals, vecs, blocks, delta, comm, float(np.linalg.norm(g_mat, 2)))


def _identity_residual(adapted):
    g_mat, vals, vecs, blocks, delta, comm, norm_g = adapted
    norm_l = float(np.abs(vals).max()) if len(vals) else 0.0
    num_tol = ORTHOGONALITY_REL * max(norm_l * norm_g, 1e-300)
    gaps = vals[None, :] - vals[:, None]
    degenerate = np.abs(gaps) <= delta
    off_diag = degenerate & ~np.eye(len(vals), dtype=bool)

    for attempt in range(2):
        b_mat = vecs.T @ comm @ vecs
        bad = np.abs(b_mat[off_diag])
        if not bad.size or bad.max() <= num_tol:
            break
        if attempt == 1:
            raise CommutatorError(
                f"degenerate cross term {bad.max():.3e} exceeds tolerance "
                f"{num_tol:.3e} after eigenspace adaptation")
        # Re-adapt once from the current basis: recomputing the compression
        # of G against the already-rotated block polishes roundoff drift.
        # On a copy: the coupling check reads the first-adapted basis.
        vecs = vecs.copy()
        commutator._rotate_blocks(vecs, g_mat, blocks)

    weights = np.where(degenerate, 0.0, b_mat ** 2 / np.where(degenerate, 1.0, gaps))
    lhs = weights.sum(axis=1)

    double = comm @ g_mat - g_mat @ comm
    rhs = -0.5 * np.einsum("ij,ij->j", vecs, double @ vecs)

    scale = max(norm_l * norm_g ** 2, 1e-300)
    return np.abs(lhs - rhs), scale


def _max_coupling(adapted):
    worst = 0.0
    for cl in adapted.blocks:
        if cl.stop - cl.start > 1:
            block = adapted.vecs[:, cl]
            cross = block.T @ adapted.comm @ block
            np.fill_diagonal(cross, 0.0)
            worst = max(worst, float(np.abs(cross).max()))
    return worst


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
        adapted = _adapt(l_mat, g_mat)
        residuals, scale = _identity_residual(adapted)
        record = {"trial": trial, "dim": dim, "degenerate": bool(degenerate),
                  "max_residual": float(residuals.max()), "scale": scale}
        if degenerate:
            norm_l = np.abs(adapted.vals).max()
            record["max_coupling"] = _max_coupling(adapted)
            record["coupling_scale"] = float(max(norm_l * adapted.norm_g, 1e-300))
        records.append(record)
    return records
