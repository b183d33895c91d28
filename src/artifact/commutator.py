"""Finite-dimensional commutator trace identity used by the audits.

For symmetric matrices L, G with L u_j = lambda_j u_j, the identity

    sum_{k : lambda_k != lambda_j}  <[L,G] u_j, u_k>^2 / (lambda_k - lambda_j)
        = -1/2 <[[L,G],G] u_j, u_j>

holds for every j once the eigenbasis inside each degenerate eigenspace
is rotated to diagonalize the compression of G.  The two sides are
evaluated through independent matrix products (left side from [L,G],
right side from the double commutator), so agreement is evidence the
implementation of each is correct, not a tautology.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .eigensolve import cluster_slices

__all__ = ["CommutatorError", "lp_identity_residual",
           "degenerate_orthogonality_check", "run_trials"]

# Relative gap below which two eigenvalues count as degenerate.
DEGENERACY_REL = 1e-8
# Off-diagonal tolerance for G within an adapted eigenspace, relative
# to ||L|| ||G||.
ORTHOGONALITY_REL = 1e-10


class CommutatorError(RuntimeError):
    """A degenerate-block numerator survived eigenspace adaptation."""


def _check_symmetric(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    dev = np.abs(mat - mat.T).max()
    if dev > 1e-12 * max(1.0, np.abs(mat).max()):
        raise ValueError(f"{name} is not symmetric: max deviation {dev:.3e}")
    return mat


def _rotate_blocks(vecs, g_mat, blocks):
    """Rotate each degenerate block of ``vecs`` in place to diagonalize G."""
    for cl in blocks:
        if cl.stop - cl.start > 1:
            block = vecs[:, cl]
            comp = block.T @ g_mat @ block
            _, rot = np.linalg.eigh(0.5 * (comp + comp.T))
            vecs[:, cl] = block @ rot


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
    _rotate_blocks(vecs, g_mat, blocks)
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
        _rotate_blocks(vecs, g_mat, blocks)

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


def lp_identity_residual(l_mat, g_mat):
    """Per-index residual of the commutator identity, and the natural scale.

    Returns ``(residuals, scale)`` where ``residuals[j]`` is the absolute
    difference of the two sides for eigenvector j and ``scale`` is
    ||L||_2 ||G||_2^2, the size of the terms being cancelled.  Raises
    CommutatorError if a cross term inside a degenerate eigenspace
    exceeds the orthogonality tolerance even after re-adaptation.
    """
    return _identity_residual(_adapt(l_mat, g_mat))


def degenerate_orthogonality_check(l_mat, g_mat):
    """Largest commutator cross term within any degenerate eigenspace.

    After adaptation this must vanish to roundoff; the contract is
    max <= 1e-10 ||L|| ||G||.
    """
    return _max_coupling(_adapt(l_mat, g_mat))


def _random_symmetric(rng, dim):
    mat = rng.standard_normal((dim, dim))
    return 0.5 * (mat + mat.T)


def _random_degenerate(rng, dim):
    """Symmetric matrix with constructed repeated eigenvalues."""
    mat = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(mat)
    vals = []
    while len(vals) < dim:
        mult = int(rng.integers(1, 4))
        vals.extend([float(rng.standard_normal())] * mult)
    d = np.array(vals[:dim])
    mat = (q * d) @ q.T
    return 0.5 * (mat + mat.T)


def run_trials(n_trials, dim_min=2, dim_max=30, seed=0, degenerate=False):
    """Randomized identity checks; returns one record dict per trial.

    Each record holds the trial dimension, the maximum residual over
    indices j, and the scale ||L|| ||G||^2 it should be compared
    against.  Constructed-degeneracy trials additionally record the
    largest cross term of G inside a degenerate eigenspace after
    adaptation (``max_coupling``) and its scale ||L|| ||G||.
    """
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
