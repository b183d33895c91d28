"""Finite-dimensional commutator trace identity used by the audits.

For symmetric matrices L, G with L u_j = lambda_j u_j, the identity

    sum_{k : lambda_k != lambda_j}  <[L,G] u_j, u_k>^2 / (lambda_k - lambda_j)
        = -1/2 <[[L,G],G] u_j, u_j>

holds for every j in any orthonormal eigenbasis of L.  Since
<[L,G] u_j, u_k> = (lambda_k - lambda_j) <G u_j, u_k>, each term is
(lambda_k - lambda_j) <G u_j, u_k>^2, and the terms inside a degenerate
eigenspace are 0 whichever basis of it eigh returns.  The two sides are
evaluated through independent matrix products (left side from [L,G],
right side from the double commutator), so agreement is evidence the
implementation of each is correct, not a tautology.

The same factor makes the coupling <[L,G] u_j, u_k> of two eigenvectors
of one eigenspace vanish.  Checking it to ORTHOGONALITY_REL certifies
that eigh's basis stays inside each eigenspace of L, which the sum
above assumes when it leaves those pairs out.

``run_trials`` draws its random pairs into one stack per dimension and
checks each stack in one pass with no loop over its pairs.  The
single-pair checks are stacks of one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["CommutatorError", "lp_identity_residual",
           "degenerate_orthogonality_check", "run_trials"]

# Relative gap below which two eigenvalues count as degenerate.
DEGENERACY_REL = 1e-8
# Tolerance for the coupling [L, G] of two eigenvectors of one
# eigenspace, relative to ||L|| ||G||.
ORTHOGONALITY_REL = 1e-10
# Bytes of one dimension's L and G stacks together: run_trials checks a
# stack when it is full.  This bounds the trials' working memory, about
# 3 MB over dimensions 2-50, which lemma-check's peak RSS has room for.
BUCKET_BYTES = 64 * 1024


class CommutatorError(RuntimeError):
    """Two eigenvectors of one eigenspace of L are coupled by [L, G]: the
    eigenbasis has left that eigenspace."""


def _check_square(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    return mat


def _check_symmetric(stack, name):
    """Raise ValueError naming ``name`` unless every matrix of ``stack``
    is symmetric to 1e-12 of its largest entry (or of 1)."""
    dev = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(dev > 1e-12 * np.maximum(1.0, np.abs(stack).max(axis=(1, 2))))
    if bad.size:
        raise ValueError(f"{name} is not symmetric: max deviation {dev[bad[0]]:.3e}")


def _symmetrized(stack):
    return 0.5 * (stack + stack.transpose(0, 2, 1))


class _Checked(NamedTuple):
    """Both checks on a stack of (L, G) pairs of one dimension, per pair:
    the identity residual of every index j, the scale ||L|| ||G||^2, the
    largest coupling of two eigenvectors of one eigenspace and its scale
    ||L|| ||G||."""

    residuals: np.ndarray
    scale: list
    coupling: list
    coupling_scale: list


def _check_stack(l_mat, g_mat):
    """Check the identity on every pair of the stacks ``l_mat``, ``g_mat``.

    One pass over the whole stack: the eigendecompositions, [L, G] in
    the eigenbasis (B = V^T [L, G] V), both sides of the identity and
    ||G||_2.  The coupling of a pair is its largest off-diagonal |B_jk|
    with |lambda_k - lambda_j| <= delta; raises CommutatorError if one
    exceeds ORTHOGONALITY_REL ||L|| ||G||.
    """
    _check_symmetric(l_mat, "L")
    _check_symmetric(g_mat, "G")
    vals, vecs = np.linalg.eigh(l_mat)
    spread = vals[:, -1] - vals[:, 0]
    delta = DEGENERACY_REL * np.where(spread > 0, spread, 1.0)
    gaps = vals[:, None, :] - vals[:, :, None]
    degenerate = np.abs(gaps) <= delta[:, None, None]
    comm = l_mat @ g_mat - g_mat @ l_mat
    b_mat = vecs.transpose(0, 2, 1) @ comm @ vecs
    norm_l = np.abs(vals).max(axis=1)
    # ||G||_2 from the stacked norm is bitwise the per-matrix one
    norm_g = np.linalg.norm(g_mat, 2, axis=(1, 2))
    coupling_scale = np.maximum(norm_l * norm_g, 1e-300)
    cross = degenerate & ~np.eye(vals.shape[1], dtype=bool)
    coupling = np.where(cross, np.abs(b_mat), 0.0).max(axis=(1, 2))
    over = np.flatnonzero(coupling > ORTHOGONALITY_REL * coupling_scale)
    if over.size:
        j = over[0]
        raise CommutatorError(
            f"degenerate cross term {coupling[j]:.3e} exceeds tolerance "
            f"{ORTHOGONALITY_REL * coupling_scale[j]:.3e}: the eigenbasis "
            f"leaves an eigenspace")

    weights = np.where(degenerate, 0.0, b_mat ** 2 / np.where(degenerate, 1.0, gaps))
    lhs = weights.sum(axis=2)
    double = comm @ g_mat - g_mat @ comm
    rhs = -0.5 * np.einsum("bij,bij->bj", vecs, double @ vecs)
    # float_power is libm's pow, as a Python float's ** is; numpy's ** 2
    # is a multiply, which can differ in the last bit
    scale = np.maximum(norm_l * np.float_power(norm_g, 2), 1e-300)
    return _Checked(np.abs(lhs - rhs), scale.tolist(), coupling.tolist(),
                    coupling_scale.tolist())


def _one_pair(l_mat, g_mat):
    return _check_stack(_check_square(l_mat, "L")[None], _check_square(g_mat, "G")[None])


def lp_identity_residual(l_mat, g_mat):
    """Per-index residual of the commutator identity, and the natural scale.

    Returns ``(residuals, scale)`` where ``residuals[j]`` is the absolute
    difference of the two sides for eigenvector j and ``scale`` is
    ||L||_2 ||G||_2^2, the size of the terms being cancelled.  Raises
    CommutatorError if the eigenbasis of L leaves an eigenspace (see
    ``degenerate_orthogonality_check``).
    """
    checked = _one_pair(l_mat, g_mat)
    return checked.residuals[0], checked.scale[0]


def degenerate_orthogonality_check(l_mat, g_mat):
    """Largest coupling <[L,G] u_j, u_k> of two eigenvectors of one
    eigenspace of L.

    It vanishes in any basis of an exact eigenspace, so it measures only
    how far eigh's basis leaves the eigenspaces; the contract is
    max <= ORTHOGONALITY_REL ||L|| ||G||, and CommutatorError is raised
    above it, here and in ``lp_identity_residual``.
    """
    return _one_pair(l_mat, g_mat).coupling[0]


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
    largest coupling of two eigenvectors of one eigenspace
    (``max_coupling``) and its scale ||L|| ||G||.  Every trial raises
    CommutatorError if its coupling exceeds ORTHOGONALITY_REL times that
    scale.

    The trials are drawn in order, each into the bucket of its
    dimension, and a bucket is checked as one stack when it holds
    BUCKET_BYTES of matrices, or at the end.  The records are those of
    checking the trials one at a time.
    """
    if dim_min < 2 or dim_max < dim_min:
        raise ValueError(f"need 2 <= dim_min <= dim_max, got [{dim_min}, {dim_max}]")
    rng = np.random.default_rng(seed)
    records = [None] * n_trials
    buckets = {}

    def flush(dim):
        l_mat, g_mat, trials = buckets[dim]
        count = len(trials)
        l_mat = l_mat[:count] if degenerate else _symmetrized(l_mat[:count])
        checked = _check_stack(l_mat, _symmetrized(g_mat[:count]))
        max_residual = checked.residuals.max(axis=1).tolist()
        for j, trial in enumerate(trials):
            record = {"trial": trial, "dim": dim, "degenerate": bool(degenerate),
                      "max_residual": max_residual[j], "scale": checked.scale[j]}
            if degenerate:
                record["max_coupling"] = checked.coupling[j]
                record["coupling_scale"] = checked.coupling_scale[j]
            records[trial] = record
        trials.clear()

    for trial in range(n_trials):
        dim = int(rng.integers(dim_min, dim_max + 1))
        if dim not in buckets:
            size = max(1, BUCKET_BYTES // (2 * 8 * dim * dim))
            buckets[dim] = (np.empty((size, dim, dim)), np.empty((size, dim, dim)), [])
        l_mat, g_mat, trials = buckets[dim]
        j = len(trials)
        if degenerate:
            l_mat[j] = _random_degenerate(rng, dim)
        else:
            rng.standard_normal(out=l_mat[j])
        rng.standard_normal(out=g_mat[j])
        trials.append(trial)
        if len(trials) == len(l_mat):
            flush(dim)
    for dim, (_, _, trials) in buckets.items():
        if trials:
            flush(dim)
    return records
