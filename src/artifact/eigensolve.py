"""Certified sparse symmetric generalized eigensolver.

Computes the k algebraically smallest eigenpairs of A x = lambda M x
(A symmetric, M diagonal positive) by shift-invert Lanczos around
sigma = 0, or sigma = -1e-6 trace(A)/dim when A may be singular, with a
sparse symmetric factorization of (A - sigma M).  Every returned pair
carries a residual certificate re-verified by an independent matvec;
the count of eigenvalues below max(lambda) is cross-checked against the
inertia of (A - lambda' M) from a no-pivot symmetric LDU factorization,
which guards against silently missed members of clusters.
``inertia_count`` is that count, for any shift: callers use it to find
which parts of a spectrum have values below a bound before solving them.
``merged_selection`` picks the k lowest values of a pencil from
certified solves of its invariant subspaces and says below what shift
they are complete, without factoring the pencil; ``merged_eigenpairs``
lifts the picked pairs and certifies them the same way on the pencil.

This module alone decides five things about a computed spectrum:
the residual bound every certified pair meets (``RESIDUAL_TOL``, read
when a pair is certified, so no caller passes a bound of its own),
where one eigenvalue ends and the next begins (``clear_gaps``: a step
wider than 1e-8 of the scale; the orthonormality clusters, the inertia
shift of a solve, the merge's fallback shift and the Kohn count shift
``count_shift`` all read it), where an inertia shift goes and with what
step, how many pairs a solve can return (``max_pairs``), and below
what bound a result is complete: every certified result records
``meta["complete_below"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence

__all__ = ["SpectrumResult", "EigensolveError", "CertificationError",
           "smallest_eigenpairs", "merged_selection", "merged_eigenpairs", "inertia_count",
           "solve_pair", "clear_gaps", "count_shift", "max_pairs"]

DENSE_CUTOFF = 64
# Bound on each pair's relative residual ||r|| / (||A||_inf ||x||_M).
RESIDUAL_TOL = 1e-8


class EigensolveError(RuntimeError):
    """Factorization failure, non-convergence or a failed residual bound."""


class CertificationError(EigensolveError):
    """A post-hoc certificate (residual, orthonormality, inertia, PSD) failed."""


@dataclass
class SpectrumResult:
    """Ascending eigenvalues (multiplicity counted, indexed from 1 in the
    reports), M-orthonormal eigenvectors as columns, per-pair relative
    residuals, and the number of eigenvalues below the kernel threshold.
    ``eigenvectors`` is None where the vectors are not formed: the Kohn
    spectrum keeps its mode vectors in ``meta`` (``kohn_spectrum``)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residuals: np.ndarray
    zero_count: int
    meta: dict = field(default_factory=dict)

    def to_json_dict(self, p=None):
        return {
            "p": p,
            "eigenvalues": self.eigenvalues.tolist(),
            "residuals": self.residuals.tolist(),
            "zero_count": self.zero_count,
        }


def _mass_matrix(mass, dim):
    if mass is None:
        return None, np.ones(dim)
    diag = np.asarray(mass, dtype=float)
    if diag.shape != (dim,):
        raise ValueError(f"mass must hold {dim} diagonal entries, got shape {diag.shape}")
    if (diag <= 0).any():
        raise ValueError("mass diagonal must be strictly positive")
    return sp.diags(diag, format="csr"), diag


def _factor_symmetric(k_csc):
    """No-pivot symmetric-mode LDU; valid for inertia only when the row and
    column permutations agree.

    Every factorization of the solver goes through here.  ``relax=1``
    turns off relaxed supernodes: SuperLU would otherwise merge small
    elimination subtrees that share no rows into dense supernodes and
    store their explicit zeros, which triples the stored entries of the
    hierarchically numbered icosphere p=0 pencils and slows every solve
    with them.  Pencils without such subtrees factor the same either way.
    """
    return spla.splu(
        k_csc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        relax=1,
        options=dict(SymmetricMode=True),
    )


def _zero_count(vals):
    lam_max = float(vals[-1]) if len(vals) else 0.0
    if lam_max <= 0.0:
        return len(vals)
    clear = vals[vals > 1e-6 * lam_max]
    if clear.size == 0:
        return len(vals)
    threshold = 1e-6 * float(clear[0])
    return int((vals < threshold).sum())


def clear_gaps(vals, scale):
    """Indices i at which ascending ``vals`` step up to vals[i + 1] by more
    than 1e-8 ``scale``: the one rule for where one computed eigenvalue
    ends and the next begins."""
    return np.flatnonzero(np.diff(vals) > 1e-8 * scale)


def cluster_slices(vals, scale):
    """Split ascending ``vals`` into clusters at their ``clear_gaps``."""
    cuts = [0, *(clear_gaps(vals, scale) + 1).tolist(), len(vals)]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def max_pairs(dim):
    """The most pairs ``smallest_eigenpairs`` returns for dimension dim:
    all of them on the dense path, dim - 2 on the Lanczos path."""
    return dim if dim <= DENSE_CUTOFF else dim - 2


def smallest_eigenpairs(a, mass=None, k=6, seed=42, definite=False, inertia=None):
    """k smallest eigenpairs of A x = lambda M x with certificates.

    Parameters
    ----------
    a : sparse symmetric matrix
    mass : 1-d array_like of dim positive diagonal entries, or None
        None means the identity (standard problem).
    k : int
        Number of pairs, at most ``max_pairs(dim)``: dim - 2 on the
        iterative path (small problems fall back to a dense solve that
        allows k <= dim).
    seed : int
        Seeds the Lanczos starting vector; fixed seed gives
        reproducible spectra to machine precision.
    definite : bool
        Declares A positive definite so the shift sigma = 0 can be
        factorized directly (Dirichlet problems); otherwise
        sigma = -1e-6 trace(A)/dim keeps the factorization away from a
        possible kernel.
    inertia : tuple or None
        ``(count, shift, nnz)`` as returned by ``inertia_count`` for this
        pencil, with count = k: the caller's count then certifies the
        solve in place of its own inertia factorization.  Exactly k
        computed values must lie below ``shift``; otherwise the solve is
        retried once with a deeper Krylov space, and a second mismatch
        raises ``CertificationError``.

    Every pair's relative residual must be at most ``RESIDUAL_TOL``;
    otherwise ``EigensolveError`` is raised.  A must be positive
    semi-definite: lambda_1 < -1e-9 ||A||_inf raises CertificationError.

    Returns
    -------
    SpectrumResult
        ``meta["complete_below"]`` is at or below every eigenvalue not
        returned: ``inf`` when k = dim, the last returned value
        otherwise.  On the iterative path ``meta`` also holds the shift
        ``sigma``, the inertia shift and count, and ``factor_nnz`` and
        ``inertia_nnz``: the entries SuperLU stores for the shift
        factorization and for the inertia factorization that certified
        the result (the caller's, when ``inertia`` is given).
    """
    a = sp.csr_matrix(a)
    dim = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("stiffness operator must be square")
    if not 1 <= k <= max_pairs(dim):
        raise ValueError(f"k={k} is not in 1..{max_pairs(dim)}, the pairs a solve of "
                         f"dimension {dim} returns")
    if inertia is not None and inertia[0] != k:
        raise ValueError(f"an inertia count certifies k={k} pairs only when it counts k "
                         f"values, got {inertia[0]}")
    m_op, m_diag = _mass_matrix(mass, dim)

    if dim <= DENSE_CUTOFF:
        vals, vecs, meta = _solve_dense(a, m_diag, k)
        vals, vecs = _certify_orthonormal(vals, vecs, m_diag)
        residuals, pencil = _certify_residuals(a, m_diag, vals, vecs)
        if inertia is not None:
            meta.update(_check_count(vals, *inertia))
    else:
        # When the inertia count shows that a tight cluster lost a member
        # to the Lanczos iteration (typical for exactly doubled spectra),
        # recover once with a deeper Krylov space and re-certify everything.
        for extra in (0, 8):
            vals, vecs, meta = _solve_arpack(a, m_op, m_diag, k, seed, definite, extra)
            vals, vecs = _certify_orthonormal(vals, vecs, m_diag)
            residuals, pencil = _certify_residuals(a, m_diag, vals, vecs)
            try:
                meta.update(_verify_inertia(a, mass, vals, k) if inertia is None
                            else _check_count(vals, *inertia))
                break
            except CertificationError:
                if extra:
                    raise
        if extra:
            meta["inertia_recovered"] = True
    if vals[0] < -1e-9 * spla.norm(a, np.inf):
        raise CertificationError(f"operator expected PSD but lambda_1 = {vals[0]:.3e}")
    result_vals = vals[:k].copy()
    result_vecs = vecs[:, :k].copy()
    return SpectrumResult(result_vals, result_vecs, residuals[:k].copy(),
                          _zero_count(result_vals),
                          {"seed": seed, **meta,
                           "complete_below": np.inf if k == dim else float(result_vals[-1]),
                           "pencil_residuals": pencil[:k].copy()})


def _solve_dense(a, m_diag, k):
    vals, vecs = eigh(a.toarray(), np.diag(m_diag))
    return vals, vecs, {"method": "dense", "k_solve": a.shape[0]}


def _solve_arpack(a, m_op, m_diag, k, seed, definite, extra):
    dim = a.shape[0]
    k_solve = min(k + 4 + extra, max_pairs(dim))
    ncv = min(dim - 1, max(3 * k_solve + 1, 40)) if extra else None
    sigma = 0.0 if definite else -1e-6 * float(a.diagonal().sum()) / dim
    if not definite and sigma == 0.0:
        sigma = -1e-12
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    retries = 0
    while True:
        shifted = a - sigma * sp.diags(m_diag) if sigma != 0.0 else a
        try:
            lu = _factor_symmetric(shifted.tocsc())
            break
        except RuntimeError as exc:
            retries += 1
            if retries > 3:
                raise EigensolveError(
                    f"factorization failed after {retries - 1} shift retries: {exc}")
            sigma = -1e-6 * float(a.diagonal().sum()) / dim * 10.0 ** retries
    factor_nnz = int(lu.nnz)
    op_inv = spla.LinearOperator(a.shape, matvec=lu.solve)
    try:
        vals, vecs = spla.eigsh(a, k=k_solve, M=m_op, sigma=sigma, OPinv=op_inv,
                                which="LM", v0=v0, tol=0, ncv=ncv)
    except ArpackNoConvergence as exc:
        n_ok = 0 if exc.eigenvalues is None else len(exc.eigenvalues)
        raise EigensolveError(
            f"Lanczos did not converge: {n_ok}/{k_solve} pairs") from exc
    finally:
        del op_inv, lu  # free the factorization before any inertia factorization
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order], {
        "method": "shift-invert", "sigma": sigma, "retries": retries,
        "k_solve": k_solve, "factor_nnz": factor_nnz}


def _certify_orthonormal(vals, vecs, m_diag):
    gram = vecs.T @ (m_diag[:, None] * vecs)
    dev = np.abs(gram - np.eye(len(vals))).max()
    if dev > 1e-8:
        # Re-orthonormalize inside clusters (ARPACK can return slightly
        # skewed bases for tight clusters), then recheck.
        scale = max(float(np.abs(vals).max()), float(vals[-1] - vals[0]), 1e-300)
        for cl in cluster_slices(vals, scale):
            if cl.stop - cl.start < 2:
                continue
            block = vecs[:, cl]
            g = block.T @ (m_diag[:, None] * block)
            w, u = eigh(g)
            if w.min() <= 0:
                raise CertificationError("degenerate cluster basis (singular Gram block)")
            vecs[:, cl] = block @ (u / np.sqrt(w)) @ u.T
        gram = vecs.T @ (m_diag[:, None] * vecs)
        dev = np.abs(gram - np.eye(len(vals))).max()
        if dev > 1e-8:
            raise CertificationError(f"M-orthonormality certificate failed: {dev:.3e}")
    return vals, vecs


def _certify_residuals(a, m_diag, vals, vecs):
    """Relative residuals ||r|| / (||A||_inf ||x||_M), which certify each
    pair against ``RESIDUAL_TOL``, and the pencil-norm residuals
    ||r||_{M^-1} / ||x||_M of the same r = A x - lambda M x."""
    # Independent matvec on the stored operators, not ARPACK internals.
    r = a @ vecs - (m_diag[:, None] * vecs) * vals[None, :]
    norms = np.linalg.norm(r, axis=0)
    x_m = np.sqrt(np.einsum("ij,ij->j", vecs, m_diag[:, None] * vecs))
    norm_a = max(spla.norm(a, np.inf), 1e-300)
    residuals = norms / (norm_a * x_m)
    worst = int(np.argmax(residuals))
    if residuals[worst] > RESIDUAL_TOL:
        raise EigensolveError(f"residual certificate failed at pair {worst}: "
                              f"{residuals[worst]:.3e} > {RESIDUAL_TOL:.1e}")
    return residuals, np.sqrt(np.einsum("ij,ij->j", r, r / m_diag[:, None])) / x_m


def _shift_scale(vals):
    """max(|top|, top - bottom, 1) of ascending ``vals``: the scale of an
    inertia shift placed among them and of their clear gaps."""
    return max(abs(float(vals[-1])), float(vals[-1] - vals[0]), 1.0)


def _gap_middle(vals, i):
    """The middle of the gap vals[i] .. vals[i + 1], and a quarter of the
    gap as the step for moving a shift placed there."""
    return float(vals[i] + vals[i + 1]) / 2.0, float(vals[i + 1] - vals[i]) / 4.0


def _gap_shift(vals, k):
    """lambda' in the widest clear gap among ascending ``vals`` at or beyond
    index k, with its ``_gap_middle`` step; just past vals[-1] when no gap
    there is clear (``clear_gaps``) at the ``_shift_scale``.
    """
    scale = _shift_scale(vals)
    tail = vals[k - 1:]
    clear = clear_gaps(tail, scale)
    if clear.size:
        # The widest gap, not the first clear one: it keeps lambda' as far
        # from every computed value as they allow, so the error of a value
        # cannot carry it across lambda' in the factorization's count.  With
        # the first clear gap, the clifford64 closed audit (j_max 20, seed 2)
        # put lambda' = 15.96 in a split cluster and counted 22 against 23
        # computed values, even after the deeper-Krylov retry.
        return _gap_middle(tail, clear[np.argmax(np.diff(tail)[clear])])
    return float(vals[-1]) + 1e-6 * scale, 1e-7 * scale


def count_shift(values, bound, k):
    """Shift B at which a part of a spectrum is counted, and its step: the
    ``_gap_middle`` of the first clear gap at or past the k-th lowest of
    the ``values`` below ``bound``, followed by ``bound`` itself;
    ``bound`` when no such gap lies below it.  So B is at or above the
    k-th lowest value whenever that is at or below ``bound``.  The first
    clear gap, not the widest as in ``_gap_shift``, keeps B, and with it
    the number of pairs a later part is solved for, as low as it can be.
    """
    edge = np.append(np.sort(values[values < bound]), bound)
    scale = _shift_scale(edge)
    clear = clear_gaps(edge[k - 1:], scale)
    if clear.size == 0:
        return bound, 1e-7 * scale
    return _gap_middle(edge, k - 1 + clear[0])


def inertia_count(a, mass, shift, step):
    """Count of pencil eigenvalues below ``shift`` by LDU diagonal signs.

    ``mass`` is as for ``smallest_eigenpairs``: the diagonal of M, or
    None for the identity.  One no-pivot symmetric factorization of
    (A - shift M) gives the count by Sylvester's law of inertia when its
    row and column permutations agree and every pivot is finite and
    nonzero.  On a pivot breakdown the shift moves up by a quarter
    ``step`` and the factorization is tried again, four attempts in
    all, so the shift only ever moves upward; after the last attempt
    ``CertificationError`` is raised.  Returns the count, the shift it
    holds at and the entries SuperLU stored for the factorization.
    """
    if not step >= 0.0:
        raise ValueError(f"step must be >= 0, got {step}")
    m = _mass_matrix(mass, a.shape[0])[0]
    if m is None:
        m = sp.identity(a.shape[0], format="csr")
    for attempt in range(4):
        lam = shift + step * attempt / 4.0
        try:
            lu = _factor_symmetric((a - lam * m).tocsc())
        except RuntimeError:  # an exactly zero pivot
            continue
        perm_ok = np.array_equal(lu.perm_r, lu.perm_c)
        diag = lu.U.diagonal()
        nnz = int(lu.nnz)
        del lu
        if perm_ok and diag.min() != 0.0 and np.isfinite(diag).all():
            return int((diag < 0).sum()), lam, nnz
    raise CertificationError("inertia factorization kept pivoting; count unavailable")


def _verify_inertia(a, m, vals, k):
    """Count pencil eigenvalues below lambda' with ``inertia_count``.

    lambda' is placed in the widest gap among the computed values at or
    beyond index k (the +4 padding), so no uncomputed eigenvalue can sit
    below it unless the iteration actually missed one -- which is
    exactly what the count detects.
    """
    return _check_count(vals, *inertia_count(a, m, *_gap_shift(vals, k)))


def _check_count(vals, negative, lam, nnz):
    """The inertia ``meta`` of a solve whose computed ``vals`` hold exactly
    the count ``negative`` of pencil eigenvalues below ``lam``, from a
    factorization that stored ``nnz`` entries; ``CertificationError``
    when they do not."""
    expected = int((vals < lam).sum())
    if negative != expected:
        raise CertificationError(
            f"inertia count {negative} at lambda'={lam!r} does not match "
            f"{expected} computed eigenvalues: missed cluster members")
    return {"inertia_checked": True, "inertia_count": negative,
            "inertia_shift": lam, "inertia_nnz": nnz}


def merged_selection(values, tops, k):
    """The k lowest values of a pencil from solves of its invariant subspaces.

    ``values`` holds one array of ascending computed values per subspace
    and ``tops`` one bound per subspace, at or below every value its
    solve did not compute (``inf`` when the solve returned the whole
    subspace spectrum).  No uncomputed value lies below the smallest
    top, so when the k-th lowest value of the union is at or below it
    the k lowest values of the union are the pencil's k lowest;
    otherwise returns None.

    Returns ``(pick, result)``: ``pick`` indexes the k lowest in the
    concatenated ``values``, ascending by value, and ``result`` is a
    ``SpectrumResult`` of those values with their ``zero_count``, whose
    ``eigenvectors`` and ``residuals`` the caller sets.  Its ``meta``
    holds ``complete_below`` (the smallest top) and the count
    ``inertia_count`` of pencil eigenvalues below ``inertia_shift``,
    placed where ``_verify_inertia`` would put it for the union values
    strictly below the bound followed by the bound itself.  When that
    is not below the bound (no wide gap at or past the k-th value), the
    shift goes to the middle of the last of their ``clear_gaps`` below
    the bound, so that it keeps clear of every computed eigenvalue: two
    values a rounding error apart may be one eigenvalue computed twice,
    and a shift between them would count it on one side in the merge
    and on the other in a factorization of the pencil.  Nothing is
    factored here: the count is read off the merged values
    (``inertia_source: "merged"``), and rests on the inertia checks or
    counts of the parts.
    """
    union = np.concatenate(values)
    bound = min(tops)
    order = np.argsort(union, kind="stable")
    ranked = union[order]
    if len(union) < k or ranked[k - 1] > bound:
        return None
    complete = ranked[ranked < bound]
    edge = complete if np.isinf(bound) else np.append(complete, bound)
    shift = _gap_shift(edge, k)[0]
    if shift >= bound:
        # the middle of the last clear gap, the one below edge[0] if none
        scale = _shift_scale(edge)
        lows = np.insert(edge, 0, edge[0] - scale)
        shift = _gap_middle(lows, clear_gaps(lows, scale)[-1])[0]
    vals = ranked[:k]
    meta = {"complete_below": bound, "inertia_source": "merged",
            "inertia_shift": shift, "inertia_count": int((complete < shift).sum())}
    return order[:k], SpectrumResult(vals, None, None, _zero_count(vals), meta)


def merged_eigenpairs(a, mass, parts, k):
    """The k lowest pairs of A x = lambda M x from solves of invariant subspaces.

    ``parts`` holds one ``(values, top, lift)`` per subspace: its
    ascending computed values and ``top`` as for ``merged_selection``,
    which picks the k lowest values, and ``lift``, which maps an index
    array, possibly empty, to the full-space vectors of those values as
    columns.  Returns None when the selection is incomplete.  Only the
    chosen columns are lifted, and the k pairs are re-certified
    (M-orthonormality and residuals) on (A, M); ``meta`` is the
    selection's, with ``pencil_residuals``.
    """
    m_diag = _mass_matrix(mass, a.shape[0])[1]
    values, tops, lifts = zip(*parts)
    selection = merged_selection(values, tops, k)
    if selection is None:
        return None
    pick, result = selection
    chosen = np.sort(pick)
    starts = np.cumsum([0, *map(len, values)])
    vecs = np.hstack([lift(chosen[(chosen >= lo) & (chosen < hi)] - lo)
                      for lift, lo, hi in zip(lifts, starts[:-1], starts[1:])])
    vecs = vecs[:, np.searchsorted(chosen, pick)]
    result.eigenvectors = _certify_orthonormal(result.eigenvalues, vecs, m_diag)[1]
    result.residuals, pencil = _certify_residuals(a, m_diag, result.eigenvalues,
                                                  result.eigenvectors)
    result.meta.update(pencil_residuals=pencil)
    return result


def solve_pair(pair, k, seed=42):
    """Solve an assembled EigenproblemPair; Dirichlet pairs use sigma = 0."""
    return smallest_eigenpairs(pair.stiffness, pair.mass_diag, k=k, seed=seed,
                               definite=pair.dirichlet)
