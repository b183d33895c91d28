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
Given a ``BandLayout`` of the operator's sparsity pattern it first tries
a banded Cholesky factorization of the shifted pencil on the pattern's
reverse Cuthill-McKee band, which proves a count of 0 in a fraction of
the time of the LDU factorization, and falls back to that only when the
band factorization breaks down.
``merged_selection`` picks the k lowest values of a pencil from
certified solves of its invariant subspaces and says below what shift
they are complete, without factoring the pencil; ``merged_eigenpairs``
lifts the picked pairs and certifies them the same way on the pencil.
``sector_eigenpairs``, which ``solve_pair`` always calls, splits a
pencil that commutes with given involutive row permutations (mesh
reflections) into one small pencil per character of the group they
generate (the symmetry-adapted basis of Fässler and Stiefel, 1992),
solves each with ``smallest_eigenpairs`` and merges them that way.
``grounded_solver`` solves a Laplacian with one row per connected
component fixed at 0, on the same factorization as every solve.

This module alone decides six things about a computed spectrum:
the residual bound every certified pair meets (``RESIDUAL_TOL``, read
when a pair is certified, so no caller passes a bound of its own),
where one eigenvalue ends and the next begins (``clear_gaps``: a step
wider than 1e-8 of the scale; the orthonormality clusters, the inertia
shift of a solve, the merge's fallback shift and the Kohn count shift
``count_shift`` all read it), where an inertia shift goes and with what
step, and below what bound a result is complete: every certified
result records ``meta["complete_below"]``; which factorization certifies an
inertia count, ``"band-cholesky"`` or ``"ldu"`` (``InertiaCount``);
and how a pencil splits into reflection sectors: which given row
permutations it commutes with (``SECTOR_TOL``), how many pairs each
sector is asked for and when a sector is asked for more
(``sector_eigenpairs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import ArpackNoConvergence

__all__ = ["SpectrumResult", "EigensolveError", "CertificationError",
           "smallest_eigenpairs", "merged_selection", "merged_eigenpairs", "inertia_count",
           "InertiaCount", "BandLayout", "solve_pair", "sector_eigenpairs", "clear_gaps",
           "count_shift", "check_count", "grounded_solver"]

DENSE_CUTOFF = 64
# Bound on each pair's relative residual ||r|| / (||A||_inf ||x||_M).
RESIDUAL_TOL = 1e-8
# Largest max|P A P^T - A| / max|A|, and the same of the mass diagonal,
# at which a pencil still splits by a row permutation P: the rounding of
# an assembly that is symmetric on paper (about 2 eps on the icospheres).
SECTOR_TOL = 8.0 * np.finfo(float).eps


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


def grounded_solver(a, ground):
    """Solver of A x = rhs for the x that is 0 on the rows ``ground``.

    A is a symmetric Laplacian whose kernel holds one constant per
    connected component and ``ground`` one row of each component; each
    column of a right-hand side must sum to 0 over every component.
    The rows and columns of ``ground`` are replaced by those of the
    identity, and the result is factored once with
    ``_factor_symmetric``; the returned function solves with it for all
    columns of ``rhs`` at once, after setting their grounded rows to 0.
    Each grounded row of A x = rhs then holds too, as the rows of a
    component sum to 0.
    """
    free = np.ones(a.shape[0])
    free[ground] = 0.0
    lu = _factor_symmetric(sp.csc_matrix(sp.diags(free) @ a @ sp.diags(free) + sp.diags(1 - free)))
    return lambda rhs: lu.solve(free[:, None] * rhs)


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


def smallest_eigenpairs(a, mass=None, k=6, seed=42, definite=False, inertia=None):
    """k smallest eigenpairs of A x = lambda M x with certificates.

    Parameters
    ----------
    a : sparse symmetric matrix
    mass : 1-d array_like of dim positive diagonal entries, or None
        None means the identity (standard problem).
    k : int
        Number of pairs, 1 <= k <= dim.  The solve is dense when
        dim <= ``DENSE_CUTOFF`` or k > dim - 2, the most pairs the
        Lanczos solve returns; iterative otherwise.
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
        computed values must lie below ``shift``; otherwise an
        iterative solve is retried once with a deeper Krylov space, and
        a second mismatch, or any on the dense path, raises
        ``CertificationError``.

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
    if not 1 <= k <= dim:
        raise ValueError(f"k={k} is not in 1..{dim}, the pairs a solve of "
                         f"dimension {dim} returns")
    if inertia is not None and inertia[0] != k:
        raise ValueError(f"an inertia count certifies k={k} pairs only when it counts k "
                         f"values, got {inertia[0]}")
    m_op, m_diag = _mass_matrix(mass, dim)

    dense = dim <= DENSE_CUTOFF or k > dim - 2
    # When the inertia count shows that a tight cluster lost a member
    # to the Lanczos iteration (typical for exactly doubled spectra),
    # recover once with a deeper Krylov space and re-certify everything.
    # The dense solve returns every pair: it is never retried, and it
    # counts only against a caller's count.
    depths = (0,) if dense else (0, 8)
    for extra in depths:
        vals, vecs, meta = (_solve_dense(a, m_diag, k) if dense
                            else _solve_arpack(a, m_op, m_diag, k, seed, definite, extra))
        vals, vecs = _certify_orthonormal(vals, vecs, m_diag)
        residuals, pencil = _certify_residuals(a, m_diag, vals, vecs)
        try:
            if inertia is not None:
                meta.update(check_count(vals, *inertia))
            elif not dense:
                meta.update(_verify_inertia(a, mass, vals, k))
            break
        except CertificationError:
            if extra == depths[-1]:
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
    k_solve = min(k + 4 + extra, dim - 2)  # ARPACK needs k_solve < ncv <= dim - 1
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


class InertiaCount(tuple):
    """``(count, shift, nnz)`` of ``inertia_count``: the count of pencil
    eigenvalues below ``shift`` and the entries its factorization
    stored.  ``method`` names that factorization: ``"band-cholesky"``
    for a count of 0 proved by ``BandLayout.definite``, ``"ldu"`` for a
    count read off the LDU diagonal signs."""

    def __new__(cls, count, shift, nnz, method):
        self = super().__new__(cls, (count, shift, nnz))
        self.method = method
        return self


@dataclass(frozen=True)
class BandLayout:
    """LAPACK upper band storage for one CSR sparsity pattern.

    Row i of the band is row ``order[i]`` of the operator, with
    ``order`` the reverse Cuthill-McKee ordering of the pattern
    (Cuthill and McKee, 1969), which keeps every stored entry within
    ``width`` of the diagonal.  ``keep`` picks the stored entries on or
    above the diagonal in that order and ``slots`` gives their flat
    positions in the Fortran-ordered (width + 1, n) band array, whose
    last row is the diagonal.  Built once per pattern (``of``); every
    operator with the same ``indptr`` and ``indices`` is then scattered
    into the band without another ordering.
    """

    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray
    width: int
    keep: np.ndarray
    slots: np.ndarray

    @classmethod
    def of(cls, a):
        """The layout of the pattern of the structurally symmetric CSR ``a``."""
        # imported here: loading csgraph costs every CLI start a few ms
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        a = sp.csr_matrix(a)
        dim = a.shape[0]
        order = reverse_cuthill_mckee(a, symmetric_mode=True)
        pos = np.empty(dim, dtype=np.intp)
        pos[order] = np.arange(dim)
        rows, cols = pos[np.repeat(np.arange(dim), np.diff(a.indptr))], pos[a.indices]
        width = int(np.abs(rows - cols).max(initial=0))
        keep = np.flatnonzero(rows <= cols)
        slots = width + (rows - cols)[keep] + cols[keep] * (width + 1)
        return cls(a.indptr.copy(), a.indices.copy(), order, width, keep, slots)

    @property
    def entries(self):
        """(width + 1) n: the entries the band factorization stores."""
        return (self.width + 1) * len(self.order)

    def definite(self, a, m_diag, shift):
        """Whether LAPACK ``dpbtrf`` factors the symmetric A - shift M, M =
        diag(``m_diag``), on this band: then every pivot is positive, and
        by Sylvester's law of inertia no pencil eigenvalue lies below
        ``shift``, to rounding as for the LDU count.  ``ValueError`` when
        ``a`` does not store this layout's pattern."""
        a = sp.csr_matrix(a)
        if not (np.array_equal(a.indptr, self.indptr)
                and np.array_equal(a.indices, self.indices)):
            raise ValueError("operator does not store the sparsity pattern of its band layout")
        band = np.bincount(self.slots, a.data[self.keep], minlength=self.entries)
        band[self.width::self.width + 1] -= shift * m_diag[self.order]
        return dpbtrf(band.reshape((self.width + 1, -1), order="F"), overwrite_ab=1)[1] == 0


def inertia_count(a, mass, shift, step, band=None):
    """Count of pencil eigenvalues below ``shift`` by LDU diagonal signs.

    ``mass`` is as for ``smallest_eigenpairs``: the diagonal of M, or
    None for the identity.  With a ``BandLayout`` of A's pattern in
    ``band``, a banded Cholesky factorization of (A - shift M) is tried
    first (``BandLayout.definite``); when it succeeds the count is 0 at
    ``shift``, with the band's entries as the stored entries.  Otherwise,
    or without ``band``, one no-pivot symmetric factorization of
    (A - shift M) gives the count by Sylvester's law of inertia when its
    row and column permutations agree and every pivot is finite and
    nonzero.  On a pivot breakdown the shift moves up by a quarter
    ``step`` and the factorization is tried again, four attempts in
    all, so the shift only ever moves upward; after the last attempt
    ``CertificationError`` is raised.  Returns an ``InertiaCount``: the
    count, the shift it holds at and the entries stored for the
    factorization that made it, which ``method`` names.
    """
    if not step >= 0.0:
        raise ValueError(f"step must be >= 0, got {step}")
    m, m_diag = _mass_matrix(mass, a.shape[0])
    if band is not None and band.definite(a, m_diag, shift):
        return InertiaCount(0, shift, band.entries, "band-cholesky")
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
            return InertiaCount(int((diag < 0).sum()), lam, nnz, "ldu")
    raise CertificationError("inertia factorization kept pivoting; count unavailable")


def _verify_inertia(a, m, vals, k):
    """Count pencil eigenvalues below lambda' with ``inertia_count``.

    lambda' is placed in the widest gap among the computed values at or
    beyond index k (the +4 padding), so no uncomputed eigenvalue can sit
    below it unless the iteration actually missed one -- which is
    exactly what the count detects.
    """
    return check_count(vals, *inertia_count(a, m, *_gap_shift(vals, k)))


def check_count(vals, negative, lam, nnz):
    """The inertia ``meta`` of a solve whose computed ``vals`` hold exactly
    the count ``negative`` of pencil eigenvalues below ``lam``, from a
    factorization that stored ``nnz`` entries; ``CertificationError``
    when they do not.  The one writer of these keys: a Kohn mode that is
    counted empty and not solved takes its ``meta`` from here too."""
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


def _invariant_group(a, m_diag, reflections):
    """The group of row permutations generated by those ``reflections``
    that the pencil (A, diag(``m_diag``)) commutes with.

    A reflection is kept when max|P A P^T - A| is at most ``SECTOR_TOL``
    of max|A| and max|P m - m| at most ``SECTOR_TOL`` of max m, and when
    it commutes with the reflections kept before it and is not already
    in the group they generate; otherwise it is dropped.  Returns the
    (2^S, dim) array whose row s is the product of the kept reflections
    j with bit j set in s (row 0 the identity), and the largest relative
    deviation of a kept reflection: the pencil differs from one that
    splits exactly by no more than that, relative to its scale.
    """
    dim = a.shape[0]
    rows = np.arange(dim)
    group, slack = rows[None, :], 0.0
    scale = max(np.abs(a.data).max(initial=0.0), np.finfo(float).tiny)
    for perm in reflections:
        perm = np.asarray(perm, dtype=np.intp)
        if (perm.shape != (dim,) or not ((perm >= 0) & (perm < dim)).all()
                or not np.array_equal(perm[perm], rows)):
            raise ValueError("a reflection must be an involutive permutation of the "
                             f"{dim} rows of the pencil")
        if ((group == perm).all(axis=1).any()
                or not all(np.array_equal(perm[g], g[perm]) for g in group)):
            continue
        moved = a[perm][:, perm] - a
        dev = max(np.abs(moved.data).max(initial=0.0) / scale,
                  np.abs(m_diag[perm] - m_diag).max() / m_diag.max())
        if dev <= SECTOR_TOL:
            group, slack = np.vstack([group, perm[group]]), max(slack, dev)
    return group, slack


def _sector_basis(group):
    """The +-1 orbit-sum basis of every character of ``group``.

    Characters are indexed like the group rows: character c takes the
    value (-1)^popcount(c & s) on element s.  Each orbit on whose
    stabilizer c is trivial gives c one column, with entry chi_c(g) at
    row g(r) for every element g, r being the least row of the orbit.
    Columns are ordered by character, then by orbit; an orbit of size s
    gives columns to s characters, so Q is square and invertible.  The
    columns of one character share no row, so Q_c^T M Q_c is diagonal
    for diagonal M.  Returns Q (CSC), the column bounds of the
    characters, the character table and, per column, its orbit's least
    row and size.
    """
    size, dim = group.shape
    rep = group.min(axis=0)
    reps, orbit = np.unique(rep, return_inverse=True)
    # the first element that carries each row's orbit representative to it
    carrier = np.argmax(group[:, rep] == np.arange(dim), axis=0)
    elems = np.arange(size)
    chi = 1 - 2 * (np.bitwise_count(elems[:, None] & elems) & 1).astype(np.intp)
    allowed = ~((chi < 0) @ (group[:, reps] == reps))
    column = (np.cumsum(allowed) - 1).reshape(allowed.shape)
    char, row = np.nonzero(allowed[:, orbit])
    q = sp.csc_matrix((chi[char, carrier[row]].astype(float),
                       (row, column[char, orbit[row]])), shape=(dim, dim))
    bounds = np.cumsum([0, *allowed.sum(axis=1)]).tolist()
    sizes = np.bincount(orbit)
    return (q, bounds, chi, np.broadcast_to(reps, allowed.shape)[allowed],
            np.broadcast_to(sizes, allowed.shape)[allowed])


def sector_eigenpairs(a, mass, reflections, k, seed=42, definite=False):
    """k smallest eigenpairs of A x = lambda M x, one sector at a time.

    ``reflections`` holds involutive row permutations that the pencil
    may commute with; ``_invariant_group`` keeps those it does, to
    ``SECTOR_TOL``.  With none kept the result is that of
    ``smallest_eigenpairs(a, mass, k, seed, definite)``, bit for bit.
    Otherwise the kept ones generate a group of 2^S commuting
    involutions, and the orbit-sum basis Q_c of each of its characters
    (``_sector_basis``) spans an invariant subspace: all sector pencils
    (Q_c^T A Q_c, Q_c^T M Q_c) come from one sparse product, row r of
    sector c being |orbit| times row r of A Q_c, and are solved with
    ``smallest_eigenpairs`` for ceil(k / sectors) + 3 pairs each, or
    all their rows if fewer.  ``merged_eigenpairs`` picks the k lowest,
    lifts them by x = Q_c y, which keeps M-norms, and re-certifies them
    on (A, M).  When the selection is incomplete, each sector whose top
    lies below the k-th merged value is asked for twice as many pairs,
    at most its rows, and solved again.  A sector asked for all its
    rows returns its whole spectrum with top ``inf``, so the widening
    ends with a complete merge; the whole pencil is never solved.

    ``meta`` is the merge's (``merged_selection``), with
    ``complete_below`` the k-th value (``inf`` when k = dim), as for
    ``smallest_eigenpairs``, and ``method: "sectors"``, ``seed``,
    ``weyl_slack`` (the largest deviation of a kept reflection, relative
    to the pencil's scale), ``retries`` and ``inertia_recovered`` summed
    over the sector solves, and ``sectors``: per sector its
    ``character`` (its value on each kept reflection), ``rows``,
    ``pairs`` asked, ``k_solve``, ``top`` (its ``complete_below``),
    ``inertia_count`` and ``inertia_nnz`` (None on the dense path).
    """
    a = sp.csr_matrix(a)
    dim = a.shape[0]
    m_diag = _mass_matrix(mass, dim)[1]
    group, slack = _invariant_group(a, m_diag, reflections)
    if len(group) == 1 or not 1 <= k <= dim:
        return smallest_eigenpairs(a, mass, k=k, seed=seed, definite=definite)
    q, bounds, chi, col_rep, col_size = _sector_basis(group)
    product = (sp.diags(col_size.astype(float)) @ a[col_rep] @ q).tocsr()
    sector_mass = abs(q).T @ m_diag
    sectors = [(c, slice(lo, hi)) for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
               if hi > lo]
    pencils = []
    for _, cut in sectors:
        block = product[cut, cut]
        pencils.append((((block + block.T) * 0.5).tocsr(), sector_mass[cut]))
    rows = [cut.stop - cut.start for _, cut in sectors]
    asked = [min(-(-k // len(sectors)) + 3, n) for n in rows]
    solved = [None] * len(sectors)
    while True:
        for i, (op, op_mass) in enumerate(pencils):
            if solved[i] is None or len(solved[i].eigenvalues) < asked[i]:
                solved[i] = smallest_eigenpairs(op, op_mass, k=asked[i], seed=seed,
                                                definite=definite)
        tops = [res.meta["complete_below"] for res in solved]
        parts = [(res.eigenvalues, top,
                  lambda idx, basis=q[:, cut], y=res.eigenvectors: basis @ y[:, idx])
                 for res, top, (_, cut) in zip(solved, tops, sectors)]
        result = merged_eigenpairs(a, m_diag, parts, k)
        if result is not None:
            break
        union = np.sort(np.concatenate([res.eigenvalues for res in solved]))
        kth = union[k - 1] if len(union) >= k else np.inf
        for i, top in enumerate(tops):
            if top < kth:
                asked[i] = min(2 * asked[i], rows[i])
    generators = 1 << np.arange(len(group).bit_length() - 1)
    result.meta.update(
        method="sectors", seed=seed, weyl_slack=slack,
        complete_below=np.inf if k == dim else float(result.eigenvalues[-1]),
        retries=sum(res.meta.get("retries", 0) for res in solved),
        inertia_recovered=sum(bool(res.meta.get("inertia_recovered")) for res in solved),
        sectors=[{"character": tuple(chi[c, generators].tolist()),
                  "rows": n, "pairs": pairs,
                  "k_solve": res.meta["k_solve"], "top": res.meta["complete_below"],
                  "inertia_count": res.meta.get("inertia_count"),
                  "inertia_nnz": res.meta.get("inertia_nnz")}
                 for (c, _), n, pairs, res in zip(sectors, rows, asked, solved)])
    return result


def solve_pair(pair, k, seed=42):
    """Solve an assembled EigenproblemPair, split by its ``reflections``
    (``sector_eigenpairs``); Dirichlet pairs use sigma = 0."""
    return sector_eigenpairs(pair.stiffness, pair.mass_diag, pair.reflections, k=k,
                             seed=seed, definite=pair.dirichlet)
