"""Kohn sublaplacian on box domains in the Heisenberg group H^n.

Coordinates (x_1..x_n, y_1..y_n, t) on R^(2n+1); the horizontal vector
fields are

    X_i = d/dx_i + (y_i / 2) d/dt,      Y_i = d/dy_i - (x_i / 2) d/dt,

and the sublaplacian is the sum of X_i^T X_i + Y_i^T Y_i, which is
positive definite on a box with zero boundary values even though it is
not elliptic (the t direction is reached only through the commutator
[X_i, Y_i] = -d/dt).

Discretization: uniform tensor grid on [-a, a]^(2n) x [-T, T], centered
first differences with exterior nodes dropped (zero boundary values),
multiplication coefficients frozen at the row node.  The operator is
written down once, as per-plane pieces on the (x, y) axes
(``_plane_pieces``):

    L = sum_i S_i (x) I + (Y_h^2 + X_h^2) (x) D_t^T D_t + K_i (x) D_t,

with S_i = D_x^T D_x + D_y^T D_y, X_h = diag(x_i/2), Y_h = diag(y_i/2)
and K_i = 2 X_h D_y - 2 D_x Y_h.  The assembled L, the t-mode operators
and the bound on their norms all read these pieces.  The only t-factors
are I, D_t^T D_t and D_t, so the eigenvectors of D_t split L exactly
into one 2n-dimensional twisted (Landau) operator per t-frequency, the
discrete form of the reduction of the sublaplacian by a Fourier
transform in t (Folland, *Harmonic Analysis in Phase Space*, 1989;
Thangavelu, *Harmonic Analysis on the Heisenberg Group*, 1998).
Each such mode L_mu = S + mu^2 Q_2 + i mu K is made real by one diagonal
gauge U = diag(i^(sum of the (x, y) node indices)): every centered
difference has U D U^* = -i |D|, so U L_mu U^* = S' + mu^2 Q_2 + mu K'
is read off the same pieces with |D| in place of D (the gauge freedom of
discrete magnetic operators: Lieb and Loss, Duke Math. J. 71, 1993).
In this gauge the mode operator on H^n is the sum over the planes of the
n = 1 mode operator, a Kronecker sum.
``kohn_spectrum`` certifies the t-basis, counts the real mode operator
of each positive frequency below a running bound (spectrum slicing:
Grimes, Lewis and Simon, SIAM J. Matrix Anal. Appl. 15, 1994), and
solves only the modes with values there.  At n = 1 a mode with no
value there is proved empty by one banded Cholesky factorization on the
reverse Cuthill-McKee band of the pattern all modes share; every other
count is an LDU count.  It assembles no L and forms no vector on the
full grid; ``build_kohn_laplacian`` is the reference that the tests
check it on.
The eigenvalue inequality audited on this spectrum is ``heisenberg-sum``
in ``audit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .eigensolve import (BandLayout, CertificationError, check_count, count_shift,
                         inertia_count, merged_selection, smallest_eigenpairs)

__all__ = ["HeisenbergGrid", "heisenberg_grid", "build_kohn_laplacian", "kohn_spectrum"]


@dataclass(frozen=True)
class HeisenbergGrid:
    """Interior tensor grid for the box [-a, a]^(2n) x [-T, T] in H^n.

    ``g`` is the node count per axis including the two boundary nodes,
    so each interior axis has g - 2 nodes.  ``g`` must be even: on an
    odd grid the centered differences leave an exact checkerboard null
    mode, so the discrete operator is singular (in the t-modes of
    ``kohn_spectrum``: one frequency is 0, and its mode is the plain
    (x, y) Laplacian D_x^T D_x + D_y^T D_y, which has that kernel).
    The half-widths ``a`` and ``T`` must be finite and positive, and
    the operator's coefficients finite: the axes, the spacings h, 1/h^2
    and the largest (x/2)^2/h_t^2, before anything is assembled.

    ``axes`` holds one coordinate array per axis in the order
    x_1..x_n, y_1..y_n, t.  Interior node i of an axis of half-width w
    sits at h (i - (g - 3)/2) with h = 2w/(g - 1); the offsets are exact
    half-integers, so each axis is uniform and exactly antisymmetric
    (``ax[::-1] == -ax`` bitwise), and each x_i axis equals its y_i axis.
    The axis reversals and swaps of the symmetry-sector test oracle
    (``tests/kohn_sectors.py``) need this to map the grid and the
    assembled operator onto themselves bitwise; the t-modes do not.
    """

    n: int
    a: float
    T: float
    g: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if self.g < 16:
            raise ValueError(f"need at least 16 nodes per axis, got g={self.g}")
        if self.g % 2:
            raise ValueError(f"need an even node count per axis, got g={self.g}: odd grids "
                             "leave an exact checkerboard null mode (a spurious zero eigenvalue)")
        if not (0 < self.a < np.inf and 0 < self.T < np.inf):
            raise ValueError(f"box half-widths must be finite and positive, "
                             f"got a={self.a}, T={self.T}")
        with np.errstate(all="ignore"):
            h = np.array(self.spacings)
            x_half = self.axes[0][-1] / 2.0
            terms = {"axes": np.concatenate(self.axes), "spacings": h,
                     "1/h^2": 1.0 / h ** 2, "(x/2)^2/h_t^2": x_half ** 2 / h[-1] ** 2}
        overflow = [name for name, v in terms.items() if not np.isfinite(v).all()]
        if overflow:
            raise ValueError(f"box a={self.a}, T={self.T} on g={self.g} nodes overflows "
                             f"the operator: {', '.join(overflow)} not finite")

    @cached_property
    def axes(self):
        offsets = np.arange(self.g - 2) - (self.g - 3) / 2.0
        spatial = (2.0 * self.a / (self.g - 1)) * offsets
        time_ax = (2.0 * self.T / (self.g - 1)) * offsets
        return tuple([spatial.copy() for _ in range(2 * self.n)] + [time_ax])

    @property
    def spacings(self):
        """Grid step per axis (the boundary gap equals the interior step)."""
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)


def heisenberg_grid(n, a, T, g):
    """Grid for the box [-a, a]^(2n) x [-T, T] with g nodes per axis."""
    return HeisenbergGrid(n, float(a), float(T), int(g))


def _centered(grid, k):
    """Centered first difference along axis k, zero boundary values."""
    off = np.full(len(grid.axes[k]) - 1, 1.0 / (2.0 * grid.spacings[k]))
    return sp.diags([off, -off], [1, -1], format="csr")


def _kron(sizes, factors):
    """Kronecker product over the tensor axes: ``factors[k]`` on axis k,
    the identity elsewhere, multiplied in axis order."""
    out = None
    for ax, m in enumerate(sizes):
        factor = factors.get(ax, sp.identity(m, format="csr"))
        out = factor if out is None else sp.kron(out, factor, format="csr")
    return out


def _plane_pieces(grid, diff=_centered):
    """Yield (S_i, X_h^2, Y_h^2, K_i) on the 2n (x, y) axes for each plane i,
    with S_i = D_x^T D_x + D_y^T D_y and K_i = 2 X_h D_y - 2 D_x Y_h, where
    D_k = ``diff(grid, k)``.

    This is the only place that says which 1-D factors make up the
    operator: X_i^T X_i + Y_i^T Y_i is S_i (x) I + (Y_h^2 + X_h^2) (x)
    D_t^T D_t + K_i (x) D_t with t the fastest axis
    (``build_kohn_laplacian``), and a t-mode of D_t replaces D_t by i mu
    (``_mode_pieces``, which feeds |D| in place of D).
    """
    n = grid.n
    sizes = [len(ax) for ax in grid.axes[:-1]]
    for i in range(n):
        x, y = i, n + i
        d_x, d_y = diff(grid, x), diff(grid, y)
        x_half, y_half = (sp.diags(grid.axes[ax] / 2.0, format="csr") for ax in (x, y))
        yield ((_kron(sizes, {x: (d_x.T @ d_x).tocsr()})
                + _kron(sizes, {y: (d_y.T @ d_y).tocsr()})),
               _kron(sizes, {x: x_half @ x_half}), _kron(sizes, {y: y_half @ y_half}),
               2.0 * (_kron(sizes, {x: x_half, y: d_y}) - _kron(sizes, {x: d_x, y: y_half})))


def build_kohn_laplacian(grid):
    """Assemble the Kohn sublaplacian as a symmetric sparse matrix,

        L = sum_i ((S_i (x) I + (Y_h^2 (x) D_t^T D_t + X_h^2 (x) D_t^T D_t))
                   + K_i (x) D_t),

    from the pieces of ``_plane_pieces``.  D_t^T = -D_t exactly, so each
    entry is a product of 1-D entries taken in axis order, and the sum
    is bitwise the one of the eight Kronecker terms of X_i^T X_i +
    Y_i^T Y_i in pairs that the swap (x_i, y_i, t) -> (y_i, x_i, -t)
    exchanges.  That order is kept on purpose: the swap, the axis
    reversals and the twisted swap of the symmetry-sector test oracle
    then map L onto itself bitwise, and L is exactly symmetric.
    """
    d_t = _centered(grid, 2 * grid.n)
    dtt, eye = (d_t.T @ d_t).tocsr(), sp.identity(d_t.shape[0], format="csr")
    kron = partial(sp.kron, format="csr")
    return sum((kron(s, eye) + (kron(y2, dtt) + kron(x2, dtt))) + kron(k, d_t)
               for s, x2, y2, k in _plane_pieces(grid))


def _t_modes(m, h):
    """Frequencies mu_j = cos(pi j/(m + 1))/h and unit vectors
    v_j(l) = i^l sin(pi j (l + 1)/(m + 1)) sqrt(2/(m + 1)), j = 1..ceil(m/2),
    with D_t v_j = i mu_j v_j for the centered difference D_t of step h on
    m nodes.  The conjugates are the modes of -mu_j; for odd m the last
    mu_j is 0 (to rounding)."""
    j = np.arange(1, (m + 1) // 2 + 1)
    l = np.arange(m)[:, None]
    phase = np.array([1, 1j, -1, -1j])[l % 4]
    vecs = np.sqrt(2.0 / (m + 1)) * phase * np.sin(np.pi * (l + 1) * j / (m + 1))
    return np.cos(np.pi * j / (m + 1)) / h, vecs


def _mode_pieces(grid):
    """S', Q_2 = X_h^2 + Y_h^2 and K' of ``_plane_pieces`` fed |D| in place
    of D, summed over the planes: the t-mode of frequency mu in the gauge
    U = diag(i^(sum of the (x, y) node indices)) is S' + mu^2 Q_2 + mu K'.

    The complex t-mode is L_mu = S + mu^2 Q_2 + i mu K with S and K read
    off D.  Every centered difference has U D U^* = -i |D|, and U
    commutes with the diagonal X_h, Y_h, so U S U^* = S' =
    sum (|D_x|^2 + |D_y|^2) and U (i K) U^* = K' =
    2 sum (X_h |D_y| - |D_x| Y_h): U L_mu U^* is real symmetric, each
    entry that of L_mu times an exact phase +-1.
    """
    gauged = _plane_pieces(grid, lambda grid, ax: abs(_centered(grid, ax)))
    s, x2, y2, k = map(sum, zip(*gauged))
    return s, x2 + y2, k


def _mode_bound(pieces, mu):
    """c = ||S'||_inf + mu_1^2 ||Q_2||_inf + mu_1 ||K'||_inf, with mu_1 the
    largest |mu|, bounds ||S' + mu^2 Q_2 + mu K'||_2 for every |mu| <= mu_1:
    by the triangle inequality, as S', Q_2 and K' are symmetric, so each
    2-norm is a spectral radius, which no induced norm undercuts.  The
    gauge changes no |entry|, so c is that of S, Q_2 and K."""
    s, q2, k = (abs(op).sum(axis=1).max() for op in pieces)
    top = np.abs(mu).max()
    return float(s + top ** 2 * q2 + top * k)


def _certify_t_modes(grid, mu, vecs, pieces):
    """Check that the modes and their conjugates form an orthonormal basis
    that diagonalises D_t, to rounding, and return the Weyl slack.

    With the basis defect delta = ||E^H E - I|| and the relative residual
    rho = h_t ||D_t E - E diag(i mu, -i mu)|| of E = [V, conj V], every
    eigenvalue of L is within 2 c (delta + rho)/(1 - delta) of the one of
    the same rank of the direct sum of the mode operators, where
    c = ||S'||_inf + mu_1^2 ||Q_2||_inf + mu_1 ||K'||_inf of the summed
    ``pieces`` (``_mode_bound``) bounds the 2-norm of every mode operator.
    """
    m = grid.g - 2
    h_t = grid.spacings[-1]
    basis = np.hstack([vecs, vecs.conj()])
    freq = 1j * np.concatenate([mu, -mu])
    if basis.shape != (m, m):
        raise CertificationError(f"{basis.shape[1]} t-modes for {m} t-nodes")
    defect = np.linalg.norm(basis.conj().T @ basis - np.eye(m), 2)
    residual = h_t * np.linalg.norm(_centered(grid, 2 * grid.n) @ basis - basis * freq, 2)
    if max(defect, residual) > 64 * m * np.finfo(float).eps:
        raise CertificationError(f"t-basis is not an orthonormal eigenbasis of D_t: "
                                 f"defect {defect:.1e}, residual {residual:.1e}")
    return 2.0 * _mode_bound(pieces, mu) * (defect + residual) / (1.0 - defect)


def _mode_operators(mu, pieces):
    """The real symmetric t-mode operator S' + mu^2 Q_2 + mu K' of the
    gauged ``pieces`` (``_mode_pieces``) for each mu, of size m^(2n)."""
    s, q2, k = pieces
    return [(s + mu_j ** 2 * q2 + mu_j * k).tocsr() for mu_j in mu]


def kohn_spectrum(grid, k=12, seed=42):
    """Certified low spectrum of the sublaplacian on the grid.

    D_t = tridiag(-1, 0, 1)/(2 h_t) on the m interior t-nodes has the
    orthonormal eigenvectors of ``_t_modes`` and their conjugates, with
    eigenvalues +-i mu_j.  In that basis L is the direct sum of the mode
    operators L_mu = S + mu^2 Q_2 + i mu K (``_mode_pieces``); L_-mu is
    the conjugate of L_mu, with the same spectrum, and as m is even no
    mu_j is 0, so only the m/2 modes with mu_j > 0 are visited.  The
    basis is certified to rounding at run time (``CertificationError``
    otherwise), with the Weyl slack of ``_certify_t_modes``.  L itself
    is never assembled (``build_kohn_laplacian`` is its public
    reference), and no vector on the full grid is formed: memory is that
    of the m/2 mode operators of size m^(2n) and their solves.

    Each mode is handled in its real symmetric gauge U L_mu U^* of size
    m^(2n) (``_mode_operators``), in ascending mu.  A pair w of a mode
    solve, a real unit vector on the (x, y) grid, stands for two
    orthonormal real eigenvectors of L, sqrt(2) Re and sqrt(2) Im of
    z (x) v, t the fastest axis, with v the t-mode and z = conj(U) w, so
    each mode passes its values twice to ``merged_selection``, with the
    mode's top, at or below every value the mode did not return.  The
    first mode is solved for ceil(k/2) pairs, with its top at the
    solve's ``complete_below``, its last value.  Every later mode is
    first counted below a running shift B (``inertia_count``).  At
    n = 1 every count first tries a banded Cholesky of L_mu - B I on
    one ``eigensolve.BandLayout`` per call, built from the first mode
    visited, as all modes store one CSR pattern; one that succeeds
    proves the count 0, and any other count is made by one LDU
    factorization.  At n = 2 the band of a mode is thousands wide, so
    no layout is built and every count is an LDU count.  With no value
    below B a mode is not solved and passes an empty part with top B;
    with nu values it is solved for min(nu, ceil(k/2)) pairs, and its
    top is B when that is all of them (the count then certifies the
    solve, in place of its own inertia check), the solve's
    ``complete_below`` otherwise.  After the first mode, and after each
    later solve, B is placed by ``eigensolve.count_shift`` in the first
    clear gap past the k-th lowest value below the smallest top, or at
    that top when there is none.  The invariant is that the k-th lowest computed value is at or
    below every top: B is at or above it, a mode with more than
    ceil(k/2) values below B brings k values (each doubled) at or below
    its own top, and more values only lower the k-th.  So the selection
    of the k lowest values bounded by the smallest top is always
    complete; if it is not, ``CertificationError`` names the shortfall.

    ``eigenvectors`` is None.  Pair i is the Re part (``pair_imag[i]``
    false) or the Im part of the lift of column i of
    ``meta["mode_vectors"]`` (the vector w on the (x, y) grid) on t-mode
    ``meta["pair_mode"][i]``, an index into ``meta["modes"]``; mode i
    there is column m/2 - 1 - i of ``_t_modes``.  ``residuals`` holds
    each pair's relative residual from its mode solve, shared by the Re
    and Im parts, and ``meta["pencil_residuals"]`` the solve's
    pencil-norm residual; with the t-basis certificate and its
    ``weyl_slack`` they certify the pairs of L.

    ``meta`` also holds ``method: "t-modes"``, ``modes`` (for each mode
    in the order visited its ``mu``, ``dim`` and ``pairs``, the number
    of pairs solved, with the solve's own ``meta``, or for a mode that
    was not solved the count 0 below ``inertia_shift`` with its
    ``inertia_nnz``; for every mode ``inertia_method``,
    ``"band-cholesky"`` or ``"ldu"``, the factorization that made its
    count, and ``band_halfwidth``, the half-width of the call's band
    layout, or None at n = 2), ``weyl_slack`` (how far the eigenvalues
    of L may be from those of the modes, a few eps ||L||),
    ``complete_below`` (the smallest mode top), and ``inertia_shift`` and
    ``inertia_count``: the count of L below that shift, read off the
    merged mode values below it.
    """
    mu, vecs = _t_modes(grid.g - 2, grid.spacings[-1])
    pieces = _mode_pieces(grid)
    slack = _certify_t_modes(grid, mu, vecs, pieces)
    half = (k + 1) // 2
    values, tops, solves, modes = [], [], [], []
    shift = None
    visits = list(zip(mu, _mode_operators(mu, pieces)))[::-1]
    # every mode stores one CSR pattern; its band is about 2m wide at n = 1,
    # but thousands wide at n = 2, where the LDU count is the cheaper one
    band = BandLayout.of(visits[0][1]) if grid.n == 1 else None
    for mu_j, op in visits:
        pairs, top, counted, res = half, None, None, None
        if shift is not None:
            counted = inertia_count(op, None, shift, step, band=band)
            pairs, top = min(counted[0], half), counted[1] if counted[0] <= half else None
        if pairs:
            res = smallest_eigenpairs(op, None, k=pairs, seed=seed, definite=True,
                                      inertia=None if top is None else counted)
            top = res.meta["complete_below"] if top is None else top
        # an unsolved mode: its count 0 checked against no computed values
        meta = res.meta if pairs else check_count(np.empty(0), *counted)
        # each value twice: the Re and the Im part of its lift
        values.append(np.repeat(res.eigenvalues, 2) if pairs else np.empty(0))
        tops.append(top)
        solves.append(res)
        # a nonzero count, and every solve's own inertia check, is an LDU count
        modes.append({**meta, "inertia_method": "ldu" if counted is None else counted.method,
                      "band_halfwidth": None if band is None else band.width,
                      "mu": float(mu_j), "dim": op.shape[0], "pairs": pairs})
        if pairs:
            shift, step = count_shift(np.concatenate(values), min(tops), k)
    selection = merged_selection(values, tops, k)
    if selection is None:
        found = sum(int((part <= min(tops)).sum()) for part in values)
        raise CertificationError(f"mode solves give {found} of {k} values at or below "
                                 f"their smallest top {min(tops)!r}: the merge is incomplete")
    pick, result = selection
    mode = np.repeat(np.arange(len(values)), list(map(len, values)))[pick]
    col = pick - np.cumsum([0, *map(len, values)])[mode]
    chosen = [(solves[j], i // 2) for j, i in zip(mode, col)]
    result.residuals = np.array([res.residuals[i] for res, i in chosen])
    result.meta.update(
        method="t-modes", seed=seed, modes=modes, weyl_slack=slack,
        pencil_residuals=np.array([res.meta["pencil_residuals"][i] for res, i in chosen]),
        pair_mode=mode, pair_imag=col % 2 == 1,
        mode_vectors=np.column_stack([res.eigenvectors[:, i] for res, i in chosen]))
    return result
