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
multiplication coefficients frozen at the row node.  Every axis is
exactly antisymmetric and the operator is assembled term by term, so
the axis reversals and the swap S that commute with the continuous
sublaplacian hold bitwise on the matrix; ``kohn_spectrum`` certifies
them and solves four symmetry sectors of one parity block.  The
eigenvalue inequality audited on this spectrum is ``heisenberg-sum``
in ``audit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .eigensolve import CertificationError, merged_eigenpairs, smallest_eigenpairs

__all__ = ["HeisenbergGrid", "heisenberg_grid", "parity_blocks",
           "build_kohn_laplacian", "kohn_spectrum"]

CHARACTERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class HeisenbergGrid:
    """Interior tensor grid for a Heisenberg box domain.

    ``axes`` holds one strictly increasing coordinate array per axis in
    the order x_1..x_n, y_1..y_n, t; spacing is uniform along each axis.
    ``g`` is the node count per axis including the two boundary nodes,
    so each interior array has g - 2 entries.  ``g`` must be even: on an
    odd grid the centered differences leave an exact checkerboard null
    mode, so the discrete operator is singular.  Each axis must be
    exactly antisymmetric (``ax[::-1] == -ax`` bitwise) and each x_i
    axis must equal its y_i axis, so that the reflections and the swap S
    of ``kohn_spectrum`` map the grid onto itself.
    """

    n: int
    a: float
    T: float
    g: int
    axes: tuple = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if self.g < 16:
            raise ValueError(f"need at least 16 nodes per axis, got g={self.g}")
        if self.g % 2:
            raise ValueError(f"need an even node count per axis, got g={self.g}: odd grids "
                             "leave an exact checkerboard null mode (a spurious zero eigenvalue)")
        if not (self.a > 0 and self.T > 0):
            raise ValueError(f"box half-widths must be positive, got a={self.a}, T={self.T}")
        if len(self.axes) != 2 * self.n + 1:
            raise ValueError(f"expected {2 * self.n + 1} axes, got {len(self.axes)}")
        for ax in self.axes:
            steps = np.diff(ax)
            if len(ax) != self.g - 2 or (steps <= 0).any():
                raise ValueError("each axis must be a strictly increasing array of g - 2 nodes")
            if np.abs(steps - steps[0]).max() > 1e-12 * abs(steps[0]):
                raise ValueError("axis spacing must be uniform")
            if not np.array_equal(ax[::-1], -ax):
                raise ValueError("each axis must be exactly antisymmetric (ax[::-1] == -ax "
                                 "bitwise): the reflections x -> -x, y -> -y, t -> -t of "
                                 "the symmetry sectors and of the swap S need it")
        for i in range(self.n):
            if not np.array_equal(self.axes[i], self.axes[self.n + i]):
                raise ValueError(f"axes x_{i + 1} and y_{i + 1} must be equal")

    @property
    def num_nodes(self):
        return (self.g - 2) ** (2 * self.n + 1)

    @property
    def spacings(self):
        """Grid step per axis (the boundary gap equals the interior step)."""
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)


def heisenberg_grid(n, a, T, g):
    """Grid for the box [-a, a]^(2n) x [-T, T] with g nodes per axis.

    Interior node i of an axis of half-width w sits at h (i - (g - 3)/2)
    with h = 2w/(g - 1); the offsets are exact half-integers, so the
    axis is exactly antisymmetric.
    """
    offsets = np.arange(g - 2) - (g - 3) / 2.0
    spatial = (2.0 * a / (g - 1)) * offsets
    time_ax = (2.0 * T / (g - 1)) * offsets
    axes = tuple([spatial.copy() for _ in range(2 * n)] + [time_ax])
    return HeisenbergGrid(n, float(a), float(T), int(g), axes)


def _kron(sizes, factors):
    """Kronecker product over the tensor axes: ``factors[k]`` on axis k,
    the identity elsewhere, multiplied in axis order."""
    out = None
    for ax, m in enumerate(sizes):
        factor = factors.get(ax, sp.identity(m, format="csr"))
        out = factor if out is None else sp.kron(out, factor, format="csr")
    return out


def build_kohn_laplacian(grid):
    """Assemble the Kohn sublaplacian as a symmetric sparse matrix.

    X_i^T X_i + Y_i^T Y_i is expanded into eight Kronecker terms whose
    coefficients commute with their difference operators.  Each entry is
    a product of 1-D entries taken in axis order, and the terms are
    summed in pairs that S exchanges,

        ((xx + yy) + (tty + ttx)) + ((xt + tx) - (yt + ty)),

    so S and the axis reversals map the sum onto itself bitwise, and the
    sum is exactly symmetric.
    """
    sizes = [len(ax) for ax in grid.axes]
    steps = grid.spacings
    n = grid.n

    def centered(k):
        off = np.full(sizes[k] - 1, 1.0 / (2.0 * steps[k]))
        return sp.diags([off, -off], [1, -1], format="csr")

    t = 2 * n
    d_t = centered(t)
    dtt = (d_t.T @ d_t).tocsr()
    lap = None
    for i in range(n):
        x, y = i, n + i
        d_x, d_y = centered(x), centered(y)
        x_half = sp.diags(grid.axes[x] / 2.0, format="csr")
        y_half = sp.diags(grid.axes[y] / 2.0, format="csr")
        xx = _kron(sizes, {x: (d_x.T @ d_x).tocsr()})
        yy = _kron(sizes, {y: (d_y.T @ d_y).tocsr()})
        tty = _kron(sizes, {y: y_half @ y_half, t: dtt})
        ttx = _kron(sizes, {x: x_half @ x_half, t: dtt})
        xt = _kron(sizes, {x: d_x.T.tocsr(), y: y_half, t: d_t})
        tx = _kron(sizes, {x: d_x, y: y_half, t: d_t.T.tocsr()})
        yt = _kron(sizes, {x: x_half, y: d_y.T.tocsr(), t: d_t})
        ty = _kron(sizes, {x: x_half, y: d_y, t: d_t.T.tocsr()})
        term = ((xx + yy) + (tty + ttx)) + ((xt + tx) - (yt + ty))
        lap = term if lap is None else lap + term
    return lap.tocsr()


def parity_blocks(grid):
    """Node indices of the even parity block and their images under S.

    A node's parity is that of its index sum.  S maps (x_i, y_i, t) to
    (y_i, x_i, -t), that is index (I, J, l) to (J, I, m - 1 - l) with m
    interior nodes per axis; as m is even, S maps the even block onto
    the odd one.  Returns ``(parity, even, image)`` with
    ``image[r] = S(even[r])``.
    """
    n = grid.n
    m = grid.g - 2
    shape = (m,) * (2 * n + 1)
    parity = (sum(np.indices(shape, sparse=True)) % 2).ravel()
    order = [*range(n, 2 * n), *range(n), 2 * n]
    swap = np.arange(m ** (2 * n + 1)).reshape(shape).transpose(order)[..., ::-1].ravel()
    even = np.flatnonzero(parity == 0)
    return parity, even, swap[even]


def _block_reflection(grid, even, axes):
    """Even-block positions of the images of the even nodes when ``axes``
    are reversed."""
    m = grid.g - 2
    shape = (m,) * (2 * grid.n + 1)
    flip = tuple(slice(None, None, -1) if k in axes else slice(None)
                 for k in range(len(shape)))
    image = np.arange(m ** len(shape)).reshape(shape)[flip].ravel()[even]
    return np.searchsorted(even, image)


def _orbit_lift(u, signs, orbit, nodes, dim):
    """Lift of sector vectors ``u``: entries sign * u[c] / 2 on the nodes
    ``nodes[cols]`` of each orbit, zero elsewhere in the full space."""
    def lift(idx):
        out = np.zeros((dim, len(idx)))
        for sign, cols in zip(signs, orbit):
            out[nodes[cols]] = 0.5 * sign * u[:, idx]
        return out
    return lift


def kohn_spectrum(grid, k=12, tol=1e-8, seed=42):
    """Certified low spectrum of the sublaplacian on the grid.

    Centered differences decouple the operator L into an even and an
    odd parity block, and S (see ``parity_blocks``) commutes with L and
    swaps them, so the blocks are exactly similar.  Two commuting axis
    reversals F and G map the even block onto itself without fixing a
    node, so its orbits of four nodes split it into four sectors, one
    per character (chi_F, chi_G), each with a quarter of the unknowns.
    All of these facts are checked bitwise on the assembled matrix; a
    failure raises ``CertificationError``.

    Each sector operator A[r, c] = sum_g chi(g) B[r, g c] over the orbit
    representatives r, c is solved for ceil(k/2) pairs.  A sector pair
    (lambda, u) lifts to the even block with entries chi(g) u[c] / 2 on
    the orbit of c, and so to two invariant subspaces of L: that vector
    on the even nodes, and its image under S on the odd nodes.
    ``merged_eigenpairs`` takes the k lowest of these eight subspaces'
    pairs, bounded by the smallest sector top, which the ceil(k/2)
    values of each sector always reach, and re-certifies them on L.

    ``meta`` holds ``parity_block``, ``block_dim`` (the even block's
    size), ``sectors`` (each sector solve's own ``meta`` with its
    character and dimension), ``complete_below`` (the smallest sector
    top), and ``inertia_shift`` and ``inertia_count``: the count of L
    below that shift, twice the sector values below it.
    """
    lap = build_kohn_laplacian(grid)
    parity, even, image = parity_blocks(grid)
    coo = lap.tocoo()
    if (parity[coo.row] != parity[coo.col]).any():
        raise CertificationError("Kohn operator couples the two parity blocks")
    block = lap[even][:, even]
    if (block != lap[image][:, image]).nnz:
        raise CertificationError("Kohn parity blocks are not exchanged by S")
    # F and G reverse (x, t) and (y, t) when n = 1; for n >= 2 only the
    # half turns of the (x_1, y_1) and (x_2, y_2) planes commute with L.
    # Each reverses two axes of even length, so it keeps the parity and
    # fixes no node, and neither does their product.
    n = grid.n
    gens = ((0, 2), (1, 2)) if n == 1 else ((0, n), (1, n + 1))
    refl_f, refl_g = (_block_reflection(grid, even, axes) for axes in gens)
    for axes, refl in zip(gens, (refl_f, refl_g)):
        if (block[refl][:, refl] != block).nnz:
            raise CertificationError(f"Kohn parity block is not invariant under the "
                                     f"reflection of axes {axes}")
    refl_fg = refl_f[refl_g]
    nodes = np.arange(len(even))
    reps = np.flatnonzero((nodes < refl_f) & (nodes < refl_g) & (nodes < refl_fg))
    orbit = (reps, refl_f[reps], refl_g[reps], refl_fg[reps])
    rows = block[reps]
    parts, sectors = [], []
    for chi_f, chi_g in CHARACTERS:
        signs = (1, chi_f, chi_g, chi_f * chi_g)
        op = rows[:, orbit[0]]
        for sign, cols in zip(signs[1:], orbit[1:]):
            op = op + sign * rows[:, cols]
        res = smallest_eigenpairs(op, None, k=(k + 1) // 2, tol=tol, seed=seed, definite=True)
        parts += [(res.eigenvalues, float(res.eigenvalues[-1]),
                   _orbit_lift(res.eigenvectors, signs, orbit, half, lap.shape[0]))
                  for half in (even, image)]
        sectors.append({**res.meta, "character": (chi_f, chi_g), "dim": len(reps)})
    result = merged_eigenpairs(lap, None, parts, k, tol)
    result.meta.update(method="sectors", seed=seed, parity_block=True,
                       block_dim=len(even), sectors=sectors)
    return result
