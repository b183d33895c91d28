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
multiplication coefficients frozen at the row node.  The assembled
operator is symmetrized and positive semi-definite by construction.
The eigenvalue inequality audited on this spectrum is ``heisenberg-sum``
in ``audit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .eigensolve import (CertificationError, SpectrumResult, _certify_orthonormal,
                         _certify_residuals, _zero_count, smallest_eigenpairs)

__all__ = ["HeisenbergGrid", "heisenberg_grid", "parity_blocks",
           "build_kohn_laplacian", "kohn_spectrum"]


@dataclass(frozen=True)
class HeisenbergGrid:
    """Interior tensor grid for a Heisenberg box domain.

    ``axes`` holds one strictly increasing coordinate array per axis in
    the order x_1..x_n, y_1..y_n, t; spacing is uniform along each axis.
    ``g`` is the node count per axis including the two boundary nodes,
    so each interior array has g - 2 entries.  ``g`` must be even: on an
    odd grid the centered differences leave an exact checkerboard null
    mode, so the discrete operator is singular.  Each x_i axis must equal
    its y_i axis, so that the swap S of ``kohn_spectrum`` maps the grid
    onto itself.
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
    """Grid for the box [-a, a]^(2n) x [-T, T] with g nodes per axis."""
    spatial = np.linspace(-a, a, g)[1:-1]
    time_ax = np.linspace(-T, T, g)[1:-1]
    axes = tuple([spatial.copy() for _ in range(2 * n)] + [time_ax])
    return HeisenbergGrid(n, float(a), float(T), int(g), axes)


def _axis_operator(sizes, k, mat):
    """Kronecker embedding of ``mat`` acting on axis k of the tensor grid."""
    out = None
    for ax, m in enumerate(sizes):
        factor = mat if ax == k else sp.identity(m, format="csr")
        out = factor if out is None else sp.kron(out, factor, format="csr")
    return out


def _coordinate_field(grid, k):
    """Coordinate of axis k at every node, in lexicographic node order."""
    sizes = [len(ax) for ax in grid.axes]
    shape = [1] * len(sizes)
    shape[k] = sizes[k]
    return np.broadcast_to(grid.axes[k].reshape(shape), sizes).ravel()


def build_kohn_laplacian(grid):
    """Assemble the Kohn sublaplacian as a symmetric sparse matrix."""
    sizes = [len(ax) for ax in grid.axes]
    steps = grid.spacings
    n = grid.n

    def centered(m, h):
        off = np.full(m - 1, 1.0 / (2.0 * h))
        return sp.diags([off, -off], [1, -1], format="csr")

    d_t = _axis_operator(sizes, 2 * n, centered(sizes[2 * n], steps[2 * n]))
    lap = None
    for i in range(n):
        y_half = _coordinate_field(grid, n + i) / 2.0
        x_half = _coordinate_field(grid, i) / 2.0
        x_field = _axis_operator(sizes, i, centered(sizes[i], steps[i])) \
            + sp.diags(y_half) @ d_t
        y_field = _axis_operator(sizes, n + i, centered(sizes[n + i], steps[n + i])) \
            - sp.diags(x_half) @ d_t
        term = x_field.T @ x_field + y_field.T @ y_field
        lap = term if lap is None else lap + term
    return ((lap + lap.T) * 0.5).tocsr()


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


def kohn_spectrum(grid, k=12, tol=1e-8, seed=42):
    """Certified low spectrum of the sublaplacian on the grid.

    Centered differences decouple the operator L into an even and an
    odd parity block, and S (see ``parity_blocks``) commutes with L and
    swaps them, so the blocks are exactly similar.  Both facts are
    checked on the assembled matrix; then only the even block is
    solved, and each of its pairs (lambda, u) gives two full-space
    pairs: u on the even nodes, and u moved by S onto the odd nodes.
    The k full-space pairs are re-certified on L, and the inertia count
    of the block is doubled.
    """
    lap = build_kohn_laplacian(grid)
    parity, even, image = parity_blocks(grid)
    coo = lap.tocoo()
    if (parity[coo.row] != parity[coo.col]).any():
        raise CertificationError("Kohn operator couples the two parity blocks")
    block = lap[even][:, even]
    if (block != lap[image][:, image]).nnz:
        raise CertificationError("Kohn parity blocks are not exchanged by S")
    half = smallest_eigenpairs(block, None, k=(k + 1) // 2, tol=tol, seed=seed,
                               definite=True)
    vecs = np.zeros((lap.shape[0], 2 * len(half.eigenvalues)))
    vecs[even, 0::2] = half.eigenvectors
    vecs[image, 1::2] = half.eigenvectors
    vals = np.repeat(half.eigenvalues, 2)[:k]
    ones = np.ones(lap.shape[0])
    vals, vecs = _certify_orthonormal(vals, vecs[:, :k], ones)
    residuals = _certify_residuals(lap, ones, vals, vecs, tol)
    meta = {**half.meta, "parity_block": True, "block_dim": len(even),
            "inertia_count": 2 * half.meta["inertia_count"]}
    return SpectrumResult(vals, vecs, residuals, _zero_count(vals), meta)
