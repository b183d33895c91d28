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
the axis reversals, the swap S and the twisted swap T that commute
with the continuous sublaplacian hold bitwise on the matrix;
``kohn_spectrum`` certifies them and solves symmetry sectors of one
parity block, and halves of them under T.  The
eigenvalue inequality audited on this spectrum is ``heisenberg-sum``
in ``audit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    axis must equal its y_i axis, so that the reflections and the swaps
    S and T of ``kohn_spectrum`` map the grid onto itself.
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


def _node_image(grid, axes=(), swap=False):
    """Image of every node when each x_i axis is exchanged with its y_i
    axis (``swap``) and then ``axes`` are reversed."""
    n, m = grid.n, grid.g - 2
    idx = np.arange(m ** (2 * n + 1)).reshape((m,) * (2 * n + 1))
    if swap:
        idx = idx.transpose([*range(n, 2 * n), *range(n), 2 * n])
    flip = tuple(slice(None, None, -1) if k in axes else slice(None)
                 for k in range(2 * n + 1))
    return idx[flip].ravel()


def parity_blocks(grid):
    """Node indices of the even parity block and their images under S.

    A node's parity is that of its index sum.  S maps (x_i, y_i, t) to
    (y_i, x_i, -t), that is index (I, J, l) to (J, I, m - 1 - l) with m
    interior nodes per axis; as m is even, S maps the even block onto
    the odd one.  Returns ``(parity, even, image)`` with
    ``image[r] = S(even[r])``.
    """
    n, m = grid.n, grid.g - 2
    parity = (sum(np.indices((m,) * (2 * n + 1), sparse=True)) % 2).ravel()
    even = np.flatnonzero(parity == 0)
    return parity, even, _node_image(grid, (2 * n,), swap=True)[even]


def _certify_symmetries(grid, lap):
    """Check bitwise that L splits into two parity blocks that S exchanges,
    and that F, G and the twisted swap T map the even block onto itself.

    T is (x_i, y_i, t) -> (y_i, x_i, t) with the sign (-1)^l on t-index
    l: exchanging x_i and y_i exchanges the (xt + tx) and (yt + ty)
    terms, and the staggered sign flips every term with one D_t, whose
    difference is then negated exactly.  Returns the even nodes, their S
    images, the even block, the block positions of the F and G images,
    and T as a signed permutation ``(perm, sign)`` of the block.
    """
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
    refls = [np.searchsorted(even, _node_image(grid, axes)[even]) for axes in gens]
    for axes, refl in zip(gens, refls):
        if (block[refl][:, refl] != block).nnz:
            raise CertificationError(f"Kohn parity block is not invariant under the "
                                     f"reflection of axes {axes}")
    perm = np.searchsorted(even, _node_image(grid, swap=True)[even])
    sign = 1.0 - 2.0 * (even % (grid.g - 2) % 2)
    signed = sp.diags(sign) @ block[perm][:, perm] @ sp.diags(sign)
    if (signed != block).nnz:
        raise CertificationError("Kohn parity block is not invariant under the twisted swap T")
    return even, image, block, refls, (perm, sign)


class _Pencil(NamedTuple):
    """One solve of ``kohn_spectrum``: the pencil (op, mass) of a sector
    or of its T = t_sign half, ``basis`` taking its vectors to the even
    block, and ``image``, the character of the sector that T maps the
    solved one onto, when that is another sector."""

    character: tuple
    t_sign: int | None
    image: tuple | None
    op: sp.csr_matrix
    mass: np.ndarray | None
    basis: sp.csr_matrix


def _sector_pencils(grid, lap):
    """Certify the symmetries of L and build the pencils ``kohn_spectrum``
    solves.  Returns the even nodes, their S images, T as a signed
    permutation of the even block and the list of ``_Pencil``."""
    even, image, block, (refl_f, refl_g), twist = _certify_symmetries(grid, lap)
    nodes = np.arange(len(even))
    refl_fg = refl_f[refl_g]
    reps = np.flatnonzero((nodes < refl_f) & (nodes < refl_g) & (nodes < refl_fg))
    orbit = (reps, refl_f[reps], refl_g[reps], refl_fg[reps])
    # T takes representative c to orbit member h[c] of representative q[c]
    # (member 0 is the representative, then its F, G and FG images)
    own = np.arange(len(reps))
    rep_of, member = np.empty_like(nodes), np.empty_like(nodes)
    for h, cols in enumerate(orbit):
        rep_of[cols], member[cols] = own, h
    t_image = twist[0][reps]
    q, h = rep_of[t_image], member[t_image]
    rows = block[reps]
    pencils = []
    for chi in CHARACTERS:
        if chi in {p.image for p in pencils}:
            continue
        signs = np.array([1, chi[0], chi[1], chi[0] * chi[1]])
        op = rows[:, orbit[0]]
        for sign, cols in zip(signs[1:], orbit[1:]):
            op = op + sign * rows[:, cols]
        basis = sp.csr_matrix((np.repeat(0.5 * signs, len(reps)),
                               (np.concatenate(orbit), np.tile(own, 4))),
                              shape=(len(even), len(reps)))
        # T F T = -G when n = 1; for n >= 2, T commutes with both half turns
        target = (-chi[1], -chi[0]) if grid.n == 1 else chi
        if target != chi:
            pencils.append(_Pencil(chi, None, target, op, None, basis))
            continue
        # T e_c = s[c] e_q[c] on the sector's orbit sums e_c, so the half
        # T = tau is spanned by e_c + tau s[c] e_q[c], of squared norm
        # 2 (1 + [q[c] = c]): the mass, after halving the pencil
        s = twist[1][reps] * signs[h]
        for tau in (1, -1):
            keep = np.flatnonzero((q > own) | ((q == own) & (s == tau)))
            flip = sp.diags(tau * s[keep])
            half = op[keep][:, keep] + op[keep][:, q[keep]] @ flip
            lift = np.sqrt(0.5) * (basis[:, keep] + basis[:, q[keep]] @ flip)
            pencils.append(_Pencil(chi, tau, None, half.tocsr(), 1.0 + (q[keep] == keep),
                                   lift.tocsr()))
    return even, image, twist, pencils


def _lift(vecs, basis, nodes, twist, dim):
    """Lift of solve vectors: ``basis`` takes them to the even block, the
    signed permutation ``twist`` (when given) maps them on, and they are
    placed on ``nodes``; zero elsewhere in the full space."""
    def lift(idx):
        out = np.zeros((dim, len(idx)))
        block = basis @ vecs[:, idx]
        if twist is None:
            out[nodes] = block
        else:
            out[nodes[twist[0]]] = twist[1][:, None] * block
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
    The twisted swap T (see ``_certify_symmetries``) keeps the block too.
    All of these facts are checked bitwise on the assembled matrix; a
    failure raises ``CertificationError``.

    The sector operator is A[r, c] = sum_g chi(g) B[r, g c] over the
    orbit representatives r, c.  When n = 1, T F T = -G, so T maps
    sector (chi_F, chi_G) onto (-chi_G, -chi_F): (+,+) is solved whole
    and its pairs, mapped by T, are those of (-,-).  A sector that T
    maps onto itself (both mixed ones when n = 1, all four when n >= 2)
    is solved as two halves, T = tau = +1 and -1.  With T e_c =
    s_c e_(q_c) on the orbit sums, a half is the pencil
    A_tau[r, c] = A[r, c] + tau s_c A[r, q_c], M_tau = diag(1 + [q_c = c])
    over one representative c of each T-pair, dropping those that T
    fixes with sign -tau; both are exactly symmetric.

    Every solve asks for ceil(k/2) pairs.  A pair lifts to the even
    block (entries +-1/2 on the orbit of c, after the half's
    sqrt(1/2) and sqrt(2) weights), and so to invariant subspaces of L:
    that vector on the even nodes, and its image under S on the odd
    nodes, plus the same two for its T image when (+,+) is solved whole.
    ``merged_eigenpairs`` takes the k lowest of these subspaces' pairs,
    bounded by the smallest solve top, which the ceil(k/2) values of
    each solve, all doubled by S, always reach, and re-certifies them on L.

    ``meta`` holds ``parity_block``, ``block_dim`` (the even block's
    size), ``sectors`` (each solve's own ``meta`` with its character,
    ``t_sign`` (tau, or None for a sector solved whole) and dimension,
    and for a sector taken from its T image only its character, size
    and ``image_of``), ``complete_below`` (the smallest solve top), and
    ``inertia_shift`` and ``inertia_count``: the count of L below that
    shift, read off the lifted values below it.
    """
    lap = build_kohn_laplacian(grid)
    dim = lap.shape[0]
    even, image, twist, pencils = _sector_pencils(grid, lap)
    parts, sectors = [], []
    for pencil in pencils:
        res = smallest_eigenpairs(pencil.op, pencil.mass, k=(k + 1) // 2, tol=tol,
                                  seed=seed, definite=True)
        top = float(res.eigenvalues[-1])
        parts += [(res.eigenvalues, top,
                   _lift(res.eigenvectors, pencil.basis, nodes, perm, dim))
                  for perm in ((None, twist) if pencil.image else (None,))
                  for nodes in (even, image)]
        sector = {"character": pencil.character, "t_sign": pencil.t_sign,
                  "dim": pencil.op.shape[0]}
        sectors.append({**res.meta, **sector})
        if pencil.image:
            sectors.append({**sector, "character": pencil.image,
                            "image_of": pencil.character})
    result = merged_eigenpairs(lap, None, parts, k, tol)
    result.meta.update(method="sectors", seed=seed, parity_block=True,
                       block_dim=len(even), sectors=sectors)
    return result
