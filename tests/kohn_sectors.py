"""Symmetry-sector oracle for ``heisenberg.kohn_spectrum``.

The Kohn operator on an even grid splits into two parity blocks that
the swap S: (x_i, y_i, t) -> (y_i, x_i, -t) exchanges.  Two axis
reversals F and G split the even block into four sectors, one per
character, and the twisted swap T: (x_i, y_i, t) -> (y_i, x_i, t), with
the sign (-1)^l on t-index l, halves the sectors it maps onto
themselves.  ``sector_spectrum`` certifies all of these bitwise on the
assembled matrix, solves the sector pencils and merges their lifted
pairs.  It shares only the assembly and the merge with the t-mode
path, which makes it an independent reference for it.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from artifact import heisenberg
from artifact.eigensolve import CertificationError, merged_eigenpairs, smallest_eigenpairs

CHARACTERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


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
    """One solve of ``sector_spectrum``: the pencil (op, mass) of a sector
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
    """Certify the symmetries of L and build the pencils ``sector_spectrum``
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


def sector_spectrum(grid, k=12, tol=1e-8, seed=42):
    """``kohn_spectrum`` by symmetry sectors of one parity block: the even
    block splits into the four characters of F and G, and T halves the
    sectors it maps onto themselves; the pairs are lifted to L and merged
    as by ``kohn_spectrum``."""
    lap = heisenberg.build_kohn_laplacian(grid)
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
