import numpy as np
import pytest
import scipy.sparse as sp

from artifact.audit import audit_kohn
from artifact.eigensolve import _factor_symmetric, smallest_eigenpairs
from artifact.heisenberg import (HeisenbergGrid, build_kohn_laplacian,
                                 heisenberg_grid, kohn_spectrum, parity_blocks)


def reflect(grid):
    """The grid of the reflected box (x, y, t) -> (-x, -y, -t).

    The box is symmetric, so the reflected grid has the same nodes and
    the spectrum on it must match; the reflected coordinate arrays are
    rebuilt (negated and reversed) so the assembly arithmetic genuinely
    differs in floating point.  The point reflection is not a symmetry
    of the discrete sublaplacian (see
    ``test_point_reflection_is_not_a_symmetry``); the symmetry that
    swaps its parity blocks is the map S of ``parity_blocks``.
    """
    axes = tuple(np.ascontiguousarray(-ax[::-1]) for ax in grid.axes)
    return HeisenbergGrid(grid.n, grid.a, grid.T, grid.g, axes)


def independent_fields(grid):
    """Rebuild the horizontal fields from scratch (kron chain per axis)."""
    sizes = [len(ax) for ax in grid.axes]
    n = grid.n

    def centered(m, h):
        off = np.full(m - 1, 1.0 / (2.0 * h))
        return sp.diags([off, -off], [1, -1], format="csr")

    def lift(k, mat):
        out = None
        for ax, m in enumerate(sizes):
            f = mat if ax == k else sp.identity(m, format="csr")
            out = f if out is None else sp.kron(out, f, format="csr")
        return out

    def coord(k):
        shape = [1] * len(sizes)
        shape[k] = sizes[k]
        return np.broadcast_to(grid.axes[k].reshape(shape), sizes).ravel()

    d_t = lift(2 * n, centered(sizes[-1], grid.spacings[-1]))
    fields = []
    for i in range(n):
        x_op = lift(i, centered(sizes[i], grid.spacings[i])) \
            + sp.diags(coord(n + i) / 2.0) @ d_t
        y_op = lift(n + i, centered(sizes[n + i], grid.spacings[n + i])) \
            - sp.diags(coord(i) / 2.0) @ d_t
        fields.append((x_op, y_op))
    return fields, coord


def test_grid_validation():
    with pytest.raises(ValueError):
        heisenberg_grid(0, 1.0, 1.0, 16)
    with pytest.raises(ValueError):
        heisenberg_grid(1, 1.0, 1.0, 15)
    with pytest.raises(ValueError, match="even"):
        heisenberg_grid(1, 1.0, 1.0, 17)  # checkerboard null mode
    with pytest.raises(ValueError):
        heisenberg_grid(1, -1.0, 1.0, 16)
    ax = np.linspace(-1, 1, 16)[1:-1]
    with pytest.raises(ValueError):
        HeisenbergGrid(1, 1.0, 1.0, 16, (ax, ax))  # one axis short
    warped = np.sign(ax) * np.abs(ax) ** 1.1
    with pytest.raises(ValueError):
        HeisenbergGrid(1, 1.0, 1.0, 16, (ax, ax, warped))  # non-uniform
    with pytest.raises(ValueError, match="x_1 and y_1"):
        HeisenbergGrid(1, 1.0, 1.0, 16, (ax, 1.5 * ax, ax))  # S needs x = y


def test_grid_geometry():
    grid = heisenberg_grid(1, 1.0, 2.0, 16)
    assert grid.num_nodes == 14**3
    assert len(grid.axes) == 3
    assert grid.axes[0][0] == pytest.approx(-1.0 + 2.0 / 15.0)
    assert grid.axes[2][-1] == pytest.approx(2.0 - 4.0 / 15.0)
    hx, hy, ht = grid.spacings
    assert hx == hy == pytest.approx(2.0 / 15.0)
    assert ht == pytest.approx(4.0 / 15.0)


def test_operator_exactly_symmetric_and_positive():
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    lap = build_kohn_laplacian(grid)
    assert (lap != lap.T).nnz == 0
    res = kohn_spectrum(grid, k=4)
    assert res.eigenvalues[0] > 0.1
    assert res.zero_count == 0


def test_matches_independent_assembly():
    grid = heisenberg_grid(1, 0.8, 1.2, 16)
    fields, _ = independent_fields(grid)
    lap = None
    for x_op, y_op in fields:
        term = x_op.T @ x_op + y_op.T @ y_op
        lap = term if lap is None else lap + term
    lap = ((lap + lap.T) * 0.5).tocsr()
    dev = (build_kohn_laplacian(grid) - lap).tocoo()
    assert dev.nnz == 0 or np.abs(dev.data).max() == 0.0


def test_discrete_commutator_is_minus_dt():
    # [X, Y] = -(Avg_x + Avg_y)/2 Dt for the frozen-coefficient scheme:
    # applied to u = t it returns exactly -1 wherever the full stencil
    # is interior (one node of margin in x, y and t)
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    fields, coord = independent_fields(grid)
    x_op, y_op = fields[0]
    comm = x_op @ y_op - y_op @ x_op
    u = coord(2)
    out = comm @ u
    m = grid.g - 2
    idx = np.arange(m)
    inner1d = (idx >= 1) & (idx <= m - 2)
    mask = (inner1d[:, None, None] & inner1d[None, :, None]
            & inner1d[None, None, :]).ravel()
    assert np.abs(out[mask] + 1.0).max() < 1e-12


def test_reflection_spectrum_invariant():
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    flipped = reflect(grid)
    assert flipped.axes[0][0] == -grid.axes[0][-1]
    v1 = kohn_spectrum(grid, k=6).eigenvalues
    v2 = kohn_spectrum(flipped, k=6).eigenvalues
    assert np.abs(v1 - v2).max() < 1e-10 * v1[-1]


def test_domain_monotonicity():
    small = kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 16), k=2).eigenvalues
    large = kohn_spectrum(heisenberg_grid(1, 1.3, 1.0, 16), k=2).eigenvalues
    assert large[0] < small[0]


def test_ground_state_refinement_stability():
    lam = [kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, g), k=2).eigenvalues[0]
           for g in (16, 20, 24)]
    assert lam[0] < lam[1] < lam[2]  # second-order approach from below
    assert abs(lam[2] - lam[0]) < 0.02 * lam[2]


def test_doubled_spectrum_pairs():
    # S: (x, y, t) -> (y, x, -t) swaps the two parity blocks and commutes
    # with L, which doubles every eigenvalue; both members of each pair
    # come back, inertia-certified
    res = kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 24), k=8)
    v = res.eigenvalues
    assert res.meta["inertia_checked"] and res.meta["parity_block"]
    for i in range(4):
        assert v[2 * i + 1] / v[2 * i] - 1.0 < 1e-12


@pytest.mark.parametrize("n, g", [(1, 16), (1, 18), (2, 16)])
def test_parity_blocks_exchanged_by_swap(n, g):
    grid = heisenberg_grid(n, 1.0, 1.0, g)
    lap = build_kohn_laplacian(grid)
    parity, even, image = parity_blocks(grid)
    swap = np.empty(len(parity), dtype=int)
    swap[even], swap[image] = image, even  # S is an involution
    assert (parity[swap] != parity).all()
    coo = lap.tocoo()
    assert (parity[coo.row] != parity[coo.col]).sum() == 0
    dim = lap.shape[0]
    perm = sp.csr_matrix((np.ones(dim), (swap, np.arange(dim))), shape=(dim, dim))
    assert (perm @ lap @ perm.T != lap).nnz == 0


def test_point_reflection_is_not_a_symmetry():
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    lap = build_kohn_laplacian(grid)
    dim = lap.shape[0]
    perm = sp.csr_matrix((np.ones(dim), (np.arange(dim)[::-1], np.arange(dim))),
                         shape=(dim, dim))
    dev = abs(perm @ lap @ perm.T - lap).max() / abs(lap).max()
    assert dev > 0.3


def test_parity_block_matches_full_operator():
    grid = heisenberg_grid(1, 1.0, 1.0, 24)
    res = kohn_spectrum(grid, k=12)
    lap = build_kohn_laplacian(grid)
    full = smallest_eigenpairs(lap, None, k=12, definite=True)
    assert np.abs(res.eigenvalues / full.eigenvalues - 1.0).max() < 1e-10
    assert res.meta["block_dim"] == lap.shape[0] // 2
    # Sylvester count of the full operator below the block's inertia shift
    lu = _factor_symmetric((lap - res.meta["inertia_shift"] * sp.identity(
        lap.shape[0], format="csr")).tocsc())
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert int((lu.U.diagonal() < 0).sum()) == res.meta["inertia_count"]
    assert res.eigenvectors.shape == (lap.shape[0], 12)
    assert res.zero_count == full.zero_count == 0


def test_audit_kohn_records():
    vals = np.array([1.0, 2.0, 2.5, 7.0, 8.0])
    recs = audit_kohn(vals, n=2, j_max=3)
    assert len(recs) == 3
    r1 = recs[0]
    assert r1["ineq"] == "heisenberg-sum" and r1["p"] is None and r1["j"] == 1
    assert r1["lhs"] == 4.5 and r1["rhs"] == 4.0 and not r1["pass"]
    assert recs[1]["lhs"] == 9.5 and recs[1]["rhs"] == 8.0 and not recs[1]["pass"]
    # the additive rule of every catalog, scaled by the top audited
    # eigenvalue lambda_{j_max + n} = 8, with no allowance
    assert r1["terms"] == {"n": 2, "lambda_j": 1.0, "tol_audit": 1e-6,
                           "allowance": 0.0, "margin": 1e-6 * 8.0}
    passing = audit_kohn(np.array([1.0, 1.0, 2.9]), n=1, j_max=2)
    assert all(r["pass"] for r in passing)


def test_audit_kohn_preconditions():
    with pytest.raises(ValueError):
        audit_kohn(np.array([1.0, 2.0]), n=2, j_max=2)
    with pytest.raises(ValueError):
        audit_kohn(np.array([2.0, 1.0, 3.0]), n=1, j_max=1)
    for j_max in (0, -3):
        with pytest.raises(ValueError, match="j_max"):
            audit_kohn(np.array([1.0, 2.0, 3.0]), n=1, j_max=j_max)


def test_audit_kohn_on_computed_spectrum():
    res = kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 16), k=8)
    recs = audit_kohn(res.eigenvalues, n=1, j_max=6)
    assert all(r["pass"] for r in recs)
