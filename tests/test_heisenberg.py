import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from kohn_modes import every_mode_spectrum, lift_pairs
from kohn_sectors import parity_blocks, sector_spectrum

from artifact import heisenberg
from artifact.audit import audit_kohn
from artifact import eigensolve
from artifact.eigensolve import (CertificationError, _certify_residuals, _factor_symmetric,
                                 smallest_eigenpairs)
from artifact.heisenberg import build_kohn_laplacian, heisenberg_grid, kohn_spectrum


def independent_ops(grid):
    """1-D pieces and the tensor embedding, rebuilt from dense arrays."""
    sizes = [len(ax) for ax in grid.axes]

    def centered(k):
        m = sizes[k]
        dense = (np.eye(m, k=1) - np.eye(m, k=-1)) * (1.0 / (2.0 * grid.spacings[k]))
        return sp.csr_matrix(dense)

    def lift(factors):
        out = None
        for ax, m in enumerate(sizes):
            f = factors.get(ax, sp.identity(m, format="csr"))
            out = f if out is None else sp.kron(out, f, format="csr")
        return out

    def coord(k):
        shape = [1] * len(sizes)
        shape[k] = sizes[k]
        return np.broadcast_to(grid.axes[k].reshape(shape), sizes).ravel()

    return centered, lift, coord


def independent_fields(grid):
    """Rebuild the horizontal fields from scratch (kron chain per axis)."""
    centered, lift, coord = independent_ops(grid)
    n = grid.n
    d_t = lift({2 * n: centered(2 * n)})
    fields = []
    for i in range(n):
        x_op = lift({i: centered(i)}) + sp.diags(coord(n + i) / 2.0) @ d_t
        y_op = lift({n + i: centered(n + i)}) - sp.diags(coord(i) / 2.0) @ d_t
        fields.append((x_op, y_op))
    return fields, coord


def eight_term_sum(grid):
    """X_i^T X_i + Y_i^T Y_i expanded into Kronecker terms, each entry a
    product of 1-D entries in axis order, summed in S-partner pairs."""
    centered, lift, _ = independent_ops(grid)
    n = grid.n
    t = 2 * n
    d_t = centered(t)
    lap = None
    for i in range(n):
        x, y = i, n + i
        d_x, d_y = centered(x), centered(y)
        x_half = sp.csr_matrix(np.diag(grid.axes[x] / 2.0))
        y_half = sp.csr_matrix(np.diag(grid.axes[y] / 2.0))
        dtt = sp.csr_matrix(d_t.toarray().T @ d_t.toarray())
        xx = lift({x: sp.csr_matrix(d_x.toarray().T @ d_x.toarray())})
        yy = lift({y: sp.csr_matrix(d_y.toarray().T @ d_y.toarray())})
        tty = lift({y: sp.csr_matrix(np.diag((grid.axes[y] / 2.0) ** 2)), t: dtt})
        ttx = lift({x: sp.csr_matrix(np.diag((grid.axes[x] / 2.0) ** 2)), t: dtt})
        xt = lift({x: sp.csr_matrix(d_x.toarray().T), y: y_half, t: d_t})
        tx = lift({x: d_x, y: y_half, t: sp.csr_matrix(d_t.toarray().T)})
        yt = lift({x: x_half, y: sp.csr_matrix(d_y.toarray().T), t: d_t})
        ty = lift({x: x_half, y: d_y, t: sp.csr_matrix(d_t.toarray().T)})
        term = ((xx + yy) + (tty + ttx)) + ((xt + tx) - (yt + ty))
        lap = term if lap is None else lap + term
    return lap.tocsr()


def reversal(n, g, axes, swap=False):
    """Node permutation reversing ``axes``, after exchanging every x_i
    axis with its y_i axis when ``swap`` is set."""
    m = g - 2
    idx = np.arange(m ** (2 * n + 1)).reshape((m,) * (2 * n + 1))
    if swap:
        idx = idx.transpose([*range(n, 2 * n), *range(n), 2 * n])
    flip = tuple(slice(None, None, -1) if k in axes else slice(None)
                 for k in range(2 * n + 1))
    return idx[flip].ravel()


def twisted_swap(n, g):
    """T: (x_i, y_i, t) -> (y_i, x_i, t) with the sign (-1)^l on t-index l,
    as a signed permutation matrix."""
    m = g - 2
    dim = m ** (2 * n + 1)
    sign = 1.0 - 2.0 * (np.arange(dim) % m % 2)
    return sp.csr_matrix((sign, (reversal(n, g, (), swap=True), np.arange(dim))),
                         shape=(dim, dim))


def test_grid_validation():
    with pytest.raises(ValueError):
        heisenberg_grid(0, 1.0, 1.0, 16)
    with pytest.raises(ValueError):
        heisenberg_grid(1, 1.0, 1.0, 15)
    with pytest.raises(ValueError, match="even"):
        heisenberg_grid(1, 1.0, 1.0, 17)  # checkerboard null mode
    with pytest.raises(ValueError):
        heisenberg_grid(1, -1.0, 1.0, 16)
    # a non-finite half-width would give non-finite axes and a singular factorization
    for a, t in ((np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite and positive"):
            heisenberg_grid(1, a, t, 16)
    for g in (16, 18, 24, 32, 48):
        axis = heisenberg_grid(1, 1.0, 1.0, g).axes[0]
        assert np.array_equal(axis[::-1], -axis)


def test_grid_refuses_an_overflowing_operator():
    # finite half-widths whose axes, spacings or (x/2)^2 D_t^T D_t terms
    # overflow are refused before anything is assembled
    with pytest.raises(ValueError, match="overflows the operator: axes, spacings"):
        heisenberg_grid(1, 1e308, 1.0, 16)
    with pytest.raises(ValueError, match=r"overflows the operator: \(x/2\)\^2/h_t\^2"):
        heisenberg_grid(1, 1e200, 1.0, 16)
    with pytest.raises(ValueError, match="1/h"):
        heisenberg_grid(1, 1.0, 1e-200, 16)
    heisenberg_grid(2, 1e3, 1e-3, 48)


def test_grid_geometry():
    grid = heisenberg_grid(1, 1.0, 2.0, 16)
    assert [len(ax) for ax in grid.axes] == [14] * 3
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
    for n in (1, 2):
        grid = heisenberg_grid(n, 0.8, 1.2, 16)
        lap = build_kohn_laplacian(grid)
        dev = (lap - eight_term_sum(grid)).tocoo()
        assert dev.nnz == 0 or np.abs(dev.data).max() == 0.0
        # the fields product sums the same terms in another order
        fields, _ = independent_fields(grid)
        prod = sum(x_op.T @ x_op + y_op.T @ y_op for x_op, y_op in fields)
        scale = abs(lap).max()
        assert abs(lap - prod).max() <= 4.0 * np.finfo(float).eps * scale


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


@pytest.mark.parametrize("n, g", [(1, 16), (1, 18), (2, 16)])
def test_reflections_are_exact_symmetries(n, g):
    # S, the parity-preserving reversals F = {x, t}, G = {y, t} (n = 1)
    # or H_1 = {x_1, y_1}, H_2 = {x_2, y_2} (n = 2), and the twisted
    # swap T commute with L bitwise
    lap = build_kohn_laplacian(heisenberg_grid(n, 1.0, 1.0, g))
    dim = lap.shape[0]
    reversed_axes = [(0, 2), (1, 2)] if n == 1 else [(0, 2), (1, 3)]
    perms = [reversal(n, g, (2 * n,), swap=True)]
    perms += [reversal(n, g, axes) for axes in reversed_axes]
    maps = [sp.csr_matrix((np.ones(dim), (perm, np.arange(dim))), shape=(dim, dim))
            for perm in perms]
    for p in maps + [twisted_swap(n, g)]:
        assert (p @ lap @ p.T != lap).nnz == 0
    # T F T = -G when n = 1; T commutes with H_1 and H_2 when n = 2
    t, f, g_map = twisted_swap(n, g), maps[1], maps[2]
    assert (t @ f @ t != (-g_map if n == 1 else f)).nnz == 0


def test_broken_reflection_is_refused(monkeypatch):
    # the sector oracle certifies its symmetries on the assembled matrix:
    # perturb one entry of the even block that F moves, with its
    # transpose and their S images, so the matrix stays symmetric and S
    # still holds: only the reflection check can see it
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    build = heisenberg.build_kohn_laplacian

    def tampered(grid):
        lap = build(grid).tolil()
        parity, even, image = parity_blocks(grid)
        swap = np.empty(len(parity), dtype=int)
        swap[even], swap[image] = image, even
        flip = reversal(1, grid.g, (0, 2))
        r = int(even[len(even) // 3])
        c = int(np.flatnonzero(lap.getrow(r).toarray()[0])[-1])
        assert {flip[r], flip[c]} != {r, c} and parity[c] == parity[r] == 0
        for row, col in ((r, c), (c, r), (swap[r], swap[c]), (swap[c], swap[r])):
            lap[row, col] *= 1.0 + 1e-12
        return lap.tocsr()

    monkeypatch.setattr(heisenberg, "build_kohn_laplacian", tampered)
    with pytest.raises(CertificationError, match="reflection"):
        sector_spectrum(grid, k=4)


def test_broken_twisted_swap_is_refused(monkeypatch):
    # the sector oracle's T check: set one even-block entry, with its
    # images under F, G, FG and S and their transposes, to a new value:
    # S, F and G still hold and the matrix stays symmetric, but T moves
    # the entry off that set
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    build = heisenberg.build_kohn_laplacian

    def tampered(grid):
        lap = build(grid).tolil()
        parity, even, image = parity_blocks(grid)
        swap = np.empty(len(parity), dtype=int)
        swap[even], swap[image] = image, even
        f, g = reversal(1, grid.g, (0, 2)), reversal(1, grid.g, (1, 2))
        r = int(even[len(even) // 3])
        c = int(np.flatnonzero(lap.getrow(r).toarray()[0])[-1])
        entries = {(p[r], p[c]) for p in (np.arange(len(parity)), f, g, f[g])}
        entries |= {(col, row) for row, col in entries}
        entries |= {(swap[row], swap[col]) for row, col in entries}
        t = reversal(1, grid.g, (), swap=True)
        assert (t[r], t[c]) not in entries and parity[c] == parity[r] == 0
        value = lap[r, c] * (1.0 + 1e-12)
        for row, col in entries:
            lap[row, col] = value
        return lap.tocsr()

    monkeypatch.setattr(heisenberg, "build_kohn_laplacian", tampered)
    with pytest.raises(CertificationError, match="twisted swap"):
        sector_spectrum(grid, k=4)


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
    # the t-modes of mu and -mu are conjugate, which doubles every
    # eigenvalue; both members of each pair come back, from mode solves
    # that each ran an inertia check
    res = kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 24), k=8)
    v = res.eigenvalues
    assert res.meta["inertia_source"] == "merged" and "inertia_checked" not in res.meta
    assert all(mode["inertia_checked"] for mode in res.meta["modes"])
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


@pytest.mark.parametrize("g", [16, 24, 32])
def test_t_modes_match_sector_oracle(monkeypatch, g):
    solved, counted = [], []
    solve, count = heisenberg.smallest_eigenpairs, heisenberg.inertia_count

    def recording(a, mass, **kwargs):
        res = solve(a, mass, **kwargs)
        solved.append((a, mass, kwargs["k"]))
        return res

    def recording_count(a, mass, shift, step):
        out = count(a, mass, shift, step)
        counted.append((a, mass, out))
        return out

    monkeypatch.setattr(heisenberg, "smallest_eigenpairs", recording)
    monkeypatch.setattr(heisenberg, "inertia_count", recording_count)
    grid = heisenberg_grid(1, 1.0, 1.0, g)
    res = kohn_spectrum(grid, k=12)
    oracle = sector_spectrum(grid, k=12)
    assert np.abs(res.eigenvalues / oracle.eigenvalues - 1.0).max() < 1e-12
    assert res.residuals.max() < 1e-12 and res.zero_count == oracle.zero_count == 0
    meta = res.meta
    modes = meta["modes"]
    m = g - 2
    assert meta["method"] == "t-modes" and len(modes) == m // 2
    mu = [mode["mu"] for mode in modes]
    assert all(0.0 < a < b for a, b in zip(mu, mu[1:]))  # visited in ascending mu
    # a solve for every mode that records pairs, at most ceil(k/2) each,
    # exactly that for the first; every mode records a count
    solved_modes = [mode for mode in modes if mode["pairs"] > 0]
    assert len(solved) == len(solved_modes) and solved[0][2] == modes[0]["pairs"] == 6
    assert all("inertia_count" in mode and mode["dim"] == m * m for mode in modes)
    # one real symmetric m^2 operator per solved mode
    for (a, mass, k_s), mode in zip(solved, solved_modes):
        assert a.shape[0] == mode["dim"] and mass is None and k_s == mode["pairs"] <= 6
        assert (a != a.T).nnz == 0 and mode["inertia_checked"]
        # sigma = 0 and lambda' shift the same pattern: equal stored entries
        assert mode["factor_nnz"] == mode["inertia_nnz"] == _factor_symmetric(
            sp.csc_matrix(a)).nnz
    # every later mode is counted once; one with no value below the count
    # shift, which lies past the k-th eigenvalue, is not solved
    assert len(counted) == len(modes) - 1
    for (a, mass, (nu, shift, nnz)), mode in zip(counted, modes[1:]):
        assert mass is None and a.shape[0] == mode["dim"]
        assert nu == int((np.linalg.eigvalsh(a.toarray()) < shift).sum())
        assert mode["pairs"] == min(nu, 6) and shift > res.eigenvalues[-1]
        if nu == 0:
            assert mode["inertia_checked"] and mode["inertia_count"] == 0
            assert mode["inertia_shift"] == shift and mode["inertia_nnz"] == nnz
    if g == 32:
        assert len(solved) <= 5
    assert res.eigenvalues[-1] <= meta["complete_below"]
    assert meta["inertia_shift"] < meta["complete_below"]
    assert 0.0 < meta["weyl_slack"] < 1e-10
    # no full-grid vector on the production path; the test-side lift of
    # the mode vectors re-certifies the pairs on the assembled L
    assert res.eigenvectors is None and meta["mode_vectors"].shape == (m * m, 12)
    vecs = lift_pairs(grid, res)
    assert vecs.shape == (m ** 3, 12)
    lap = build_kohn_laplacian(grid)
    ones = np.ones(m ** 3)
    assert np.abs(vecs.T @ vecs - np.eye(12)).max() < 1e-12
    lifted = _certify_residuals(lap, ones, res.eigenvalues, vecs)[0]
    assert (lifted <= 1e-12).all()
    assert np.abs(lifted - res.residuals).max() < 1e-15
    # Sylvester count of the full operator below the merged inertia shift
    lu = _factor_symmetric((lap - meta["inertia_shift"] * sp.identity(
        lap.shape[0], format="csr")).tocsc())
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert int((lu.U.diagonal() < 0).sum()) == meta["inertia_count"]
    del lu
    if g == 24:
        full = smallest_eigenpairs(lap, None, k=12, definite=True)
        assert np.abs(res.eigenvalues / full.eigenvalues - 1.0).max() < 1e-10


@pytest.mark.parametrize("g", [16, 24, 32])
def test_slicing_matches_every_mode_oracle(g):
    # the modes that were not solved hid none of the k lowest values
    grid = heisenberg_grid(1, 1.0, 1.0, g)
    for k in (2, 4, 8, 12, 20):
        res = kohn_spectrum(grid, k=k)
        oracle = every_mode_spectrum(grid, k=k)
        assert np.abs(res.eigenvalues / oracle.eigenvalues - 1.0).max() <= 1e-12, k
        assert res.zero_count == oracle.zero_count == 0


def test_kohn_spectrum_bounds_working_memory():
    # the production path holds the m/2 mode operators of size m^2 and
    # their solves, never L or a vector on the 30^3 grid: 2.2 MiB at
    # g = 32, against 15.5 MiB when L is assembled and the pairs lifted
    grid = heisenberg_grid(1, 1.0, 1.0, 32)
    kohn_spectrum(grid, k=12)
    tracemalloc.start()
    try:
        res = kohn_spectrum(grid, k=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.eigenvalues) == 12 and res.eigenvectors is None
    assert peak < 4 * 2**20


def test_counts_certify_later_mode_solves(monkeypatch):
    # a later mode with nu <= ceil(k/2) values below B is solved for nu
    # pairs and certified by that count, not by an inertia factorization
    # of its own: at g = 32, k = 12 modes 3 and 4 are, so the call
    # factors 20 times (4 shift factorizations, 2 inertia checks of their
    # own, 14 counts) where it factored 22
    factors, counted = [], []
    factor, count = eigensolve._factor_symmetric, heisenberg.inertia_count

    def counting(k_csc):
        factors.append(k_csc.shape[0])
        return factor(k_csc)

    def recording(a, mass, shift, step):
        out = count(a, mass, shift, step)
        counted.append(out)
        return out

    monkeypatch.setattr(eigensolve, "_factor_symmetric", counting)
    monkeypatch.setattr(heisenberg, "inertia_count", recording)
    res = kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 32), k=12)
    modes = res.meta["modes"]
    assert len(factors) == 20 and set(factors) == {900}
    assert [mode["pairs"] for mode in modes[:4]] == [6, 6, 2, 1]
    for mode, (nu, at, nnz) in zip(modes[1:], counted):
        assert mode["inertia_checked"] and mode["inertia_count"] == nu
        # modes 3 and 4 carry the count at B; mode 2 (nu > 6) its own check
        assert (mode["inertia_shift"] == at) == (nu <= 6)
        if 0 < nu <= 6:
            assert mode["pairs"] == nu and mode["inertia_nnz"] == nnz
            assert mode["complete_below"] < at
        if nu == 0:
            # an unsolved mode records the count alone, as before
            assert mode == {"inertia_checked": True, "inertia_count": 0, "inertia_shift": at,
                            "inertia_nnz": nnz, "mu": mode["mu"], "dim": 900, "pairs": 0}


def test_incomplete_merge_is_refused(monkeypatch):
    monkeypatch.setattr(heisenberg, "merged_selection", lambda *args: None)
    with pytest.raises(CertificationError, match="incomplete"):
        kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 16), k=4)


def test_mode_operators_match_hermitian_modes():
    # L_j = (I (x) v_j)^H L (I (x) v_j), projected from the assembled L,
    # is the complex Hermitian t-mode; its real form has its spectrum
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    lap = build_kohn_laplacian(grid).toarray()
    m = grid.g - 2
    mu, vecs = heisenberg._t_modes(m, grid.spacings[-1])
    ops = heisenberg._mode_operators(grid, mu, heisenberg._mode_pieces(grid))
    assert len(ops) == m // 2
    for op, v in zip(ops, vecs.T):
        assert op.shape == (m * m, m * m) and (op != op.T).nnz == 0
        lift = np.kron(np.eye(m * m), v[:, None])
        hermitian = lift.conj().T @ lap @ lift
        assert np.abs(hermitian - hermitian.conj().T).max() < 1e-12 * np.abs(hermitian).max()
        exact = np.linalg.eigvalsh(hermitian)
        real = np.linalg.eigvalsh(op.toarray())
        assert np.abs(real - exact).max() < 1e-12 * exact[-1]


def test_weyl_bound_covers_every_mode():
    # c = ||S|| + mu_1^2 ||Q_2|| + mu_1 ||K|| (infinity norms, mu_1 the
    # largest frequency) bounds the 2-norm of every mode operator; the
    # Weyl slack built on it is positive and no larger than with the
    # closed form c = n (2/h^2 + a^2/(2 h_t^2) + 2a/(h h_t))
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    mu, vecs = heisenberg._t_modes(grid.g - 2, grid.spacings[-1])
    pieces = heisenberg._mode_pieces(grid)
    bound = heisenberg._mode_bound(pieces, mu)
    for op in heisenberg._mode_operators(grid, mu, pieces):
        assert np.abs(np.linalg.eigvalsh(op.toarray())).max() <= bound
    slack = heisenberg._certify_t_modes(grid, mu, vecs, pieces)
    assert kohn_spectrum(grid, k=2).meta["weyl_slack"] == slack
    for g in (16, 24, 32):
        grid = heisenberg_grid(1, 1.0, 1.0, g)
        mu, vecs = heisenberg._t_modes(grid.g - 2, grid.spacings[-1])
        pieces = heisenberg._mode_pieces(grid)
        slack = heisenberg._certify_t_modes(grid, mu, vecs, pieces)
        h, _, h_t = grid.spacings
        a = grid.axes[0][-1]
        closed_form = 2.0 / h ** 2 + a ** 2 / (2.0 * h_t ** 2) + 2.0 * a / (h * h_t)
        # the slack is linear in c
        closed_form_slack = slack * closed_form / heisenberg._mode_bound(pieces, mu)
        assert 0.0 < slack <= closed_form_slack


def _calls(node, name):
    return sum(isinstance(n, ast.Call) and name in
               {getattr(n.func, "attr", None), getattr(n.func, "id", None)}
               for n in ast.walk(node))


def test_kron_called_only_by_plane_pieces():
    # One statement of which 1-D factors make up the Kohn operator: the
    # (x, y) pieces of _plane_pieces, which L and the t-modes both read
    total = inside = 0
    for path in sorted(Path(heisenberg.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        total += _calls(tree, "_kron")
        inside += sum(_calls(f, "_kron") for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef) and f.name == "_plane_pieces"
                      and path.name == "heisenberg.py")
    assert total == inside > 0


def test_perturbed_t_basis_is_refused(monkeypatch):
    modes = heisenberg._t_modes

    def perturbed(m, h):
        mu, vecs = modes(m, h)
        vecs = vecs.copy()
        vecs[m // 2, 1] *= 1.0 + 1e-9
        return mu, vecs

    monkeypatch.setattr(heisenberg, "_t_modes", perturbed)
    with pytest.raises(CertificationError, match="t-basis"):
        kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 16), k=4)


def test_odd_t_axis_has_a_zero_frequency():
    # why odd grids stay refused: at odd m one t-mode has mu = 0, and that
    # mode is the (x, y) Laplacian D_x^T D_x + D_y^T D_y, whose centered
    # differences annihilate (1, 0, 1, ..., 0, 1) on odd axes
    m, h = 15, 2.0 / 16
    mu, vecs = heisenberg._t_modes(m, h)
    assert len(mu) == (m + 1) // 2 and np.abs(mu[:-1]).min() > 0.1 / h
    assert abs(mu[-1]) < 1e-15 / h
    d = (np.eye(m, k=1) - np.eye(m, k=-1)) / (2.0 * h)
    assert np.abs(d @ vecs[:, -1]).max() < 1e-14 / h
    checker = (np.arange(m) % 2 == 0).astype(float)
    assert np.abs(d @ checker).max() == 0.0
    assert np.all(heisenberg._t_modes(m + 1, h)[0] > 0.05 / h)


def test_inertia_shift_below_a_bound_on_the_spectrum():
    # at k = 2 every solve gives one value; the first mode's lies above
    # the second's, which is the doubled lowest value.  The shift must
    # sit strictly below the bound, where the Sylvester count of L is
    # defined and equals the recorded count: the two lowest values
    grid = heisenberg_grid(1, 1.0, 1.0, 16)
    meta = kohn_spectrum(grid, k=2).meta
    assert meta["inertia_shift"] < meta["complete_below"]
    lap = build_kohn_laplacian(grid)
    lu = _factor_symmetric((lap - meta["inertia_shift"] * sp.identity(
        lap.shape[0], format="csr")).tocsc())
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert int((lu.U.diagonal() < 0).sum()) == meta["inertia_count"] == 2


def test_mode_operators_at_n2():
    # n = 2: m/2 real mode operators on the four (x, y) axes; built and
    # checked without solving
    grid = heisenberg_grid(2, 1.0, 1.0, 16)
    m = grid.g - 2
    mu, vecs = heisenberg._t_modes(m, grid.spacings[-1])
    pieces = heisenberg._mode_pieces(grid)
    heisenberg._certify_t_modes(grid, mu, vecs, pieces)
    ops = heisenberg._mode_operators(grid, mu, pieces)
    assert len(ops) == m // 2
    for op in ops:
        assert op.shape == (m ** 4, m ** 4) and (op != op.T).nnz == 0


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
