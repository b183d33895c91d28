import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import eigensolve
from artifact.dec import hodge_laplacian
from artifact.eigensolve import (DENSE_CUTOFF, CertificationError,
                                 EigensolveError, SpectrumResult,
                                 _certify_orthonormal, _certify_residuals,
                                 _factor_symmetric, _gap_shift, _solve_dense,
                                 _verify_inertia, count_shift, grounded_solver,
                                 inertia_count, merged_eigenpairs, smallest_eigenpairs,
                                 solve_pair)
from artifact.heisenberg import heisenberg_grid, kohn_spectrum
from artifact.mesh import icosphere

SRC = Path(__file__).resolve().parents[1] / "src"


def dirichlet_chain(n):
    """Second-difference matrix on n interior nodes of a unit interval."""
    h = 1.0 / (n + 1)
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tocsr() / h**2


def chain_oracle(n, k):
    """Exact matrix eigenvalues: (4/h^2) sin^2(j pi h / 2)."""
    h = 1.0 / (n + 1)
    j = np.arange(1, k + 1)
    return (4.0 / h**2) * np.sin(j * np.pi * h / 2.0) ** 2


def test_chain_oracle_iterative_path():
    n, k = 100, 8
    res = smallest_eigenpairs(dirichlet_chain(n), k=k, definite=True)
    exact = chain_oracle(n, k)
    assert np.abs(res.eigenvalues - exact).max() < 1e-10 * exact[-1]
    assert res.zero_count == 0
    assert res.meta["method"] == "shift-invert"
    assert res.meta["inertia_checked"]


def test_chain_oracle_dense_path_full_spectrum():
    n = 40
    res = smallest_eigenpairs(dirichlet_chain(n), k=n)  # k == dim allowed here
    exact = chain_oracle(n, n)
    assert res.meta["method"] == "dense"
    assert np.abs(res.eigenvalues - exact).max() < 1e-10 * exact[-1]


@pytest.mark.parametrize("k", [99, 100])
def test_more_pairs_than_lanczos_gives_come_from_the_dense_solve(k):
    # dim = 100 > DENSE_CUTOFF, but Lanczos returns at most dim - 2 pairs
    a = dirichlet_chain(100)
    res = smallest_eigenpairs(a, k=k, definite=True)
    ref = eigh(a.toarray(), eigvals_only=True)[:k]
    assert res.meta["method"] == "dense"
    assert np.abs(res.eigenvalues - ref).max() < 1e-12 * ref[-1]
    assert res.meta["complete_below"] == (np.inf if k == 100 else res.eigenvalues[-1])
    assert smallest_eigenpairs(a, k=98, definite=True).meta["method"] == "shift-invert"


def test_generalized_uniform_mass_rescales():
    n, k, c = 90, 6, 2.5
    a = dirichlet_chain(n)
    base = smallest_eigenpairs(a, k=k, definite=True)
    scaled = smallest_eigenpairs(a, mass=np.full(n, c), k=k, definite=True)
    assert np.abs(scaled.eigenvalues * c - base.eigenvalues).max() \
        < 1e-9 * base.eigenvalues[-1]


def test_mass_accepts_array_like():
    n = 30
    a = dirichlet_chain(n)
    diag = np.linspace(1.0, 2.0, n)
    r1 = smallest_eigenpairs(a, mass=diag, k=4)
    r2 = smallest_eigenpairs(a, mass=diag.tolist(), k=4)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)


def test_input_validation():
    a = dirichlet_chain(10)
    with pytest.raises(ValueError):
        smallest_eigenpairs(a, k=0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(a, k=11)  # k = dim + 1
    with pytest.raises(ValueError):
        smallest_eigenpairs(dirichlet_chain(100), k=101)
    with pytest.raises(ValueError):
        smallest_eigenpairs(sp.csr_matrix(np.ones((2, 3))))
    with pytest.raises(ValueError):
        smallest_eigenpairs(a, mass=-np.ones(10), k=2)
    with pytest.raises(ValueError, match="mass"):
        smallest_eigenpairs(a, mass=np.ones(9), k=2)


def test_mass_orthonormality_certificate(sphere2):
    pair = hodge_laplacian(sphere2, 0)
    res = solve_pair(pair, k=10)
    gram = res.eigenvectors.T @ (pair.mass_diag[:, None] * res.eigenvectors)
    assert np.abs(gram - np.eye(10)).max() <= 1e-8


def test_residual_certificates_recomputed(sphere2):
    pair = hodge_laplacian(sphere2, 0)
    res = solve_pair(pair, k=6)
    assert (res.residuals <= 1e-8).all()
    a = pair.stiffness
    r = a @ res.eigenvectors \
        - (pair.mass_diag[:, None] * res.eigenvectors) * res.eigenvalues[None, :]
    norm_a = np.abs(a).sum(axis=1).max()
    assert np.linalg.norm(r, axis=0).max() / norm_a < 1e-8 * 10


@pytest.mark.parametrize("path", ["dense", "lanczos", "merged", "kohn"])
def test_every_solve_certifies_against_the_one_residual_bound(path, monkeypatch):
    # every certified pair is held to eigensolve.RESIDUAL_TOL, read when it
    # is certified: with the bound below rounding, each path refuses
    chain = dirichlet_chain(10)
    res = smallest_eigenpairs(chain, k=3, definite=True)
    parts = [(res.eigenvalues, res.eigenvalues[-1], lambda idx: res.eigenvectors[:, idx])]
    solve = {
        "dense": lambda: smallest_eigenpairs(chain, k=3, definite=True),
        "lanczos": lambda: smallest_eigenpairs(dirichlet_chain(100), k=3, definite=True),
        "merged": lambda: merged_eigenpairs(chain, None, parts, 2),
        "kohn": lambda: kohn_spectrum(heisenberg_grid(1, 1.0, 1.0, 16), k=4),
    }[path]
    assert solve() is not None
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(EigensolveError, match="residual certificate failed"):
        solve()


def test_zero_counts(sphere2, torus16):
    assert solve_pair(hodge_laplacian(sphere2, 0), k=8).zero_count == 1
    assert solve_pair(hodge_laplacian(torus16, 1), k=8).zero_count == 2
    assert smallest_eigenpairs(dirichlet_chain(80), k=5, definite=True).zero_count == 0


def test_degenerate_cluster_orthonormal(sphere2):
    # round-sphere multiplicities: the triple at ~2 must come back as an
    # M-orthonormal basis, not three near-parallel vectors
    pair = hodge_laplacian(sphere2, 0)
    res = solve_pair(pair, k=4)
    cluster = res.eigenvectors[:, 1:4]
    gram = cluster.T @ (pair.mass_diag[:, None] * cluster)
    assert np.abs(gram - np.eye(3)).max() <= 1e-8
    assert np.ptp(res.eigenvalues[1:4]) < 0.02 * res.eigenvalues[1]


def test_deeper_krylov_retry_recovers_missed_member(torus16):
    # On the exact dual-cell complex the torus clusters are exact (0 twice,
    # 2 eight times, 4 eight times), and the first Lanczos pass on this
    # pencil misses a member at seed 0 as at seed 8; the inertia count
    # catches it and the deeper retry recovers it.  Which seeds miss
    # depends on rounding in the factorization; the next test forces the
    # miss.
    pair = hodge_laplacian(torus16, 1)
    first = solve_pair(pair, k=12, seed=0)
    retried = solve_pair(pair, k=12, seed=8)
    for res in (first, retried):
        assert res.meta["inertia_recovered"] and res.meta["inertia_checked"]
        assert res.zero_count == 2
    live = first.eigenvalues[2:]
    assert np.abs(live - np.where(live < 3.0, 2.0, 4.0)).max() < 1e-12
    assert np.count_nonzero(live < 3.0) == 8
    assert np.abs(retried.eigenvalues - first.eigenvalues).max() < 1e-10


def test_retry_recovers_forced_cluster_miss(torus16, monkeypatch):
    # The first pass drops one member of the lowest nonzero cluster; the
    # inertia count must reject it and the deeper pass restore it.
    pair = hodge_laplacian(torus16, 1)
    first = solve_pair(pair, k=12, seed=0)
    solve_arpack = eigensolve._solve_arpack
    passes = []

    def drop_member(a, m_op, m_diag, k, seed, definite, extra):
        vals, vecs, meta = solve_arpack(a, m_op, m_diag, k, seed, definite, extra)
        passes.append(extra)
        if extra == 0:
            lead = np.flatnonzero(vals > 1e-6 * vals[-1])[0]
            assert vals[lead + 1] - vals[lead] < 1e-8 * vals[-1]
            vals, vecs = np.delete(vals, lead), np.delete(vecs, lead, axis=1)
        return vals, vecs, meta

    monkeypatch.setattr(eigensolve, "_solve_arpack", drop_member)
    retried = solve_pair(pair, k=12, seed=0)
    assert passes == [0, 8]
    assert retried.meta["inertia_recovered"] and retried.meta["inertia_checked"]
    assert np.abs(retried.eigenvalues - first.eigenvalues).max() < 1e-10
    assert retried.zero_count == first.zero_count == 2


def test_caller_count_certifies_a_solve(monkeypatch):
    # a count of k values below a shift, from the caller's own inertia
    # factorization, stands in for the solve's: one factorization in all
    a, k = dirichlet_chain(100), 3
    exact = chain_oracle(100, 5)
    calls = []
    factor = eigensolve._factor_symmetric
    monkeypatch.setattr(eigensolve, "_factor_symmetric",
                        lambda k_csc: calls.append(k_csc) or factor(k_csc))
    counted = (k, float(exact[2] + exact[3]) / 2.0, 1234)
    res = smallest_eigenpairs(a, k=k, definite=True, inertia=counted)
    assert len(calls) == 1 and "inertia_recovered" not in res.meta
    assert (res.meta["inertia_count"], res.meta["inertia_shift"],
            res.meta["inertia_nnz"]) == counted and res.meta["inertia_checked"]
    assert np.abs(res.eigenvalues - exact[:3]).max() < 1e-10 * exact[2]
    with pytest.raises(ValueError, match="counts k values"):
        smallest_eigenpairs(a, k=2, definite=True, inertia=counted)


def test_disagreeing_caller_count_is_retried_then_refused(monkeypatch):
    # the count says 3 values lie below a shift that 4 computed values lie
    # below: the deeper Krylov pass finds the same 4, and the solve is
    # refused rather than certified by a count it contradicts
    a, k = dirichlet_chain(100), 3
    exact = chain_oracle(100, 5)
    solve_arpack = eigensolve._solve_arpack
    passes = []

    def recording(*args):
        passes.append(args[-1])
        return solve_arpack(*args)

    monkeypatch.setattr(eigensolve, "_solve_arpack", recording)
    wrong = (k, float(exact[3] + exact[4]) / 2.0, 0)
    with pytest.raises(CertificationError, match="inertia count 3 .* 4 computed"):
        smallest_eigenpairs(a, k=k, definite=True, inertia=wrong)
    assert passes == [0, 8]
    # on the dense path the count is checked against the whole spectrum
    with pytest.raises(CertificationError, match="missed"):
        smallest_eigenpairs(dirichlet_chain(40), k=k, inertia=wrong)


def test_factor_stores_no_padding():
    # With relaxed supernodes SuperLU stores 523 472 entries here for the
    # 165 062 of L and U.  The solve reports what its factorizations store.
    # The plain solve: solve_pair splits the icosphere pencil by its reflections.
    pair = hodge_laplacian(icosphere(1.0, 4), 0)
    res = smallest_eigenpairs(pair.stiffness, pair.mass_diag, k=4)
    shifted = pair.stiffness - res.meta["sigma"] * sp.diags(pair.mass_diag)
    lu = _factor_symmetric(sp.csc_matrix(shifted))
    assert lu.nnz == lu.L.nnz + lu.U.nnz == res.meta["factor_nnz"]
    assert res.meta["inertia_nnz"] == lu.nnz


def _calls(node, name):
    return sum(isinstance(n, ast.Call) and name in
               {getattr(n.func, "attr", None), getattr(n.func, "id", None)}
               for n in ast.walk(node))


def test_splu_called_only_by_factor_symmetric():
    # One factorization routine, so every factor gets the same settings.
    total = inside = 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        total += _calls(tree, "splu")
        inside += sum(_calls(f, "splu") for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef) and f.name == "_factor_symmetric"
                      and path.name == "eigensolve.py")
        assert all(alias.name != "splu" for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) for alias in n.names), path
    assert total == inside == 1


def test_no_module_imports_private_eigensolve_names():
    # Spectra are selected and certified inside eigensolve only.
    for path in sorted((SRC / "artifact").glob("*.py")):
        if path.name == "eigensolve.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        private = [alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   and (n.module or "").split(".")[-1] == "eigensolve"
                   for alias in n.names if alias.name.startswith("_")]
        assert not private, (path.name, private)


def test_grounded_solver_on_two_components():
    # two path-graph Laplacians side by side: the kernel holds one
    # constant per component, grounded here at a middle row of each
    sizes = (5, 7)
    paths = [sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tolil() for n in sizes]
    for path in paths:
        path[0, 0] = path[-1, -1] = 1.0
    a = sp.block_diag(paths, format="csr")
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal((12, 3))
    rhs[:5] -= rhs[:5].mean(axis=0)
    rhs[5:] -= rhs[5:].mean(axis=0)
    x = grounded_solver(a, [2, 8])(rhs)
    assert x.shape == (12, 3) and not x[[2, 8]].any()
    assert np.abs(a @ x - rhs).max() < 1e-12


def test_merged_eigenpairs_of_two_dirichlet_chains():
    # Each chain of the block-diagonal pencil is an invariant subspace.
    # The coarser chain's j-th value lies below the finer one's, so the
    # union interleaves them, and the smallest top is the coarse chain's.
    sizes, k_part = (90, 120), 4
    a = sp.block_diag([dirichlet_chain(n) for n in sizes], format="csr")
    dim = sum(sizes)

    def part(block):
        res = smallest_eigenpairs(dirichlet_chain(sizes[block]), k=k_part, definite=True)
        lo = sizes[0] * block

        def lift(idx):
            out = np.zeros((dim, len(idx)))
            out[lo:lo + sizes[block]] = res.eigenvectors[:, idx]
            return out
        return res.eigenvalues, float(res.eigenvalues[-1]), lift

    parts = [part(0), part(1)]
    exact = np.sort(np.concatenate([chain_oracle(n, k_part) for n in sizes]))
    bound = parts[0][1]
    merged = merged_eigenpairs(a, None, parts, 6)
    assert np.abs(merged.eigenvalues - exact[:6]).max() < 1e-10 * exact[5]
    assert merged.residuals.max() < 1e-8 and merged.zero_count == 0
    assert merged.meta["complete_below"] == bound
    # nothing was factored: the count is read off the merged values
    assert merged.meta["inertia_source"] == "merged" and "inertia_checked" not in merged.meta
    # Sylvester count of the pencil below the recorded shift
    shift = merged.meta["inertia_shift"]
    assert merged.eigenvalues[-1] < shift < bound
    lu = _factor_symmetric((a - shift * sp.identity(dim, format="csr")).tocsc())
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert int((lu.U.diagonal() < 0).sum()) == merged.meta["inertia_count"] == 6
    # the 7th value is the coarse chain's top itself: complete, accepted
    at_bound = merged_eigenpairs(a, None, parts, 7)
    assert at_bound.eigenvalues[-1] == bound
    assert np.abs(at_bound.eigenvalues - exact[:7]).max() < 1e-10 * exact[6]
    # its inertia shift sits in the last gap below the bound, off the spectrum
    shift = at_bound.meta["inertia_shift"]
    assert at_bound.eigenvalues[-2] < shift < bound
    lu = _factor_symmetric((a - shift * sp.identity(dim, format="csr")).tocsc())
    assert int((lu.U.diagonal() < 0).sum()) == at_bound.meta["inertia_count"] == 6
    # the 8th lies above it, where the coarse chain's 5th value may hide
    assert merged_eigenpairs(a, None, parts, 8) is None


def random_pencil(dim, seed):
    """A sparse PSD stiffness and a non-identity mass spread over two
    decades."""
    rng = np.random.default_rng(seed)
    d = sp.random(2 * dim, dim, density=0.05, random_state=seed, format="csr")
    a = (d.T @ d + sp.diags(rng.uniform(0.0, 1.0, dim) * (np.arange(dim) > 0))).tocsr()
    return a, 10.0 ** rng.uniform(-1.0, 1.0, dim)


def dense_pencil_residuals(a, mass, vals, x):
    """||A x - lambda M x||_{M^-1} / ||x||_M with a dense M and M^-1."""
    m = np.diag(mass)
    r = a.toarray() @ x - m @ x * vals
    return (np.sqrt(np.einsum("ij,ij->j", r, np.linalg.inv(m) @ r))
            / np.sqrt(np.einsum("ij,ij->j", x, m @ x)))


@pytest.mark.parametrize("dim", [40, 150])
def test_pencil_residuals_match_dense_pencil_norms(dim, monkeypatch):
    """meta["pencil_residuals"] is ||r||_{M^-1} / ||x||_M of r = A x - lambda M x,
    and bounds the distance from each computed value to an eigenvalue of
    the dense pencil; on perturbed pairs, whose residuals stand far above
    rounding (and above ``RESIDUAL_TOL``, raised here to read them), it
    is the dense value to 1e-10."""
    a, mass = random_pencil(dim, seed=dim)
    res = smallest_eigenpairs(a, mass, k=8)
    got = res.meta["pencil_residuals"]
    assert got.shape == (8,)
    expect = dense_pencil_residuals(a, mass, res.eigenvalues, res.eigenvectors)
    assert np.abs(got - expect).max() < 1e-13 * res.eigenvalues[-1]
    exact = eigh(a.toarray(), np.diag(mass), eigvals_only=True)
    gaps = np.abs(res.eigenvalues[:, None] - exact[None, :]).min(axis=1)
    assert (gaps <= got + 1e-13 * exact.max()).all()
    assert (res.residuals <= 1e-8).all()

    rng = np.random.default_rng(dim)
    vecs = res.eigenvectors + 1e-6 * rng.standard_normal(res.eigenvectors.shape)
    monkeypatch.setattr(eigensolve, "RESIDUAL_TOL", 1e-4)
    relative, pencil = _certify_residuals(a, mass, res.eigenvalues, vecs)
    assert np.allclose(pencil, dense_pencil_residuals(a, mass, res.eigenvalues, vecs),
                       rtol=1e-10, atol=0.0)
    assert pencil.min() > 1e-8 and relative.min() > 1e-9


def test_merged_eigenpairs_record_pencil_residuals():
    a, mass = random_pencil(80, seed=3)
    res = smallest_eigenpairs(a, mass, k=6)
    merged = merged_eigenpairs(a, mass, [(res.eigenvalues, float(res.eigenvalues[-1]),
                                          lambda idx: res.eigenvectors[:, idx])], 5)
    expect = dense_pencil_residuals(a, mass, merged.eigenvalues, merged.eigenvectors)
    assert merged.meta["pencil_residuals"].shape == (5,)
    assert np.abs(merged.meta["pencil_residuals"] - expect).max() < 1e-13 * merged.eigenvalues[-1]


def test_inertia_detects_missed_duplicate():
    a = sp.diags([1.0, 1.0, 2.0, 5.0]).tocsr()
    with pytest.raises(CertificationError, match="missed"):
        _verify_inertia(a, None, np.array([1.0, 2.0, 5.0]), k=2)


def test_inertia_accepts_complete_spectrum():
    a = sp.diags([1.0, 1.0, 2.0, 5.0]).tocsr()
    meta = _verify_inertia(a, None, np.array([1.0, 1.0, 2.0, 5.0]), k=2)
    assert meta["inertia_checked"]
    assert meta["inertia_count"] == 3


def test_inertia_shift_takes_the_widest_gap_past_k():
    # The pencil's third value is 2 + 4e-8, computed as 2 + 1e-7.  The
    # first clear gap past k = 2 lies between 2 and 2 + 1e-7, and a
    # shift there counts the third value on the other side; the widest
    # gap, 2 + 1e-7 .. 5, keeps the shift clear of it.
    diag = np.array([1.0, 2.0, 2.0 + 4e-8, 5.0])
    vals = np.array([1.0, 2.0, 2.0 + 1e-7, 5.0])
    a = sp.diags(diag).tocsr()
    assert _gap_shift(vals, 2) == ((vals[2] + 5.0) / 2.0, (5.0 - vals[2]) / 4.0)
    first_clear = (vals[1] + vals[2]) / 2.0
    assert inertia_count(a, None, first_clear, 0.0)[0] == 3 != int((vals < first_clear).sum())
    assert _verify_inertia(a, None, vals, k=2)["inertia_count"] == 3
    # a wider gap below index k is not a candidate
    assert _gap_shift(np.array([0.0, 10.0, 11.0, 12.5]), 2) == (11.75, 0.375)
    # no clear gap at or past k: just past the top value
    assert _gap_shift(np.array([0.0, 1.0, 1.0]), 2) == (1.0 + 1e-6, 1e-7)


def test_inertia_count_matches_dense_counts():
    # indefinite random pencils, the shift in the middle of a gap
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 30))
        b = rng.standard_normal((dim, dim))
        a = sp.csr_matrix(b + b.T)
        mass = rng.uniform(0.5, 2.0, dim)
        vals = eigh(a.toarray(), np.diag(mass), eigvals_only=True)
        j = int(rng.integers(0, dim - 1))
        shift = float(vals[j] + vals[j + 1]) / 2.0
        for m in (mass, None):
            expected = j + 1 if m is not None else int(
                (np.linalg.eigvalsh(b + b.T) < shift).sum())
            count, at, nnz = inertia_count(a, m, shift, 1.0)
            assert (count, at) == (expected, shift) and nnz >= dim


def test_inertia_count_moves_the_shift_up_on_a_breakdown(monkeypatch):
    # diag(1, 2, 3) - 2 I has an exactly zero pivot; the next attempt is
    # a quarter step up, never down
    shifts = []
    factor = eigensolve._factor_symmetric

    def recording(k_csc):
        shifts.append(1.0 - k_csc.diagonal()[0])
        return factor(k_csc)

    monkeypatch.setattr(eigensolve, "_factor_symmetric", recording)
    a = sp.diags([1.0, 2.0, 3.0]).tocsr()
    assert inertia_count(a, None, 2.0, 1.0)[:2] == (2, 2.25)
    assert shifts == [2.0, 2.25]
    with pytest.raises(ValueError, match="step"):
        inertia_count(a, None, 2.0, -1.0)


def test_inertia_count_raises_after_its_last_attempt(monkeypatch):
    # [[0, 1], [1, 0]] has no no-pivot factorization: SuperLU exchanges
    # the rows, so the permutations differ at every attempt
    calls = []
    factor = eigensolve._factor_symmetric

    def counting(k_csc):
        calls.append(k_csc)
        return factor(k_csc)

    monkeypatch.setattr(eigensolve, "_factor_symmetric", counting)
    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(CertificationError, match="kept pivoting"):
        inertia_count(swap, None, 0.0, 0.0)
    assert len(calls) == 4


def test_factorizations_come_from_the_solve_and_the_inertia_count():
    # one inertia code path: besides the shift factorization of the
    # Lanczos solve and the grounded Laplacian of grounded_solver, which
    # counts nothing, only inertia_count factors, for _verify_inertia and
    # for callers that slice a spectrum
    tree = ast.parse((SRC / "artifact" / "eigensolve.py").read_text())
    callers = sorted(f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                     and f.name != "_factor_symmetric" and _calls(f, "_factor_symmetric"))
    assert callers == ["_solve_arpack", "grounded_solver", "inertia_count"]
    assert "inertia_count" in eigensolve.__all__
    for path in sorted((SRC / "artifact").glob("*.py")):
        if path.name != "eigensolve.py":
            assert "_factor_symmetric" not in path.read_text(), path.name


def test_merged_shift_keeps_clear_of_values_one_ulp_apart():
    # the 4th value is the bound; one ulp below it sits another part's
    # value.  The shift must not fall between the two: it goes to the
    # middle of the last clear gap below the bound, and the count read
    # off the merged values is the Sylvester count of the pencil there
    bound = 3.0
    below = np.nextafter(bound, 0.0)
    diag = np.array([1.0, bound, 4.0, 2.0, below, 5.0])
    a = sp.diags(diag).tocsr()

    def part(nodes, values):
        def lift(idx):
            out = np.zeros((len(diag), len(idx)))
            out[np.asarray(nodes)[idx], np.arange(len(idx))] = 1.0
            return out
        return np.array(values), bound, lift

    parts = [part([0, 1], [1.0, bound]), part([3, 4], [2.0, below])]
    merged = merged_eigenpairs(a, None, parts, 4)
    assert merged.eigenvalues.tolist() == [1.0, 2.0, below, bound]
    shift = merged.meta["inertia_shift"]
    assert np.abs(diag - shift).min() > 1e-8 * bound
    assert shift == 2.5 and merged.meta["inertia_count"] == int((diag < shift).sum()) == 2
    count, at, _ = inertia_count(a, None, shift, 0.0)
    assert (count, at) == (2, shift)


def test_psd_check_raises_on_indefinite():
    a = sp.diags(np.arange(-1.0, 9.0)).tocsr()
    with pytest.raises(CertificationError, match="PSD"):
        smallest_eigenpairs(a, k=3)


def test_seeded_determinism_bitwise():
    a = dirichlet_chain(120)
    r1 = smallest_eigenpairs(a, k=6, seed=7, definite=True)
    r2 = smallest_eigenpairs(a, k=6, seed=7, definite=True)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
    r3 = smallest_eigenpairs(a, k=6, seed=8, definite=True)
    assert np.abs(r3.eigenvalues - r1.eigenvalues).max() < 1e-9 * r1.eigenvalues[-1]


def test_result_json_shape():
    res = smallest_eigenpairs(dirichlet_chain(20), k=3)
    d = res.to_json_dict(p=0)
    assert set(d) == {"p", "eigenvalues", "residuals", "zero_count"}
    assert d["p"] == 0 and len(d["eigenvalues"]) == 3
    assert isinstance(res, SpectrumResult)


def test_error_type_hierarchy():
    assert issubclass(CertificationError, EigensolveError)


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 20), data_seed=st.integers(0, 10**6))
def test_dense_path_matches_reference(dim, data_seed):
    rng = np.random.default_rng(data_seed)
    b = rng.standard_normal((dim, dim))
    a = sp.csr_matrix(b + b.T)
    # an indefinite matrix, so the certified parts of the dense path are
    # called directly instead of the PSD-checking solver
    ones = np.ones(dim)
    vals, vecs, _ = _solve_dense(a, ones, dim)
    vals, vecs = _certify_orthonormal(vals, vecs, ones)
    residuals, _ = _certify_residuals(a, ones, vals, vecs)
    ref = np.linalg.eigvalsh(b + b.T)
    scale = max(np.abs(ref).max(), 1.0)
    assert np.abs(vals - ref).max() < 1e-9 * scale
    assert residuals.max() <= 1e-8


def test_count_shift_takes_the_first_clear_gap_past_k():
    # unlike _gap_shift, which takes the widest (3 .. 7 here), the count
    # shift keeps to the first clear gap at or past the k-th value below
    # the bound; values above the bound are not read
    vals = np.array([7.0, 1.0, 2.0 + 1e-7, 2.0, 3.0, 11.0])
    edge = np.array([1.0, 2.0, 2.0 + 1e-7, 3.0, 7.0, 9.0])
    assert count_shift(vals, 9.0, 2) == (float(edge[1] + edge[2]) / 2.0,
                                         float(edge[2] - edge[1]) / 4.0)
    assert _gap_shift(edge, 2) == (5.0, 1.0)
    # no clear gap at or past the k-th value: the bound itself
    assert count_shift(np.array([1.0, 2.0]), 2.0 + 1e-9, 2) == (2.0 + 1e-9, 1e-7 * (2.0 + 1e-9))


def test_every_solve_records_its_completeness_bound():
    whole = smallest_eigenpairs(dirichlet_chain(10), k=10)
    assert whole.meta["complete_below"] == np.inf
    for res in (smallest_eigenpairs(dirichlet_chain(10), k=4),
                smallest_eigenpairs(dirichlet_chain(100), k=6, definite=True)):
        assert res.meta["complete_below"] == res.eigenvalues[-1]
        assert type(res.meta["complete_below"]) is float


def _failing_factorization(monkeypatch, fails):
    """Make the first ``fails`` factorizations raise as SuperLU does on an
    exactly singular matrix; returns the list of factored matrices."""
    calls = []
    factor = eigensolve._factor_symmetric

    def failing(k_csc):
        calls.append(k_csc)
        if len(calls) <= fails:
            raise RuntimeError("Factor is exactly singular")
        return factor(k_csc)

    monkeypatch.setattr(eigensolve, "_factor_symmetric", failing)
    return calls


def test_factorization_failure_moves_the_shift(monkeypatch):
    # one failure: sigma moves from -1e-6 to -1e-5 trace(A)/dim and the
    # solve certifies as usual
    n, k = 100, 6
    a = dirichlet_chain(n)
    calls = _failing_factorization(monkeypatch, 1)
    res = smallest_eigenpairs(a, k=k)
    assert res.meta["retries"] == 1
    assert res.meta["sigma"] == pytest.approx(-1e-5 * float(a.diagonal().sum()) / n, rel=1e-14)
    assert res.meta["inertia_checked"]
    assert len(calls) == 3  # the failure, the shift factorization, the inertia count
    exact = chain_oracle(n, k)
    assert np.abs(res.eigenvalues - exact).max() < 1e-9 * exact[-1]


def test_factorization_failing_at_every_shift_raises(monkeypatch):
    calls = _failing_factorization(monkeypatch, np.inf)
    with pytest.raises(EigensolveError, match="after 3 shift retries"):
        smallest_eigenpairs(dirichlet_chain(100), k=6)
    assert len(calls) == 4


def test_one_clear_gap_rule_one_pair_limit():
    # Only eigensolve decides where one computed eigenvalue ends and the
    # next begins: the threshold 1e-8 * scale is written in clear_gaps
    # alone, and no other module scales anything by 1e-8 (dec clamps no
    # Hodge star).  heisenberg takes no gaps of its own.  Only eigensolve
    # knows how many pairs a solve returns: no other module names the
    # dense cutoff, and no module keeps a pair limit of its own.
    owners = set()
    for path in sorted((SRC / "artifact").glob("*.py")):
        text = path.read_text()
        funcs = [f for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef)]
        for no, line in enumerate(text.splitlines(), 1):
            if "1e-8 *" in line:
                inner = [f for f in funcs if f.lineno <= no <= f.end_lineno]
                owners.add((path.stem, min(inner, key=lambda f: f.end_lineno - f.lineno).name
                            if inner else None))
    assert owners == {("eigensolve", "clear_gaps")}
    heis = ast.parse((SRC / "artifact" / "heisenberg.py").read_text())
    assert not [n for n in ast.walk(heis) if isinstance(n, ast.Attribute) and n.attr == "diff"]
    for path in sorted((SRC / "artifact").glob("*.py")):
        names = set()
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, (ast.ImportFrom, ast.Import)):
                names.update(alias.name for alias in n.names)
            elif isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                names.add(n.name)
            elif isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
        assert "max_pairs" not in names, path.name
        assert path.stem == "eigensolve" or "DENSE_CUTOFF" not in names, path.name
