"""Reflection sectors: ``solve_pair`` splits a pencil by the mesh
reflections it commutes with (``eigensolve.sector_eigenpairs``).

The plain solve of the whole pencil, ``smallest_eigenpairs``, is the
oracle, and dense ``eigh`` for small random pencils.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from artifact import eigensolve
from artifact.dec import dirichlet_laplacian, hodge_laplacian
from artifact.eigensolve import sector_eigenpairs, smallest_eigenpairs, solve_pair
from artifact.mesh import clifford_torus, flat_rectangle, geodesic_cap, icosphere

PENCILS = {
    **{f"icosphere{r}-p{p}": (lambda r=r, p=p: hodge_laplacian(icosphere(1.0, r), p), 8)
       for r in (2, 3, 4) for p in (0, 2)},
    **{f"square{n}": (lambda n=n: dirichlet_laplacian(flat_rectangle(1.0, 1.0, n, n)), 4)
       for n in (32, 64)},
    "cap4": (lambda: dirichlet_laplacian(geodesic_cap(np.pi / 3.0, 4)), 4),
    "clifford16-p0": (lambda: hodge_laplacian(clifford_torus(16, 16), 0), 1),
}


def sector_count(res):
    return len(res.meta.get("sectors", ())) or 1


def plain(pair, k, seed=42):
    return smallest_eigenpairs(pair.stiffness, pair.mass_diag, k=k, seed=seed,
                               definite=pair.dirichlet)


def same_result(a, b):
    return all(np.array_equal(x, y) for x, y in
               ((a.eigenvalues, b.eigenvalues), (a.eigenvectors, b.eigenvectors),
                (a.residuals, b.residuals))) and a.zero_count == b.zero_count


@pytest.mark.parametrize("name", PENCILS)
def test_sector_solve_matches_the_plain_solve(name):
    build, sectors = PENCILS[name]
    pair, k = build(), 22
    res, ref = solve_pair(pair, k=k), plain(pair, k)
    assert sector_count(res) == sectors
    live = ref.eigenvalues > 1e-8 * ref.eigenvalues[-1]
    rel = np.abs(res.eigenvalues - ref.eigenvalues)[live] / ref.eigenvalues[live]
    assert rel.max() < 1e-12
    assert np.abs(res.eigenvalues[~live]).max(initial=0.0) < 1e-12 * ref.eigenvalues[-1]
    assert res.zero_count == ref.zero_count
    assert res.meta["complete_below"] >= res.eigenvalues[-1]
    assert res.residuals.max() <= 1e-12
    x = res.eigenvectors
    gram = x.T @ (pair.mass_diag[:, None] * x)
    assert np.abs(gram - np.eye(k)).max() < 1e-10
    if sectors == 1:
        assert same_result(res, ref)


def test_sector_meta_records_each_sector():
    pair = hodge_laplacian(icosphere(1.0, 3), 0)
    res = solve_pair(pair, k=22)
    meta = res.meta
    assert meta["method"] == "sectors" and 0.0 < meta["weyl_slack"] < 1e-15
    rows = [s["rows"] for s in meta["sectors"]]
    assert sum(rows) == pair.dim and len(set(s["character"] for s in meta["sectors"])) == 8
    assert meta["sectors"][0]["character"] == (1, 1, 1)
    for s in meta["sectors"]:
        assert s["pairs"] == -(-22 // 8) + 3 and s["k_solve"] >= s["pairs"]
        assert s["top"] >= res.eigenvalues[-1] and s["inertia_count"] >= s["pairs"]
        assert s["inertia_nnz"] > 0
    assert meta["retries"] == 0 and meta["inertia_recovered"] == 0
    # the kernel, the constants, lies in the trivial sector alone
    assert meta["sectors"][0]["rows"] == max(rows)
    assert "meta" not in res.to_json_dict(0) and "sectors" not in res.to_json_dict(0)


def test_reflections_come_from_the_mesh():
    sphere, square = icosphere(1.0, 2), flat_rectangle(1.0, 1.0, 8, 8)
    assert len(sphere.reflections) == 3
    for vertex_perm, face_perm in sphere.reflections:
        assert np.array_equal(vertex_perm[vertex_perm], np.arange(sphere.num_vertices))
        assert np.array_equal(face_perm[face_perm], np.arange(sphere.num_faces))
        assert not vertex_perm.flags.writeable
    # each square's diagonal leans one way, so the faces do not map; the
    # vertices and the Dirichlet pencil do
    assert [f for _, f in square.reflections] == [None, None]
    assert len(dirichlet_laplacian(square).reflections) == 2
    assert clifford_torus(16, 16).reflections == ()
    assert [len(hodge_laplacian(sphere, p).reflections) for p in (0, 1, 2)] == [3, 0, 3]


def test_asymmetric_potential_gives_the_plain_result_bitwise():
    mesh = flat_rectangle(1.0, 1.0, 32, 32)
    q = np.random.default_rng(3).uniform(0.0, 5.0, mesh.num_vertices)
    pair = dirichlet_laplacian(mesh, q)
    assert len(pair.reflections) == 2
    res = solve_pair(pair, k=12, seed=5)
    assert same_result(res, plain(pair, 12, seed=5)) and "sectors" not in res.meta
    # a potential with the square's symmetry keeps all four sectors
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    pair = dirichlet_laplacian(mesh, (x - 0.5) ** 2 * (y - 0.5) ** 2)
    assert sector_count(solve_pair(pair, k=12)) == 4


def test_one_moved_entry_drops_its_reflection():
    pair = dirichlet_laplacian(geodesic_cap(np.pi / 3.0, 3))
    a = pair.stiffness.tolil()
    i, j = next((i, j) for i, j in zip(*sp.triu(pair.stiffness, 1).nonzero())
                if all(p[i] != i and p[j] != j for p in pair.reflections))
    a[i, j] += 1e-6
    a[j, i] += 1e-6
    a = a.tocsr()
    assert sector_count(sector_eigenpairs(pair.stiffness, pair.mass_diag, pair.reflections,
                                          k=8, definite=True)) == 4
    res = sector_eigenpairs(a, pair.mass_diag, pair.reflections, k=8, definite=True)
    assert same_result(res, smallest_eigenpairs(a, pair.mass_diag, k=8, definite=True))
    mass = pair.mass_diag.copy()
    mass[i] *= 1.0 + 1e-6
    res = sector_eigenpairs(pair.stiffness, mass, pair.reflections, k=8, definite=True)
    assert "sectors" not in res.meta


def test_malformed_reflection_refused():
    pair = dirichlet_laplacian(flat_rectangle(1.0, 1.0, 8, 8))
    cycle = np.roll(np.arange(pair.dim), 1)
    for bad in (cycle, np.arange(pair.dim - 1), np.full(pair.dim, pair.dim)):
        with pytest.raises(ValueError, match="involutive permutation"):
            sector_eigenpairs(pair.stiffness, pair.mass_diag, [bad], k=4)


def invariant_pencil(rng, pairs, fixed, coupled):
    """A random PSD pencil of 2 pairs + fixed rows that commutes with a
    random involution swapping ``pairs`` row pairs.  Uncoupled, its
    paired block B appears in both sectors, so each of B's eigenvalues
    is a two-member cluster with one member per sector."""
    def psd(n):
        g = rng.standard_normal((n, n))
        return g.T @ g

    n = 2 * pairs + fixed
    a = np.zeros((n, n))
    b = psd(pairs)
    a[:pairs, :pairs] = a[pairs:2 * pairs, pairs:2 * pairs] = b
    a[2 * pairs:, 2 * pairs:] = psd(fixed)
    w = rng.uniform(0.5, 2.0, pairs)
    mass = np.concatenate([w, w, rng.uniform(0.5, 2.0, fixed)])
    swap = np.concatenate([np.arange(pairs, 2 * pairs), np.arange(pairs),
                           np.arange(2 * pairs, n)])
    if coupled:
        c = psd(n)
        a = a + (c + c[swap][:, swap]) * 0.5
    relabel = rng.permutation(n)
    back = np.argsort(relabel)
    return (sp.csr_matrix(a[relabel][:, relabel]), mass[relabel], back[swap[relabel]])


@settings(max_examples=30, deadline=None)
@given(pairs=st.integers(2, 90), fixed=st.integers(0, 12), coupled=st.booleans(),
       k=st.integers(1, 12), data_seed=st.integers(0, 10**6))
def test_random_invariant_pencils_match_dense(pairs, fixed, coupled, k, data_seed):
    rng = np.random.default_rng(data_seed)
    a, mass, perm = invariant_pencil(rng, pairs, fixed, coupled)
    assert np.array_equal(a[perm][:, perm].toarray(), a.toarray())
    k = min(k, a.shape[0])
    res = sector_eigenpairs(a, mass, [perm], k=k)
    assert sector_count(res) == 2 and res.meta["weyl_slack"] == 0.0
    ref = eigh(a.toarray(), np.diag(mass), eigvals_only=True)
    scale = ref[-1]
    assert np.abs(res.eigenvalues - ref[:k]).max() < 1e-9 * scale
    x = res.eigenvectors
    assert np.abs(x.T @ (mass[:, None] * x) - np.eye(k)).max() < 1e-8
    assert res.meta["complete_below"] == (np.inf if k == a.shape[0] else res.eigenvalues[-1])


def recorded_solves(monkeypatch):
    """(rows, k) of every smallest_eigenpairs call made from here on."""
    calls = []
    solve = eigensolve.smallest_eigenpairs
    monkeypatch.setattr(eigensolve, "smallest_eigenpairs",
                        lambda a, *args, **kw: calls.append((a.shape[0], kw["k"]))
                        or solve(a, *args, **kw))
    return calls


def test_a_short_sector_is_widened(monkeypatch):
    # the 12 lowest values all lie in the even sector (its 70 fixed rows),
    # so after the first round only it is solved again, for twice the pairs
    pairs, fixed = 70, 70
    b, w = np.linspace(100.0, 200.0, pairs), np.linspace(1.0, 2.0, fixed)
    a = sp.diags(np.concatenate([b, b, w])).tocsr()
    swap = np.concatenate([np.arange(pairs, 2 * pairs), np.arange(pairs),
                           np.arange(2 * pairs, 2 * pairs + fixed)])
    calls = recorded_solves(monkeypatch)
    res = sector_eigenpairs(a, None, [swap], k=12, definite=True)
    assert calls == [(140, 9), (70, 9), (140, 18)]
    assert [s["pairs"] for s in res.meta["sectors"]] == [18, 9]
    assert np.abs(res.eigenvalues - w[:12]).max() < 1e-12


@pytest.mark.parametrize("k", [128, 130])
def test_a_sector_asked_for_all_its_rows_returns_its_whole_spectrum(monkeypatch, k):
    # ceil(k / 2) + 3 exceeds the 65 rows of each sector: each is solved
    # whole (dense, past Lanczos' 63 pairs), and the whole pencil never
    a, mass, perm = invariant_pencil(np.random.default_rng(1), 65, 0, True)
    calls = recorded_solves(monkeypatch)
    res = sector_eigenpairs(a, mass, [perm], k=k)
    assert calls == [(65, 65), (65, 65)]
    assert [s["top"] for s in res.meta["sectors"]] == [np.inf, np.inf]
    ref = eigh(a.toarray(), np.diag(mass), eigvals_only=True)
    assert np.abs(res.eigenvalues - ref[:k]).max() < 1e-12 * ref[-1]
    assert res.meta["complete_below"] == (np.inf if k == 130 else res.eigenvalues[-1])
