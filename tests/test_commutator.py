import ast
import tracemalloc
from pathlib import Path

import commutator_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import commutator
from artifact.commutator import (CommutatorError,
                                 degenerate_orthogonality_check,
                                 lp_identity_residual, run_trials)


def brute_force_sides(l_mat, g_mat):
    """Independent evaluation of both sides straight from the definitions."""
    vals, vecs = np.linalg.eigh(l_mat)
    g_tilde = vecs.T @ g_mat @ vecs
    lhs = ((vals[None, :] - vals[:, None]) * g_tilde**2).sum(axis=1)
    comm = l_mat @ g_mat - g_mat @ l_mat
    double = comm @ g_mat - g_mat @ comm
    rhs = -0.5 * np.diag(vecs.T @ double @ vecs)
    return lhs, rhs


def test_two_by_two_hand_oracle():
    l_mat = np.diag([1.0, 2.0])
    g_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    residuals, scale = lp_identity_residual(l_mat, g_mat)
    # every quantity is integer-valued: lhs = rhs = (1, -1) exactly
    assert residuals.max() == 0.0
    assert scale == 2.0


def _random_pair():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((6, 6))
    c = rng.standard_normal((6, 6))
    return b + b.T, c + c.T


def _triple_degenerate_pair():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    d = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0])
    l_mat = (q * d) @ q.T
    b = rng.standard_normal((8, 8))
    return 0.5 * (l_mat + l_mat.T), b + b.T


@pytest.mark.parametrize("pair", [_random_pair, _triple_degenerate_pair],
                         ids=["random", "triple-degenerate"])
def test_matches_brute_force_reference(pair):
    # the brute force sums over every k, eigenspaces included, in eigh's
    # basis: the identity needs no rotation inside an eigenspace
    l_mat, g_mat = pair()
    residuals, scale = lp_identity_residual(l_mat, g_mat)
    lhs, rhs = brute_force_sides(l_mat, g_mat)
    assert np.abs(np.abs(lhs - rhs) - residuals).max() < 1e-12 * scale
    assert residuals.max() < 1e-12 * scale


def test_constructed_triple_degeneracy():
    l_mat, g_mat = _triple_degenerate_pair()
    residuals, scale = lp_identity_residual(l_mat, g_mat)
    assert residuals.max() <= 1e-9 * scale
    norm_l = np.abs(np.linalg.eigvalsh(l_mat)).max()
    norm_g = np.linalg.norm(g_mat, 2)
    coupling = degenerate_orthogonality_check(l_mat, g_mat)
    assert coupling <= 1e-10 * norm_l * norm_g


def test_orthogonality_check_zero_without_degeneracy():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((5, 5))
    assert degenerate_orthogonality_check(np.diag([1.0, 2, 3, 4, 5]),
                                          b + b.T) == 0.0


def test_asymmetric_inputs_rejected():
    good = np.eye(3)
    bad = np.eye(3)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        lp_identity_residual(bad, good)
    with pytest.raises(ValueError):
        lp_identity_residual(good, bad)
    with pytest.raises(ValueError):
        lp_identity_residual(np.ones((2, 3)), good)


def test_run_trials_records_and_reproducibility():
    recs = run_trials(40, dim_min=2, dim_max=12, seed=9)
    assert len(recs) == 40
    assert all(2 <= r["dim"] <= 12 for r in recs)
    assert all(r["max_residual"] <= 1e-9 * r["scale"] for r in recs)
    assert all("max_coupling" not in r for r in recs)
    again = run_trials(40, dim_min=2, dim_max=12, seed=9)
    assert recs == again


def test_run_trials_degenerate_coupling():
    recs = run_trials(25, dim_min=3, dim_max=15, seed=4, degenerate=True)
    for r in recs:
        assert r["degenerate"]
        assert r["max_residual"] <= 1e-9 * r["scale"]
        assert r["max_coupling"] <= 1e-10 * r["coupling_scale"]


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(1, dim_min=1, dim_max=5)
    with pytest.raises(ValueError):
        run_trials(1, dim_min=6, dim_max=5)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 8), data_seed=st.integers(0, 10**6))
def test_identity_random_property(dim, data_seed):
    rng = np.random.default_rng(data_seed)
    b = rng.standard_normal((dim, dim))
    c = rng.standard_normal((dim, dim))
    residuals, scale = lp_identity_residual(b + b.T, c + c.T)
    assert residuals.max() <= 1e-9 * scale
    lhs, rhs = brute_force_sides(b + b.T, c + c.T)
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


@pytest.mark.parametrize("n_trials, seed, degenerate",
                         [(2000, 0, False), (2000, 3, False), (500, 1, True), (500, 4, True)])
def test_stacked_trials_match_per_trial_oracle(n_trials, seed, degenerate):
    recs = run_trials(n_trials, dim_min=2, dim_max=50, seed=seed, degenerate=degenerate)
    oracle = commutator_oracle.run_trials(n_trials, dim_min=2, dim_max=50, seed=seed,
                                          degenerate=degenerate)
    # == on floats: every record key is bitwise the per-trial value
    assert recs == oracle


@settings(max_examples=40, deadline=None)
@given(n_trials=st.integers(1, 60), dim_min=st.integers(2, 50), extra=st.integers(0, 3),
       seed=st.integers(0, 10**6), degenerate=st.booleans())
def test_stacked_trials_match_oracle_property(n_trials, dim_min, extra, seed, degenerate):
    # big dimensions fill their buckets (one trial at dimension 50),
    # small ones leave them for the final flush, and a single trial is a
    # one-pair stack; extra == 0 gives dim_min == dim_max
    args = (n_trials, dim_min, min(dim_min + extra, 50), seed, degenerate)
    assert run_trials(*args) == commutator_oracle.run_trials(*args)


def test_basis_leaving_an_eigenspace_raises(monkeypatch):
    # Any basis of an exact eigenspace passes; one that mixes each
    # eigenvector with its neighbour, across eigenvalues, must not,
    # stacked or not.
    eigh = np.linalg.eigh

    def mixed(mat):
        vals, vecs = eigh(mat)
        return vals, vecs + 1e-3 * np.roll(vecs, 1, axis=-1)

    monkeypatch.setattr(np.linalg, "eigh", mixed)
    with pytest.raises(CommutatorError, match="leaves an eigenspace"):
        run_trials(20, dim_min=4, dim_max=12, seed=1, degenerate=True)
    with pytest.raises(CommutatorError, match="leaves an eigenspace"):
        commutator_oracle.run_trials(20, dim_min=4, dim_max=12, seed=1, degenerate=True)


def test_check_stack_has_no_loop():
    # every trial of a stack is checked in one pass: no statement or
    # comprehension in _check_stack loops over the trials
    tree = ast.parse(Path(commutator.__file__).read_text())
    (check,) = [f for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "_check_stack"]
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(check) if isinstance(node, loops)]


@pytest.mark.parametrize("name", ["L", "G"])
def test_stacked_symmetry_check_names_the_matrix(name):
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((2, 5, 5, 5))
    stacks = 0.5 * (raw + raw.transpose(0, 1, 3, 2))
    commutator._check_stack(*stacks)
    stacks[0 if name == "L" else 1, 3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=f"{name} is not symmetric"):
        commutator._check_stack(*stacks)


def test_trial_buckets_bound_working_memory():
    # The lemma-check peak RSS has a 10% bound over a process of about
    # 62 MB, so the per-dimension buckets may hold only a few MB in all:
    # 3.0 MB at BUCKET_BYTES = 64 KB, 13 MB at four times that.
    run_trials(10, dim_min=2, dim_max=50)
    tracemalloc.start()
    try:
        recs = run_trials(2000, dim_min=2, dim_max=50)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(recs) == 2000
    assert peak - retained < 4 * 2**20
