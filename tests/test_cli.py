import json
from types import SimpleNamespace

import numpy as np
import pytest

import artifact.cli
from artifact.cli import main
from artifact.mesh import load_mesh


def test_mesh_gen_writes_loadable_off(tmp_path, capsys):
    out = tmp_path / "ico.off"
    code = main(["mesh", "gen", "--shape", "icosphere",
                 "--params", "radius=1.0", "refinement=1", "--out", str(out)])
    assert code == 0
    mesh = load_mesh(out)
    assert mesh.num_vertices == 42 and mesh.is_closed
    assert "42 vertices" in capsys.readouterr().out


def test_mesh_gen_bad_params():
    assert main(["mesh", "gen", "--shape", "icosphere",
                 "--params", "radius", "--out", "/dev/null"]) == 1
    assert main(["mesh", "gen", "--shape", "icosphere",
                 "--params", "radius=abc", "--out", "/dev/null"]) == 1


def test_spectrum_fixture_and_file(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--mesh", "icosphere2", "-p", "0", "-k", "6",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["p"] == 0 and payload["zero_count"] == 1
    assert not payload["dirichlet"]
    assert len(payload["eigenvalues"]) == 6
    assert abs(payload["eigenvalues"][1] - 2.0) < 0.05

    off = tmp_path / "mesh.off"
    assert main(["mesh", "gen", "--shape", "flat_rectangle",
                 "--params", "a=1.0", "b=1.0", "n_x=12", "n_y=12",
                 "--out", str(off)]) == 0
    out2 = tmp_path / "spec2.json"
    assert main(["spectrum", "--mesh", str(off), "--dirichlet", "-k", "4",
                 "--out", str(out2)]) == 0
    payload2 = json.loads(out2.read_text())
    assert payload2["dirichlet"] and payload2["zero_count"] == 0
    assert abs(payload2["eigenvalues"][0] - 2.0 * np.pi**2) < 0.05 * 2.0 * np.pi**2


def test_spectrum_potential_csv(tmp_path):
    off = tmp_path / "grid.off"
    assert main(["mesh", "gen", "--shape", "flat_rectangle",
                 "--params", "a=1.0", "b=1.0", "n_x=10", "n_y=10",
                 "--out", str(off)]) == 0
    mesh = load_mesh(off)
    qfile = tmp_path / "q.csv"
    qfile.write_text("".join(f"{i},2.5\n" for i in range(mesh.num_vertices)))
    base, shifted = tmp_path / "base.json", tmp_path / "shift.json"
    assert main(["spectrum", "--mesh", str(off), "--dirichlet", "-k", "4",
                 "--out", str(base)]) == 0
    assert main(["spectrum", "--mesh", str(off), "--dirichlet", "-k", "4",
                 "--q", str(qfile), "--out", str(shifted)]) == 0
    v0 = json.loads(base.read_text())["eigenvalues"]
    v1 = json.loads(shifted.read_text())["eigenvalues"]
    assert np.abs(np.array(v1) - np.array(v0) - 2.5).max() < 1e-8
    # sparse rows are allowed: unlisted vertices default to zero
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("0,1.0\n5,-1.0\n")
    assert main(["spectrum", "--mesh", str(off), "--dirichlet", "-k", "2",
                 "--q", str(sparse), "--out", str(tmp_path / "s.json")]) == 0
    # malformed files are usage errors
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,1.0\n")
    assert main(["spectrum", "--mesh", str(off), "--dirichlet",
                 "--q", str(bad)]) == 1
    dup = tmp_path / "dup.csv"
    dup.write_text("1,1.0\n1,2.0\n")
    assert main(["spectrum", "--mesh", str(off), "--dirichlet",
                 "--q", str(dup)]) == 1
    oob = tmp_path / "oob.csv"
    oob.write_text(f"{mesh.num_vertices},1.0\n")
    assert main(["spectrum", "--mesh", str(off), "--dirichlet",
                 "--q", str(oob)]) == 1


def test_spectrum_usage_errors(tmp_path, capsys):
    # Dirichlet pencil is 0-form only; --q needs --dirichlet
    assert main(["spectrum", "--mesh", "square8", "--dirichlet", "-p", "1"]) == 1
    qfile = tmp_path / "q.txt"
    qfile.write_text("1.0\n")
    assert main(["spectrum", "--mesh", "icosphere2", "--q", str(qfile)]) == 1
    # fixture families must match the requested pencil
    assert main(["spectrum", "--mesh", "icosphere2", "--dirichlet"]) == 1
    assert main(["spectrum", "--mesh", "nosuchmesh3", "-p", "0"]) == 1
    capsys.readouterr()
    # a known family at a bad level reports the fixture's own error
    assert main(["spectrum", "--mesh", "clifford4", "-p", "0"]) == 1
    assert "need >= 8" in capsys.readouterr().err


def test_audit_closed_exit_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    args = ["audit", "--mesh", "icosphere2", "--suite", "closed",
            "--j-max", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["mesh"] == "icosphere2" and payload["refinement"] == 2
    assert len(payload["records"]) == 16 * 4 + 6
    assert all(r["pass"] for r in payload["records"])
    assert all(r["terms"]["allowance"] > 0 for r in payload["records"])


def test_audit_forced_failure_exit_2(tmp_path, capsys):
    out = tmp_path / "fail.json"
    code = main(["audit", "--mesh", "icosphere2", "--suite", "closed",
                 "--j-max", "2", "--tol-audit", "-0.9", "--out", str(out)])
    assert code == 2
    assert "AUDIT FAILURE" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert any(not r["pass"] for r in payload["records"])


def test_audit_dirichlet_square_csv(tmp_path):
    out = tmp_path / "sq.csv"
    code = main(["audit", "--mesh", "square16", "--suite", "dirichlet",
                 "--j-max", "4", "--fmt", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("mesh,refinement,ineq")
    assert any("levitin-parnovski" in line for line in lines)


def test_audit_usage_errors():
    assert main(["audit", "--mesh", "square16", "--suite", "closed"]) == 1
    assert main(["audit", "--mesh", "icosphere2", "--suite", "dirichlet"]) == 1
    assert main(["audit", "--mesh", "clifford15", "--suite", "closed"]) == 1
    assert main(["audit", "--mesh", "icosphere1", "--suite", "closed"]) == 1
    # argparse-level usage errors leave through SystemExit, still status 1
    with pytest.raises(SystemExit) as exc:
        main(["audit"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["audit", "--mesh", "icosphere2", "--suite", "closed"],
    ["heisenberg", "--grid", "16"],
    ["spectrum", "--mesh", "icosphere2"],
])
def test_residual_bound_is_not_an_option(argv, capsys):
    # the solver owns its residual bound; --tol is not read as a prefix
    # of --tol-audit either
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-6"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


def test_heisenberg_command(tmp_path, capsys):
    out = tmp_path / "heis.json"
    code = main(["heisenberg", "--n", "1", "--grid", "18", "-k", "8",
                 "--j-max", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mesh"] == "heisenberg-n1" and payload["refinement"] == 18
    assert len(payload["records"]) == 5
    assert all(r["ineq"] == "heisenberg-sum" for r in payload["records"])
    assert payload["spectra"]["kohn"]["zero_count"] == 0
    assert main(["heisenberg", "--n", "3", "--grid", "16"]) == 1
    capsys.readouterr()
    # an audit of no index is refused, not reported as a pass
    assert main(["heisenberg", "--n", "1", "--grid", "16", "--j-max", "0"]) == 1
    assert "j_max" in capsys.readouterr().err
    # odd grids are refused up front, not reported as an audit failure
    assert main(["heisenberg", "--n", "1", "--grid", "19"]) == 1
    assert "even node count" in capsys.readouterr().err
    assert main(["heisenberg", "--n", "1", "--box", "inf", "1", "--grid", "16"]) == 1
    assert "finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["1e308", "1e200"])
def test_heisenberg_refuses_an_overflowing_box(box, capsys, monkeypatch):
    monkeypatch.setattr(artifact.cli, "kohn_spectrum",
                        lambda *a, **kw: pytest.fail("solved an overflowing box"))
    assert main(["heisenberg", "--n", "1", "--box", box, "1", "--grid", "16"]) == 1
    assert "overflows the operator" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["heisenberg", "--n", "1", "--grid", "32", "--j-max", "0"],
    ["audit", "--mesh", "icosphere4", "--suite", "closed", "--j-max", "0"],
    ["audit", "--mesh", "square32", "--suite", "dirichlet", "--j-max", "-1"],
])
def test_j_max_refused_before_solving(monkeypatch, capsys, argv):
    def never(*args, **kwargs):
        raise AssertionError("built or solved a pencil for an empty audit")

    for name in ("generate", "heisenberg_grid", "kohn_spectrum", "closed_spectra",
                 "solve_pair"):
        monkeypatch.setattr(artifact.cli, name, never)
    assert main(argv) == 1
    assert "j_max must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["audit", "--mesh", "icosphere7", "--suite", "dirichlet"], "'closed' suite"),
    (["audit", "--mesh", "clifford255", "--suite", "closed"], "no half-size coarsening"),
    (["audit", "--mesh", "square63", "--suite", "dirichlet"], "no half-size coarsening"),
])
def test_audit_arguments_refused_before_any_mesh_is_built(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(artifact.cli, "generate",
                        lambda *a, **kw: pytest.fail("built a mesh for a refused audit"))
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["audit", "--mesh", "cap2", "--suite", "dirichlet", "--j-max", "4"],
     "coarse level cap1 has 3 interior vertices: its pencil gives at most 3 eigenpairs, "
     "fewer than k=6"),
    (["audit", "--mesh", "square4", "--suite", "dirichlet", "--j-max", "20"],
     "fine level square4 has 9 interior vertices: its pencil gives at most 9 eigenpairs, "
     "fewer than k=22"),
    (["audit", "--mesh", "icosphere2", "--suite", "closed", "--j-max", "45"],
     "coarse level icosphere1 has 42 vertices: its pencil gives at most 42 eigenpairs, "
     "fewer than k=47"),
])
def test_undersized_levels_refused_before_any_solve(monkeypatch, capsys, argv, message):
    for name in ("solve_pair", "closed_spectra"):
        monkeypatch.setattr(artifact.cli, name,
                            lambda *a, **kw: pytest.fail("solved a pencil of a refused audit"))
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_audit_reads_the_ambient_space_from_the_fixture(monkeypatch, tmp_path):
    # a cap is audited as a domain in the sphere, a square as a flat one
    seen = []
    monkeypatch.setattr(artifact.cli, "audit_dirichlet",
                        lambda *a, ambient, **kw: seen.append(ambient) or [])
    for mesh in ("cap3", "square16"):
        assert main(["audit", "--mesh", mesh, "--suite", "dirichlet", "--j-max", "2",
                     "--out", str(tmp_path / f"{mesh}.json")]) == 0
    assert seen == ["sphere", "flat"]
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--mesh", "square16", "--suite", "dirichlet", "--ambient", "sphere"])
    assert exc.value.code == 1


def test_lemma_check_payload(tmp_path):
    out = tmp_path / "lemma.json"
    code = main(["lemma-check", "--trials", "60", "--degenerate-trials", "12",
                 "--dim-min", "2", "--dim-max", "10", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["tolerance"] == 1e-9
    runs = {r["degenerate"]: r for r in payload["runs"]}
    assert runs[False]["trials"] == 60
    assert runs[True]["max_relative_coupling"] <= 1e-10
    assert runs[False]["max_relative_residual"] <= 1e-9


def test_lemma_check_refuses_empty_run(tmp_path, capsys):
    out = tmp_path / "lemma.json"
    for counts in (["--trials", "0", "--degenerate-trials", "0"],
                   ["--trials", "-5", "--degenerate-trials", "2"],
                   ["--trials", "5", "--degenerate-trials", "-1"],
                   ["--trials", "0"]):
        assert main(["lemma-check", *counts, "--out", str(out)]) == 1
        assert "trial" in capsys.readouterr().err
    assert not out.exists()
    # degenerate trials may be switched off on their own
    assert main(["lemma-check", "--trials", "5", "--degenerate-trials", "0",
                 "--dim-max", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [r["degenerate"] for r in payload["runs"]] == [False]


def test_lemma_check_degenerate_default(tmp_path):
    # without --degenerate-trials, a tenth of the plain trials are degenerate
    out = tmp_path / "lemma.json"
    assert main(["lemma-check", "--trials", "30", "--dim-max", "6", "--out", str(out)]) == 0
    runs = {r["degenerate"]: r for r in json.loads(out.read_text())["runs"]}
    assert runs[False]["trials"] == 30 and runs[True]["trials"] == 3


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "artifact" in capsys.readouterr().out


def test_lemma_check_coupling_violation_exits_1_without_report(monkeypatch, tmp_path, capsys):
    # an eigenbasis that leaves an eigenspace fails the trials' own
    # certificate: a runtime error, not an identity failure (exit 2)
    eigh = np.linalg.eigh

    def mixed(mat):
        vals, vecs = eigh(mat)
        return vals, vecs + 1e-3 * np.roll(vecs, 1, axis=-1)

    monkeypatch.setattr(np.linalg, "eigh", mixed)
    out = tmp_path / "lemma.json"
    assert main(["lemma-check", "--trials", "0", "--degenerate-trials", "20",
                 "--dim-min", "4", "--dim-max", "12", "--out", str(out)]) == 1
    assert "leaves an eigenspace" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("with_mallopt", [True, False])
def test_main_fixes_the_malloc_thresholds_where_there_is_mallopt(monkeypatch, with_mallopt):
    # glibc's M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) are fixed
    # before the command runs; a process without mallopt runs it all the same
    calls = []
    api = SimpleNamespace(mallopt=lambda *args: calls.append(args)) if with_mallopt \
        else SimpleNamespace()
    monkeypatch.setattr(artifact.cli.ctypes, "pythonapi", api)
    assert main(["mesh", "gen", "--shape", "icosphere",
                 "--params", "radius=abc", "--out", "/dev/null"]) == 1
    assert calls == ([(-3, 2 << 20), (-1, 32 << 20)] if with_mallopt else [])
