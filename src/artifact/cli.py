"""Command line entry points.

Subcommands: ``mesh gen`` (write a fixture to OFF), ``spectrum``
(certified low eigenvalues of one pencil), ``audit`` (inequality suite
with a two-refinement discretization allowance), ``heisenberg`` (Kohn
sublaplacian spectrum and audit on a box), ``lemma-check`` (randomized
commutator identity trials).

Exit status: 0 when everything passed, 2 when at least one audit record
or identity trial failed, 1 for usage or runtime errors.  A failed
certificate is a runtime error: exit 1 and no report.  That includes a
``lemma-check`` eigenbasis whose coupling inside an eigenspace exceeds
``commutator.ORTHOGONALITY_REL``.

``audit`` reads the ambient space of the Dirichlet suite from the
fixture: a cap is audited as a domain in the round sphere, a square as
a flat domain.

``SPECTRA_THREADS`` in the environment caps the linear algebra thread
pools (the package honors it on first import).  ``main`` fixes glibc's
mmap and trim thresholds, so that the peak memory of a run does not
depend on how the heap happened to be laid out.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

import numpy as np

from . import __version__
from .audit import (AUDIT_TOL, M_DIM, _check_j_max, audit_closed, audit_dirichlet,
                    audit_kohn, closed_spectra, discretization_allowance, emit_report)
from .commutator import ORTHOGONALITY_REL, run_trials
from .dec import dirichlet_laplacian, hodge_laplacian
from .eigensolve import max_pairs, solve_pair
from .heisenberg import heisenberg_grid, kohn_spectrum
from .mesh import generate, load_mesh, save_mesh

# Relative residual allowed for the commutator identity trials.  The
# coupling inside an eigenspace is held to commutator.ORTHOGONALITY_REL
# by the trials themselves, which raise when it is exceeded.
LEMMA_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; reserve 2 for audit failures.

    Long options must be spelt out: a prefix such as ``--tol`` would
    otherwise be read as ``--tol-audit``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# -- fixture names ---------------------------------------------------------

_FIXTURES = {
    "icosphere": ("closed", lambda r: generate("icosphere", radius=1.0, refinement=r)),
    "clifford": ("closed", lambda n: generate("clifford_torus", n_u=n, n_v=n)),
    "square": ("dirichlet", lambda n: generate("flat_rectangle", a=1.0, b=1.0, n_x=n, n_y=n)),
    "cap": ("dirichlet", lambda r: generate("geodesic_cap", angle=np.pi / 3.0, refinement=r)),
}


def _parse_fixture(name):
    """Split a fixture name like icosphere4 or clifford64 into family and level."""
    for family in _FIXTURES:
        if name.startswith(family) and name[len(family):].isdigit():
            return family, int(name[len(family):])
    raise ValueError(
        f"unknown fixture {name!r}; expected one of "
        + ", ".join(f"{f}<level>" for f in _FIXTURES))


def _build_fixture(family, level):
    suite, builder = _FIXTURES[family]
    return builder(level), suite


def _coarser_level(family, level):
    """Next coarser refinement level used for the Richardson allowance."""
    if family == "clifford" or family == "square":
        if level % 2:
            raise ValueError(f"{family} level {level} has no half-size coarsening")
        coarse = level // 2
    else:
        coarse = level - 1
    if coarse < 1:
        raise ValueError(f"{family}{level} is too coarse for a Richardson comparison")
    return coarse


def _check_pencil_sizes(family, levels, meshes, suite, k):
    """Refuse, before anything is solved, a Richardson level whose pencils
    give fewer than k pairs (``max_pairs``): the Dirichlet pencil has a
    row per interior vertex, the closed p = 0 and p = 2 pencils one per
    vertex and per dual cell of ``mesh.dec``."""
    for role, level, mesh in zip(("fine", "coarse"), levels, meshes):
        if suite == "dirichlet":
            dims = {"interior vertices": int((~mesh.boundary_vertex).sum())}
        else:
            dims = {"vertices": mesh.num_vertices, "dual cells": mesh.dec.cell_areas.size}
        for rows, dim in dims.items():
            if max_pairs(dim) < k:
                raise ValueError(f"{role} level {family}{level} has {dim} {rows}: its pencil "
                                 f"gives at most {max_pairs(dim)} eigenpairs, fewer than "
                                 f"k={k}")


def _load_potential(path, mesh):
    """Potential from CSV rows of (vertex index, value); absent vertices get 0."""
    table = np.loadtxt(path, dtype=float, delimiter=",", ndmin=2)
    if table.shape[1] != 2:
        raise ValueError("potential file must have rows of vertex_index,value")
    idx = table[:, 0]
    if (idx != np.round(idx)).any():
        raise ValueError("potential vertex indices must be integers")
    idx = idx.astype(int)
    if (idx < 0).any() or (idx >= mesh.num_vertices).any():
        raise ValueError(
            f"potential vertex index out of range 0..{mesh.num_vertices - 1}")
    if len(np.unique(idx)) != len(idx):
        raise ValueError("duplicate vertex index in potential file")
    q = np.zeros(mesh.num_vertices)
    q[idx] = table[:, 1]
    return q


def _parse_params(items):
    params = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"parameters must look like key=value, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(f"parameter {key}={value!r} is not a number") from None
    return params


def _write(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _report_failures(records):
    """Print one AUDIT FAILURE line per failed record; return the exit status."""
    failures = [r for r in records if not r["pass"]]
    for rec in failures:
        degree = "" if rec["p"] is None else f" p={rec['p']}"
        print(f"AUDIT FAILURE {rec['ineq']}{degree} j={rec['j']} "
              f"lhs={rec['lhs']!r} rhs={rec['rhs']!r}", file=sys.stderr)
    return 2 if failures else 0


# -- subcommands -------------------------------------------------------------


def _cmd_mesh(args):
    if args.action != "gen":
        raise ValueError(f"unknown mesh action {args.action!r}")
    mesh = generate(args.shape, **_parse_params(args.params))
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_vertices} vertices, "
          f"{mesh.num_faces} faces, ambient R^{mesh.ambient_dim}")
    return 0


def _cmd_spectrum(args):
    try:
        family, level = _parse_fixture(args.mesh)
    except ValueError:
        mesh = load_mesh(args.mesh)
    else:
        mesh, _ = _build_fixture(family, level)
    if args.dirichlet:
        if args.p != 0:
            raise ValueError("the Dirichlet pencil is a 0-form problem; drop -p")
        q = _load_potential(args.q, mesh) if args.q else None
        pair = dirichlet_laplacian(mesh, q)
    else:
        if args.q:
            raise ValueError("--q requires --dirichlet")
        pair = hodge_laplacian(mesh, args.p)
    result = solve_pair(pair, k=args.k, seed=args.seed)
    payload = result.to_json_dict(args.p)
    payload["dirichlet"] = bool(args.dirichlet)
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_audit(args):
    _check_j_max(args.j_max)
    family, level = _parse_fixture(args.mesh)
    suite = _FIXTURES[family][0]
    if args.suite != suite:
        raise ValueError(f"fixture {args.mesh} belongs to the {suite!r} suite")
    levels = (level, _coarser_level(family, level))  # refused before any mesh is built
    mesh, coarse_mesh = (_build_fixture(family, lv)[0] for lv in levels)
    k = args.j_max + M_DIM
    _check_pencil_sizes(family, levels, (mesh, coarse_mesh), suite, k)

    if suite == "closed":
        spectra = closed_spectra(mesh, k, seed=args.seed)
        coarse = closed_spectra(coarse_mesh, k, seed=args.seed)
        allowance = discretization_allowance(spectra, coarse)
        records = audit_closed(mesh, spectra, j_max=args.j_max,
                               tol_audit=args.tol_audit, allowance=allowance)
    else:
        q = _load_potential(args.q, mesh) if args.q else None
        fine_pair = dirichlet_laplacian(mesh, q)
        fine_spec = solve_pair(fine_pair, k=k, seed=args.seed)
        spectra = {0: fine_spec}
        # The potential file matches the fine mesh only; the allowance is
        # estimated from the zero-potential pencils, whose discretization
        # error converges at the same rate.
        coarse_spec = solve_pair(dirichlet_laplacian(coarse_mesh, None), k=k, seed=args.seed)
        allowance = discretization_allowance(spectra, {0: coarse_spec})
        records = audit_dirichlet(
            mesh, fine_pair, fine_spec, ambient="sphere" if family == "cap" else "flat",
            j_max=args.j_max, tol_audit=args.tol_audit, allowance=allowance)

    text = emit_report(records, args.mesh, level, spectra=spectra, fmt=args.fmt)
    _write(text, args.out)
    return _report_failures(records)


def _cmd_heisenberg(args):
    if args.n not in (1, 2):
        raise ValueError(f"only n in {{1, 2}} is supported, got n={args.n}")
    _check_j_max(args.j_max)
    grid = heisenberg_grid(args.n, args.box[0], args.box[1], args.grid)
    k = max(args.k, args.j_max + args.n)
    result = kohn_spectrum(grid, k=k, seed=args.seed)
    records = audit_kohn(result.eigenvalues, args.n, args.j_max,
                         tol_audit=args.tol_audit)
    name = f"heisenberg-n{args.n}"
    text = emit_report(records, name, args.grid,
                       spectra={"kohn": result}, fmt=args.fmt)
    _write(text, args.out)
    return _report_failures(records)


def _cmd_lemma_check(args):
    if args.degenerate_trials is None:
        args.degenerate_trials = args.trials // 10
    if args.trials < 0 or args.degenerate_trials < 0:
        raise ValueError("trial counts must be non-negative")
    if args.trials == 0 and args.degenerate_trials == 0:
        raise ValueError("lemma-check needs at least one trial")
    ok = True
    reports = []
    for degenerate, count in ((False, args.trials), (True, args.degenerate_trials)):
        if count == 0:
            continue
        records = run_trials(count, dim_min=args.dim_min, dim_max=args.dim_max,
                             seed=args.seed + (1 if degenerate else 0),
                             degenerate=degenerate)
        rel = max(r["max_residual"] / r["scale"] for r in records)
        ok = ok and rel <= LEMMA_TOL
        run = {"degenerate": degenerate, "trials": count,
               "max_relative_residual": rel}
        if degenerate:
            coupling = max(r["max_coupling"] / r["coupling_scale"] for r in records)
            run["max_relative_coupling"] = coupling
        reports.append(run)
    payload = {"dim_min": args.dim_min, "dim_max": args.dim_max,
               "seed": args.seed, "tolerance": LEMMA_TOL,
               "coupling_tolerance": ORTHOGONALITY_REL,
               "runs": reports, "pass": bool(ok)}
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if ok else 2


# -- wiring ------------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="artifact",
                     description="spectral audits of curvature-eigenvalue inequalities")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="mesh fixtures")
    p_mesh.add_argument("action", choices=["gen"])
    p_mesh.add_argument("--shape", required=True,
                        choices=["icosphere", "clifford_torus", "flat_rectangle",
                                 "geodesic_cap"])
    p_mesh.add_argument("--params", nargs="*", default=[], metavar="KEY=VALUE")
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=_cmd_mesh)

    p_spec = sub.add_parser("spectrum", help="certified low spectrum of one pencil")
    p_spec.add_argument("--mesh", required=True,
                        help="fixture name (icosphere4, clifford64, square32, cap4) or OFF path")
    p_spec.add_argument("-p", type=int, default=0, choices=[0, 1, 2])
    p_spec.add_argument("-k", type=int, default=12)
    p_spec.add_argument("--dirichlet", action="store_true")
    p_spec.add_argument("--q", help="CSV of vertex_index,value rows; missing vertices default to 0")
    p_spec.add_argument("--seed", type=int, default=42)
    p_spec.add_argument("--out")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_audit = sub.add_parser("audit", help="inequality audit suite")
    p_audit.add_argument("--mesh", required=True, help="fixture name, e.g. icosphere4")
    p_audit.add_argument("--suite", required=True, choices=["closed", "dirichlet"])
    p_audit.add_argument("--j-max", type=int, default=20)
    p_audit.add_argument("--q", help="CSV of vertex_index,value rows; missing vertices default to 0")
    p_audit.add_argument("--tol-audit", type=float, default=AUDIT_TOL)
    p_audit.add_argument("--seed", type=int, default=42)
    p_audit.add_argument("--fmt", choices=["json", "csv"], default="json")
    p_audit.add_argument("--out")
    p_audit.set_defaults(func=_cmd_audit)

    p_heis = sub.add_parser("heisenberg", help="Kohn sublaplacian box spectrum and audit")
    p_heis.add_argument("--n", type=int, default=1)
    p_heis.add_argument("--box", type=float, nargs=2, default=[1.0, 1.0],
                        metavar=("A", "T"))
    p_heis.add_argument("--grid", type=int, default=32)
    p_heis.add_argument("-k", type=int, default=12)
    p_heis.add_argument("--j-max", type=int, default=5)
    p_heis.add_argument("--tol-audit", type=float, default=AUDIT_TOL)
    p_heis.add_argument("--seed", type=int, default=42)
    p_heis.add_argument("--fmt", choices=["json", "csv"], default="json")
    p_heis.add_argument("--out")
    p_heis.set_defaults(func=_cmd_heisenberg)

    p_lemma = sub.add_parser("lemma-check", help="randomized commutator identity trials")
    p_lemma.add_argument("--trials", type=int, default=1000)
    p_lemma.add_argument("--degenerate-trials", type=int, default=None)
    p_lemma.add_argument("--dim-min", type=int, default=2)
    p_lemma.add_argument("--dim-max", type=int, default=30)
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.add_argument("--out")
    p_lemma.set_defaults(func=_cmd_lemma_check)

    return parser


def main(argv=None):
    # Left dynamic, glibc's mmap threshold rises to the size of every large
    # block freed (up to 32 MiB), so later factors, Krylov bases and
    # eigenvector blocks are carved from the brk heap, and whether their
    # pages go back to the system when freed hangs on which small objects
    # sit above them: the peak resident size of one icosphere5 audit took
    # either of two values 16 MB apart between runs of the same command.
    # Fixed thresholds make where a block lives depend on its size alone.
    # M_MMAP_THRESHOLD (-3): blocks of 2 MiB and more (factor, Krylov and
    # eigenvector arrays) are mappings of their own, unmapped when freed.
    # M_TRIM_THRESHOLD (-1): the heap keeps up to 32 MiB of free top (the
    # dynamic rule keeps up to 64 MiB), so the smaller blocks, Lanczos
    # vectors among them, are reused rather than faulted in afresh each
    # time.  ctypes.pythonapi looks the name up among all the process's
    # symbols; without glibc there may be no mallopt, and nothing to do.
    for param, value in ((-3, 2 << 20), (-1, 32 << 20)):
        getattr(ctypes.pythonapi, "mallopt", lambda *_: 0)(param, value)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"artifact: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
