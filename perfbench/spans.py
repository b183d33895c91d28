"""Outside-in span recorder for the ``artifact`` package (stdlib only).

Spans are recorded around calls into each module's public functions by
rebinding those names where they are looked up: ``cli``, ``audit`` and
``heisenberg`` bind their imports with ``from .x import y``, so the name
is replaced in each calling module's namespace.  No file of the package
changes.  Each span keeps its name, start, end and parent.
"""

from __future__ import annotations

import importlib
import resource
import time
from dataclasses import dataclass, field


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans kept in memory, in start order; ``parent`` indexes ``spans``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.attrs["raised"] = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return span, result

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            span, result = self.call(name, fn, *args, **kwargs)
            return on_result(span, result) if on_result else result
        return traced


class CountingLU:
    """Pass-through proxy of a SuperLU factorization that counts solves."""

    def __init__(self, lu, span):
        self._lu = lu
        self._span = span
        span.attrs["solves"] = 0

    def solve(self, *args, **kwargs):
        self._span.attrs["solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _note_lu(span, lu):
    # SuperLU.nnz is nnz(L) + nnz(U) of the factors (equal to
    # L.nnz + U.nnz on the 32^3 Kohn operator) without extracting them.
    span.attrs["nnz"] = int(lu.nnz)
    return CountingLU(lu, span)


def _note_solve(span, result):
    span.attrs["retries"] = int(result.meta.get("retries", 0))
    span.attrs["recovered"] = bool(result.meta.get("inertia_recovered", False))
    return result


def _note_kohn(span, lap):
    span.attrs["dim"] = int(lap.shape[0])
    span.attrs["nnz"] = int(lap.nnz)
    return lap


def _note_records(span, result):
    records = result[0] if isinstance(result, tuple) else result
    span.attrs["records"] = len(records)
    return result


def _note_trials(span, records):
    span.attrs["trials"] = len(records)
    return records


# (module, attribute, span name, result hook)
PATCHES = (
    ("artifact.cli", "generate", "mesh.build", None),
    ("artifact.cli", "heisenberg_grid", "mesh.build", None),
    ("artifact.cli", "hodge_laplacian", "dec.assemble", None),
    ("artifact.cli", "dirichlet_laplacian", "dec.assemble", None),
    ("artifact.audit", "hodge_laplacian", "dec.assemble", None),
    ("artifact.audit", "dirichlet_laplacian", "dec.assemble", None),
    ("artifact.heisenberg", "build_kohn_laplacian", "heisenberg.assemble", _note_kohn),
    ("artifact.cli", "solve_pair", "eigensolve.solve", _note_solve),
    ("artifact.audit", "solve_pair", "eigensolve.solve", _note_solve),
    ("artifact.heisenberg", "smallest_eigenpairs", "eigensolve.solve", _note_solve),
    ("scipy.sparse.linalg", "splu", "eigensolve.splu", _note_lu),
    ("scipy.sparse.linalg", "eigsh", "eigensolve.lanczos", None),
    ("artifact.audit", "curvature_data", "curvature", None),
    ("artifact.audit", "whitney_face_mass", "audit.density", None),
    ("artifact.audit", "reconstruct_density", "audit.density", None),
    ("artifact.cli", "audit_closed", "audit.records", _note_records),
    ("artifact.cli", "audit_dirichlet", "audit.records", _note_records),
    ("artifact.cli", "audit_kohn", "audit.records", _note_records),
    ("artifact.cli", "emit_report", "audit.emit", None),
    ("artifact.cli", "run_trials", "commutator.trials", _note_trials),
    ("artifact.commutator", "lp_identity_residual", "commutator.identity", None),
    ("artifact.commutator", "degenerate_orthogonality_check",
     "commutator.orthogonality", None),
)


def install(tracer):
    """Rebind every name in PATCHES to a traced wrapper."""
    for module_name, attr, span_name, hook in PATCHES:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), hook))


def layer_metrics(spans):
    """Per-layer totals of one traced pass, keyed by metric name."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def outermost(name):
        # A span nested in a span of the same name is already counted.
        out = []
        for span in spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and spans[parent].name != name:
                parent = spans[parent].parent
            if parent is None:
                out.append(span)
        return out

    def busy(name):
        return sum(s.duration for s in outermost(name))

    def self_time(name):
        return sum(s.duration - sum(c.duration for c in children.get(i, ()))
                   for i, s in enumerate(spans) if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in outermost(name))

    lus = outermost("eigensolve.splu")
    # The shift factorization is the one Lanczos applies (or one that
    # failed and made the solver move the shift); every other
    # factorization inside a solve is an inertia count.
    factors = [s for s in lus if s.attrs.get("solves") or s.attrs.get("raised")]
    inertia = [s for s in lus if not (s.attrs.get("solves") or s.attrs.get("raised"))]
    solves = outermost("eigensolve.solve")
    recovered = sum(1 for s in solves if s.attrs.get("recovered"))
    trials = attr_sum("commutator.trials", "trials")
    trials_s = busy("commutator.trials")
    return {
        "mesh.build_s": busy("mesh.build"),
        "dec.assemble_s": busy("dec.assemble"),
        "dec.assemble_calls": len(outermost("dec.assemble")),
        "heisenberg.assemble_s": busy("heisenberg.assemble"),
        "heisenberg.dim": attr_sum("heisenberg.assemble", "dim"),
        "heisenberg.nnz": attr_sum("heisenberg.assemble", "nnz"),
        "eigensolve.solve_s": busy("eigensolve.solve"),
        "eigensolve.solves": len(solves),
        "eigensolve.factor_s": sum(s.duration for s in factors),
        "eigensolve.factors": len(factors),
        "eigensolve.factor_nnz": sum(s.attrs.get("nnz", 0) for s in factors),
        "eigensolve.lanczos_s": busy("eigensolve.lanczos"),
        "eigensolve.opinv_applies": sum(s.attrs.get("solves", 0) for s in lus),
        "eigensolve.inertia_s": sum(s.duration for s in inertia),
        "eigensolve.inertia_factors": len(inertia),
        "eigensolve.inertia_nnz": sum(s.attrs.get("nnz", 0) for s in inertia),
        "eigensolve.certify_s": self_time("eigensolve.solve"),
        "eigensolve.retries": attr_sum("eigensolve.solve", "retries") + recovered,
        "eigensolve.first_pass_ratio":
            (len(solves) - recovered) / len(solves) if solves else 1.0,
        "curvature.s": busy("curvature"),
        "audit.density_s": busy("audit.density"),
        "audit.records_s": self_time("audit.records"),
        "audit.records": attr_sum("audit.records", "records"),
        "audit.emit_s": busy("audit.emit"),
        "commutator.trials_s": trials_s,
        "commutator.trials_per_s": trials / trials_s if trials_s else 0.0,
        "commutator.identity_s": busy("commutator.identity"),
        "commutator.orthogonality_s": busy("commutator.orthogonality"),
        "cli.self_s": self_time("cli.main"),
    }
