"""The benchmark's span recorder rebinds package names by attribute.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``PATCHES`` table; a refactor that moves or renames one of those names
must fail here, not in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from artifact import heisenberg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.PATCHES
    for module_name, attr, _, _ in spans.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_kohn_spectrum_calls_the_traced_names(monkeypatch):
    # the benchmark books Kohn assembly and every mode solve through
    # these two module globals; a solve path that bypasses the solve
    # name would read 0 in its per-layer trace.  The production path
    # assembles no L, so the assembly name is never called
    calls = {"build_kohn_laplacian": 0, "smallest_eigenpairs": 0}

    def counting(name):
        fn = getattr(heisenberg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(heisenberg, name, counting(name))
    grid = heisenberg.heisenberg_grid(1, 1.0, 1.0, 16)
    modes = heisenberg.kohn_spectrum(grid, k=4).meta["modes"]
    # one solve for each mode that records pairs; the first always does
    solved = sum(mode["pairs"] > 0 for mode in modes)
    assert len(modes) == (grid.g - 2) // 2 and modes[0]["pairs"] > 0
    assert calls == {"build_kohn_laplacian": 0, "smallest_eigenpairs": solved}
