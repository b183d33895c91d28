"""The benchmark's span recorder rebinds package names by attribute.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``PATCHES`` table; a refactor that moves or renames one of those names
must fail here, not in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
