"""Every boundary that ``perfbench/spans.py`` wraps must exist in the package.

A traced benchmark run replaces each ``(module, attribute)`` of its
``BOUNDARIES`` table by a wrapper, looking the attribute up with
``getattr``; a name that a refactor removed would crash every traced run.
The table is read from the benchmark's own file, loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

import tilecircuit

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_is_a_callable_of_the_package():
    boundaries = load_spans().BOUNDARIES
    assert boundaries
    missing = [
        (module_name, attr)
        for module_name, attr, _ in boundaries
        if not callable(getattr(
            importlib.import_module(f"{tilecircuit.__name__}.{module_name}"), attr, None
        ))
    ]
    assert missing == []
