"""The names perfbench's traced replay wraps and reads exist in the package.

The tracer finds its layers by module and function name, so a rename in
the package would otherwise surface only when the benchmark runs.
``perfbench/tracing.py`` is loaded from its file and never modified.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)
LAYERS = tracing.LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_functions_resolve(layer):
    module_name, names = LAYERS[layer]
    module = importlib.import_module(f"rainbowroman.{module_name}")
    for name in names:
        assert inspect.isfunction(getattr(module, name, None)), \
            f"{layer}: rainbowroman.{module_name}.{name} is not a function"


def test_solve_cache_resolves():
    # HIT_RATIOS reads the hit ratio of solve_both_cached off this cache
    from rainbowroman import hereditary
    assert callable(getattr(hereditary._solved_by_mask, "cache_info", None))
