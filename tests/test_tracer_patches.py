"""The benchmark tracer's patch points stay importable.

``verdictbench/spans.py`` wraps engine functions by replacing module
attributes.  A patch point that the engine renames or stops importing makes
``--trace 1`` fail with an AttributeError, so check every one here, also
those the search no longer calls.
"""

import importlib.util
from pathlib import Path

import clipverify

SPANS = Path(__file__).resolve().parent.parent / "verdictbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("verdictbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_point_resolves():
    spans = _load_spans()
    modules = {"bab": clipverify.bab, "crown": clipverify.crown, "clipping": clipverify.clipping}
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in spans.PATCHES
        if not callable(getattr(modules[mod], attr, None))
    ]
    assert not missing, f"tracer patch points missing from the package: {missing}"
