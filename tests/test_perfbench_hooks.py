"""The traced benchmark's hooks still name real intentd entry points.

`perfbench/spans.py` patches the functions and methods listed in its
`WRAPPED` table; a rename in `src/` would otherwise surface only when a
traced benchmark run fails.
"""
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "owner, attr, name",
    spans.WRAPPED,
    ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in spans.WRAPPED],
)
def test_wrapped_entry_point_resolves(owner, attr, name):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"
