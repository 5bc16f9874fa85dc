"""The benchmark tracer's by-name hooks exist in the package.

perfbench/tracer.py wraps each layer it times or counts by looking its
attribute up in the owner's own namespace, so a refactor that deletes or
renames one of them would break only the traced benchmark run; this test
reads the tracer's tables and fails first.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_in_its_owners_namespace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    hooks = tracer.SPANS + tracer.TIMED_LEAVES + tracer.COUNTED
    assert hooks
    missing = [(name, attr) for name, owner, attr in hooks if attr not in vars(owner)]
    assert missing == []
