"""The traced benchmark run wraps ssbve attributes by name; each must exist."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_patch_targets_resolve(monkeypatch):
    # Building the tracer looks up every attribute it would patch, without
    # installing a wrapper; a renamed or deleted one raises AttributeError.
    monkeypatch.syspath_prepend(PERFBENCH)
    try:
        spans = importlib.import_module("spans")
        tracer = spans.Tracer()
    finally:
        sys.modules.pop("spans", None)
    assert tracer._patches
    for owner, attr, original, _ in tracer._patches:
        assert callable(original), attr
        assert getattr(owner, attr) is original, attr  # nothing installed
