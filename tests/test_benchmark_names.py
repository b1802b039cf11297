"""Every function that a per-layer benchmark metric names must exist.

The traced benchmark run wraps the package's public, non-generator
functions and looks each ``<module>.<function>.self_s|calls`` metric up by
name, so deleting or renaming such a function breaks that run.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    named = [name.split(".")[:2] for name in declared
             if name.count(".") == 2
             and name.endswith((".self_s", ".calls"))]
    assert named
    missing = []
    for module, function in named:
        mod = importlib.import_module(f"eprghz.{module}")
        obj = getattr(mod, function, None)
        if (function.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or inspect.isgeneratorfunction(obj)):
            missing.append(f"{module}.{function}")
    assert missing == []
