"""Per-layer figures from the span files the traced launcher writes.

A span's self time is its duration minus the durations of its child
spans. Metric names map onto spans by rule:

- ``<module>.self_s``: self time of every span of that module;
- ``<module>.<function>.self_s``: self time of that function's spans;
- ``cli.import_s``: duration of the ``import eprghz.cli`` span;
- ``<module>.<function>.calls``: number of spans of that function;
- ``locc.outcome_use_ratio``: ``locc.sample`` calls (one outcome drawn
  each) per outcome whose probability was evaluated;
- any other name: a counter recorded by the launcher.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

# counters the launcher records; absent when their boundary never ran
COUNTERS = ("hilbert.PureState.init.terms", "canonical.copies.terms",
            "locc.sample.outcomes_evaluated")


def read(path) -> Counter:
    """Self time per span name (``<name>.self_s``), span count per name
    (``<name>.calls``) and every counter, for one traced request."""
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        ids, name_ids = z["ids"], z["name_ids"]
        parents, dur = z["parents"], z["ends"] - z["starts"]
    n, k = len(ids), len(meta["names"])
    by_id = np.empty(n)
    by_id[ids] = dur
    parent = np.empty(n, dtype=np.int64)
    parent[ids] = parents
    name = np.empty(n, dtype=np.int64)
    name[ids] = name_ids
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=by_id[nested], minlength=n)
    own = np.bincount(name, weights=by_id - child, minlength=k)
    calls = np.bincount(name, minlength=k)
    out = Counter(meta["counters"])
    for i, nm in enumerate(meta["names"]):
        out[f"{nm}.self_s"] += float(own[i])
        out[f"{nm}.calls"] += int(calls[i])
    return out


def metric(name: str, totals: Counter) -> float:
    """The value of per-layer metric ``name`` from summed ``read`` output."""
    if name == "cli.import_s":
        return totals["cli.import.self_s"]
    if name == "locc.outcome_use_ratio":
        evaluated = totals["locc.sample.outcomes_evaluated"]
        return totals["locc.sample.calls"] / evaluated if evaluated else 0.0
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_s":
        prefix = parts[0] + "."
        return sum(v for key, v in totals.items()
                   if key.startswith(prefix) and key.endswith(".self_s"))
    if name not in totals and name not in COUNTERS:
        raise KeyError(f"no span or counter behind per-layer metric {name}")
    return totals[name]
