"""Traced launcher: run one ``eprghz`` CLI request with every public
function of the package wrapped in a timing span.

    PYTHONPATH=src python perfbench/launcher.py TRACE.npz REQUEST_ID -- ARGS...

runs ``eprghz.cli.main(ARGS)`` and exits with its code. Nothing under
``src/`` changes: the wrappers are installed from outside, in every
``eprghz.*`` namespace that binds a function (the CLI and the preparation
module use from-imports, so rebinding the defining module alone would miss
their calls). Generator functions are left unwrapped, because their span
would cover only the creation of the generator.

Spans (name, start, end, parent, request id) and counters stay in memory
and are written to TRACE.npz at exit, also when the request raises.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time

MODULES = ("hilbert", "canonical", "locc", "blocks", "extraction",
           "preparation", "cli")


class Tracer:
    """In-memory span and counter store for one request."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array.array("q")
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._next = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)`` and ``after(result)``
        may update counters."""
        name_id = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        ids, name_ids, parents = self.ids, self.name_ids, self.parents
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            if before is not None:
                before(args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids.append(sid)
                name_ids.append(name_id)
                parents.append(parent)
                starts.append(t0)
                ends.append(t1)
            if after is not None:
                after(result)
            return result

        return traced

    def write(self, path: str) -> None:
        import numpy as np

        meta = {"request_id": self.request_id, "names": self.names,
                "counters": self.counters}
        np.savez(path, ids=np.frombuffer(self.ids, dtype=np.int64),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int64),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64),
                 meta=np.array(json.dumps(meta)))


def _hooks(tracer: Tracer, name: str):
    """Counters recorded at specific boundaries: (before, after)."""
    if name == "canonical.copies":
        return None, lambda s: tracer.count(
            "canonical.copies.terms", len(s.amplitudes))
    if name == "locc.sample":
        return lambda a: tracer.count(
            "locc.sample.outcomes_evaluated", len(a[1].elements)), None
    return None, None


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the package modules, and
    ``PureState.__post_init__``, wherever an ``eprghz`` namespace binds
    them."""
    import eprghz

    wrapped = {}
    for short in MODULES:
        mod = sys.modules[f"eprghz.{short}"]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            name = f"{short}.{attr}"
            wrapped[id(obj)] = tracer.span(name, obj, *_hooks(tracer, name))
    for modname, mod in list(sys.modules.items()):
        if modname != "eprghz" and not modname.startswith("eprghz."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    cls = eprghz.hilbert.PureState
    cls.__post_init__ = tracer.span(
        "hilbert.PureState.init", cls.__post_init__,
        before=lambda a: tracer.count("hilbert.PureState.init.terms",
                                      len(a[0].amplitudes)))


def main() -> int:
    trace_path, request_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py TRACE.npz REQUEST_ID -- ARGS...")
    tracer = Tracer(request_id)
    try:
        load = tracer.span("cli.import", lambda: __import__("eprghz.cli"))
        load()
        install(tracer)
        return sys.modules["eprghz.cli"].main(cli_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
