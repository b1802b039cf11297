"""The traced benchmark launcher runs a request and records its counters.

``perfbench/launcher.py`` wraps the package from outside and counts state
sizes through ``len(state.amplitudes)``, also before
``PureState.__post_init__`` runs; a change of the state layout that broke
that hook would pass every other test and break every traced run.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


INIT, COPIES = "hilbert.PureState.init.terms", "canonical.copies.terms"


@pytest.mark.parametrize("argv,counters", [
    (["prepare", "--psi", "0.6", "0.8", "-N", "3", "--seed", "1"], [INIT]),
    (["extract", "--psi", "0.6", "0.8", "-N", "3", "--trials", "5",
      "--seed", "1"], [INIT, COPIES]),
], ids=["prepare", "extract"])
def test_traced_launcher_counts_state_terms(tmp_path, argv, counters):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    trace = tmp_path / "trace.npz"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launcher.py"), str(trace),
         "r", "--", *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    totals = _layers().read(trace)
    assert all(totals[name] > 0 for name in counters), totals
