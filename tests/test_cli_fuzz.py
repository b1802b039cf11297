"""Hypothesis sweep of the command line, one fresh process per request.

Every request must exit 0 (or 1 under ``--negative-control``) or be
refused with exit 2 and exactly one ``error:`` line; none may end in a
traceback or print a warning, and a request with a NaN or infinite
amplitude must be refused. Each child runs under an address-space limit set in the child
only, so a request that would outgrow it fails with MemoryError (exit 2)
rather than taking the machine's memory.

N is drawn per subcommand from the sizes that finish in about a second
and from sizes far past every budget (up to 10**400): requests that are
accepted but slow, such as ``prepare -N 9`` or ``extract --analytic -N
1e14``, are not what this sweep checks.
"""

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 1 << 30


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(argv, spec_text=None):
    """Exit code and stderr of ``python -m eprghz.cli argv``; "SPEC" in
    argv names a file holding ``spec_text``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(spec_text or "")
        argv = [str(spec) if a == "SPEC" else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "eprghz.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=tmp, preexec_fn=_limit_child, timeout=60)
    return proc.returncode, proc.stderr


def _huge(low):
    """Sizes from ``low`` up, and the edges of float64 and int64."""
    return st.one_of(st.integers(low, 10**400), st.sampled_from(
        [2**53 + 1, 2**63 - 1, 2**63, 2**64, 10**308, 10**309]))


def _number(x):
    return repr(x) if isinstance(x, float) else str(x)


# any float, or a unit vector's entry (which the CLI accepts)
any_float = st.floats(allow_nan=True, allow_infinity=True)
non_finite = st.sampled_from([math.nan, math.inf])


@st.composite
def unit_vector(draw, size):
    """Any floats, or a unit vector, which has one entry made NaN or
    infinite in half the draws: that alone must get it refused."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                            max_size=size))
    if draw(st.booleans()) or not sum(weights):
        return draw(st.lists(any_float, min_size=size, max_size=size))
    vec = [math.sqrt(w / sum(weights)) for w in weights]
    if draw(st.booleans()):
        vec[draw(st.integers(0, size - 1))] = draw(non_finite)
    return vec


@st.composite
def spec_file(draw):
    """JSON spec text: a well-formed family member most of the time,
    otherwise broken values, shapes or syntax."""
    kind = draw(st.sampled_from(["valid", "valid", "valid", "raw", "text"]))
    if kind == "text":
        return draw(st.text(max_size=30))
    m = draw(st.integers(2, 5) if kind == "valid" else st.integers(-1, 7))
    count = draw(st.integers(1, 4))
    coeffs = (draw(unit_vector(count)) if kind == "valid"
              else draw(st.lists(any_float, min_size=count, max_size=count)))
    comps = []
    for c in coeffs:
        entry = {"c": c, "support": draw(st.lists(
            st.integers(0, m - 1) if kind == "valid" else st.integers(-1, 8),
            min_size=1, max_size=4, unique=True))}
        if draw(st.booleans()):
            entry["level"] = draw(st.one_of(st.integers(2, 4),
                                            st.integers(-2, 10**12)))
        comps.append(entry)
    return json.dumps({"m": m, "components": comps})


@st.composite
def source(draw):
    """A state flag and the spec text it needs (or None)."""
    kind = draw(st.sampled_from(["psi", "psi-prime", "spec"]))
    if kind == "spec":
        return ["--spec", "SPEC"], draw(spec_file())
    amps = draw(unit_vector(2 if kind == "psi" else 4))
    return [f"--{kind}", *map(_number, amps)], None


def window_flags(draw):
    flags = []
    for name in ("--alpha", "--beta"):
        if draw(st.booleans()):
            flags += [name, _number(draw(st.one_of(
                any_float, st.floats(0.3, 2.0))))]
    return flags


def sampling_flags(draw, trials=st.integers(0, 20)):
    t = draw(trials)
    return ["--trials", str(t), "--seed", str(draw(st.integers(0, 99)))]


@st.composite
def request(draw, command):
    """argv and spec text of one request of ``command``."""
    spec = None
    if command == "rates":
        argv, spec = draw(source())
    elif command == "blocks":
        argv, spec = draw(source())
        argv += ["-N", str(draw(st.one_of(st.integers(-1, 300),
                                          _huge(20000))))]
    elif command == "extract":
        argv, spec = draw(source())
        explicit = draw(st.booleans())
        n = draw(st.one_of(st.integers(-1, 7 if explicit else 10**9),
                           _huge(10**15)))
        argv += ["-N", str(n), *sampling_flags(draw)]
        if not explicit:
            argv.append("--analytic")
    elif command == "prepare":
        argv = ["--psi", *map(_number, draw(unit_vector(2)))]
        argv += ["-N", str(draw(st.one_of(st.integers(-1, 7),
                                          _huge(10**6))))]
        argv += window_flags(draw)
        if draw(st.booleans()):
            argv += sampling_flags(draw, st.integers(0, 2))
    elif command == "fidelity":
        argv = ["--psi", *map(_number, draw(unit_vector(2)))]
        ns = draw(st.lists(st.one_of(st.integers(-1, 10**10), _huge(10**15)),
                           min_size=1, max_size=3))
        argv += (["-N", str(ns[0])] if len(ns) == 1
                 else ["--n-sweep", ",".join(map(str, ns))])
        argv += window_flags(draw)
    else:
        argv = ["--blocks-max-n", str(draw(st.one_of(st.integers(-1, 9),
                                                     _huge(15))))]
        if draw(st.booleans()):
            argv.append("--negative-control")
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return [command, *argv], spec


def has_non_finite_amplitude(argv, spec) -> bool:
    """Whether the amplitudes after ``--psi`` or ``--psi-prime``, or the
    component coefficients of a spec file, hold a NaN or an infinity."""
    for flag, count in (("--psi", 2), ("--psi-prime", 4)):
        if flag in argv:
            at = argv.index(flag) + 1
            return not all(math.isfinite(float(x))
                           for x in argv[at:at + count])
    try:
        return any(isinstance(comp["c"], float)
                   and not math.isfinite(comp["c"])
                   for comp in json.loads(spec)["components"])
    except (ValueError, TypeError, KeyError):
        return False


COMMANDS = ("rates", "extract", "prepare", "fidelity", "blocks", "verify")


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, max_examples=8, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_request_exits_cleanly(command, data):
    argv, spec = data.draw(request(command))
    code, err = run_cli(argv, spec)
    assert "Traceback" not in err, (argv, spec, err)
    assert not any("Warning" in line for line in err.splitlines()), (
        argv, spec, err)
    if has_non_finite_amplitude(argv, spec):
        assert code == 2, (argv, spec, err)
    if "--negative-control" in argv and code != 2:
        assert code == 1, (argv, err)
    elif code:
        assert code == 2, (argv, spec, err)
        lines = err.splitlines()
        assert sum(line.startswith("error: ") for line in lines) == 1
        assert lines[-1].startswith("error: ")
