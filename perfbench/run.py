"""Outside-in benchmark of the ``eprghz`` command line.

    python3 perfbench/run.py --workload closed_form --seed 1 \
        --seconds 32 --trace 0

Every request is a fresh ``python -m eprghz.cli ...`` process with ``src``
on ``PYTHONPATH``, run in a closed loop with one client: the next request
starts when the previous one has exited. Each request runs under a 2 GiB
address-space cap and a deadline, both set on the child only. A request
fails on a non-zero exit, a traceback, a kill at its deadline, hitting
the cap, or an output the oracle rejects; a failed request is charged its
deadline as wall time and the cap as memory.

Every timed process is bracketed by a fixed calibration loop run in this
process, and its wall time is reported at reference speed: multiplied by
``CAL_REF_S`` over the loop's time around it. The machine this was built on
ran the same request 30% faster or slower for minutes at a time, in step
with the loop; the scaled times follow the program, not those phases.

The run repeats whole passes over the workload's requests until the next
pass would end after ``--seconds``, but makes at least two passes, and as
many as the tail percentile needs. With ``--trace 1`` every request runs twice per pass,
plain and then through ``launcher.py``, and the run reports per-layer
figures from the traced spans plus the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import child
import layers
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CAP_MB = workloads.MEMORY_CAP_BYTES / 1024**2
SETUP_SAMPLES = 5
SETUP_DEADLINE_S = 20.0
TRACE_DEADLINE_FACTOR = 1.5
TAIL_BEYOND = 10
# plain runs repeat every request at least this often, so that each
# request's median comes from more than one point in time
MIN_PASSES = 2
# past this much run time, remaining requests are charged, not run, so a
# run where everything hits its deadline still ends within 180 s
RUN_BUDGET_S = 140.0
WARMUP_ARGV = ("rates", "--psi", "0.6", "0.8")
# typical time of ``calibrate`` on the machine the baseline was measured
# on; it only sets the scale of the reported times
CAL_REF_S = 0.04
CAL_REPS = 2


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 1)."""


@dataclass
class Sample:
    """One executed request, with failures already charged."""

    name: str
    wall_s: float
    time_s: float
    rss_mb: float
    failure: str | None
    rejected: bool


def calibrate() -> float:
    """Time of a fixed piece of interpreter work, about 40 ms: integer
    arithmetic, then dict inserts and a sort over a few MB."""
    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    d = {}
    for i in range(100_000):
        d[i * 7919 % 1_000_003] = i
    sorted(d)
    return time.perf_counter() - t0


class Runner:
    def __init__(self, spawner: child.Spawner, work: Path, started: float):
        self.spawner = spawner
        self.work = work
        self.started = started
        # one BLAS thread: otherwise start-up time depends on whether the
        # second core happens to be free, which swings it by a third
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.traces = 0
        calibrate()  # the first call also allocates; it is not used
        self.cal_s = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        return statistics.fmean(calibrate() for _ in range(CAL_REPS))

    def _run(self, argv, deadline_s) -> tuple[child.Outcome, float]:
        """The outcome, and its wall time at reference speed: scaled by the
        calibration times just before and just after the process."""
        before = self.cal_s
        o = self.spawner.run(argv, cwd=ROOT, env=self.env,
                             deadline_s=deadline_s,
                             cap_bytes=workloads.MEMORY_CAP_BYTES,
                             out_dir=self.work)
        self.cal_s = self._calibrate()
        return o, o.wall_s * CAL_REF_S / ((before + self.cal_s) / 2)

    def setup_times(self) -> list[float]:
        """Untimed warm-up request, then fresh-interpreter imports."""
        o, _ = self._run([sys.executable, "-m", "eprghz.cli", *WARMUP_ARGV],
                         SETUP_DEADLINE_S)
        if o.exit_code != 0:
            raise BenchError(f"warm-up request failed: {o.stderr.strip()}")
        times = []
        for _ in range(SETUP_SAMPLES):
            o, t = self._run([sys.executable, "-c", "import eprghz.cli"],
                             SETUP_DEADLINE_S)
            if o.exit_code != 0:
                raise BenchError(
                    f"import eprghz.cli failed: {o.stderr.strip()}")
            times.append(t)
        return times

    def request(self, req: workloads.Request, traced: bool
                ) -> tuple[Sample, Counter | None]:
        deadline = req.deadline_s * (TRACE_DEADLINE_FACTOR if traced else 1)
        if time.perf_counter() - self.started > RUN_BUDGET_S:
            return Sample(req.name, deadline, deadline, CAP_MB,
                          "not run: run budget spent", False), None
        if traced:
            self.traces += 1
            trace = self.work / f"trace{self.traces}.npz"
            argv = [sys.executable, str(HERE / "launcher.py"), str(trace),
                    f"{req.name}#{self.traces}", "--", *req.argv]
        else:
            argv = [sys.executable, "-m", "eprghz.cli", *req.argv]
        o, t = self._run(argv, deadline)
        failure = _failure(o)
        rejected = False
        if failure is None:
            why = oracle.check(req, o.stdout)
            if why is not None:
                failure, rejected = f"oracle: {why}", True
        spans = None
        if traced and trace.exists():
            spans = layers.read(trace)
            trace.unlink()
        if failure is not None:
            return Sample(req.name, deadline, deadline, CAP_MB, failure,
                          rejected), spans
        return Sample(req.name, o.wall_s, t, o.peak_rss_mb, None,
                      False), spans


def _failure(o: child.Outcome) -> str | None:
    if o.killed:
        return "deadline"
    if "MemoryError" in o.stderr:
        return "memory cap"
    if "Traceback" in o.stderr:
        return f"traceback, exit {o.exit_code}"
    if o.exit_code != 0:
        return f"exit {o.exit_code}"
    return None


def min_passes(per_pass: int, traced: bool) -> int:
    """Traced runs need one pass; plain runs need ``MIN_PASSES`` and
    ``TAIL_BEYOND`` + 1 requests for the tail percentile."""
    if traced:
        return 1
    return max(MIN_PASSES, math.ceil((TAIL_BEYOND + 1) / per_pass))


def tail_percentile(per_pass: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` requests beyond
    it in the fewest passes a plain run makes. Fixed per workload, so that
    runs with different pass counts report the same percentile."""
    n = min_passes(per_pass, False) * per_pass
    return (n - TAIL_BEYOND) / n


def run_passes(runner: Runner, reqs, seconds: float, traced: bool):
    """Whole passes, at least ``min_passes``, until the next one is expected
    to end after ``seconds``. Returns per-pass lists of plain samples and
    traced samples, and per-pass summed span figures."""
    plain, traced_samples, spans = [], [], []
    t0 = time.perf_counter()
    while True:
        p, t, s = [], [], Counter()
        for req in reqs:
            p.append(runner.request(req, False)[0])
            if traced:
                sample, counts = runner.request(req, True)
                t.append(sample)
                s.update(counts or {})
        plain.append(p)
        traced_samples.append(t)
        spans.append(s)
        done = len(plain)
        elapsed = time.perf_counter() - t0
        if (done >= min_passes(len(reqs), traced)
                and elapsed * (done + 1) / done > seconds):
            return plain, traced_samples, spans


def _by_name(passes, value) -> dict[str, list[float]]:
    by_request = defaultdict(list)
    for p in passes:
        for s in p:
            by_request[s.name].append(value(s))
    return by_request


def request_medians(passes) -> list[float]:
    """Each request's median time at reference speed over the passes."""
    return [statistics.median(v)
            for v in _by_name(passes, lambda s: s.time_s).values()]


def pass_time(passes) -> float:
    """One pass, as the sum over requests of each request's median."""
    return sum(request_medians(passes))


def request_distribution(passes, per_pass) -> list[float]:
    """Per-request wall times as the fewest passes of a plain run would give
    them, with each request at its median over all passes: a sample of
    fixed size, so that the percentiles taken from it do not jump from one
    request to another as single samples of neighbouring requests swap
    places."""
    reps = min_passes(per_pass, False)
    return sorted(m for m in request_medians(passes) for _ in range(reps))


def end_to_end(setup, passes, per_pass) -> tuple[dict, list[str]]:
    pooled = [s for p in passes for s in p]
    walls = request_distribution(passes, per_pass)
    q = tail_percentile(per_pass)
    ok_rss = [s.rss_mb for s in pooled if s.failure is None]
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_time(passes),
        "req_p50_s": statistics.median(walls),
        "req_tail_s": walls[math.ceil(q * len(walls)) - 1],
        "peak_rss_mb": max(ok_rss) if ok_rss else CAP_MB,
        "req_rss_mean_mb": statistics.fmean(s.rss_mb for s in pooled),
    }
    failed = sum(s.failure is not None for s in pooled)
    raw_pass = sum(statistics.median(v) for v in _by_name(
        passes, lambda s: s.wall_s).values())
    notes = [
        f"times are at reference speed; one pass took {raw_pass:.3f} s "
        f"of wall time (sum of per-request medians)",
        f"setup_s: median of {len(setup)} fresh `import eprghz.cli` "
        f"processes: {' '.join(f'{t:.3f}' for t in setup)}",
        f"pass_s: sum of per-request medians over {len(passes)} pass(es) "
        f"of {per_pass} requests",
        f"req_p50_s, req_tail_s: over {len(walls)} request times (each "
        f"request at its median over {len(passes)} pass(es)); the tail is "
        f"p{100 * q:.1f}",
        f"fail_ratio: {failed}/{len(pooled)} = {failed / len(pooled):.4f}",
    ]
    return values, notes


def per_layer(names, plain, traced, spans) -> dict:
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = pass_time(traced) - pass_time(plain)
        else:
            values[name] = statistics.median(
                layers.metric(name, s) for s in spans)
    return values


def _request_table(passes) -> list[str]:
    rows = defaultdict(list)
    for p in passes:
        for s in p:
            rows[s.name].append(s)
    lines = [f"{'request':34s} {'runs':>4s} {'median_s':>9s} "
             f"{'wall_s':>9s} {'max_rss_mb':>10s}  status"]
    for name, samples in rows.items():
        bad = [s.failure for s in samples if s.failure]
        lines.append(
            f"{name:34s} {len(samples):4d} "
            f"{statistics.median(s.time_s for s in samples):9.3f} "
            f"{statistics.median(s.wall_s for s in samples):9.3f} "
            f"{max(s.rss_mb for s in samples):10.1f}  "
            f"{'ok' if not bad else 'FAIL: ' + bad[0]}")
    return lines


def _module_shares(values) -> str:
    mods = {k: v for k, v in values.items()
            if k.count(".") == 1 and k.endswith(".self_s")}
    mods["cli.import_s"] = values.get("cli.import_s", 0.0)
    order = sorted(mods, key=mods.get, reverse=True)
    return "largest self time: " + ", ".join(
        f"{k}={mods[k]:.3f}" for k in order)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "eprghz" / "cli.py").is_file():
        raise BenchError(f"no eprghz sources under {ROOT / 'src'}")
    spec = json.loads(spec_path.read_text())
    work = (ROOT / ".perfbench-work"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    work.mkdir(parents=True)
    try:
        with child.Spawner() as spawner:
            runner = Runner(spawner, work, time.perf_counter())
            reqs = workloads.build(args.workload, args.seed, work)
            setup = runner.setup_times()
            traced = bool(args.trace)
            plain, traced_samples, spans = run_passes(
                runner, reqs, args.seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for line in _request_table(plain):
        print(line)
    e2e, notes = end_to_end(setup, plain, len(reqs))
    for line in notes:
        print(line)
    executed = [s for p in plain + traced_samples for s in p]
    if traced:
        for line in _request_table(traced_samples):
            print("traced " + line)
        declared = spec["per_layer"]
        values = per_layer([m["name"] for m in declared], plain,
                           traced_samples, spans)
        print(_module_shares(values))
    else:
        declared = spec["end_to_end"]
        missing = {m["name"] for m in declared} ^ set(e2e)
        if missing:
            raise BenchError(
                f"metrics not computed or not declared: {missing}")
        values = e2e
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40s} {values[m['name']]:14.6f} {m['unit']}")
    result = {
        "correct": not any(s.rejected for s in executed),
        "attempted": len(executed),
        "failed": sum(s.failure is not None for s in executed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
