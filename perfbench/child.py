"""Run one CLI request in a fresh process under child-only limits.

The address-space cap and the deadline apply to the child alone: the cap
is set with ``setrlimit`` between fork and exec, and the deadline is a
timer that kills the child's process group. Wall time runs from just
before the fork to the return of ``wait4``, which also yields the child's
peak RSS.

Requests are forked by a small helper process, this file run as a script,
and not by the benchmark itself. On Linux the peak RSS that ``wait4``
reports for a child starts from the RSS its parent had at the fork. The
benchmark holds numpy and scipy for its oracle, about 70 MB, which would
hide every request smaller than that; the helper imports only the standard
library. The benchmark sends the helper one JSON line per request and
reads one back.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Outcome:
    wall_s: float
    exit_code: int | None
    peak_rss_mb: float
    killed: bool
    stdout: str
    stderr: str


class Spawner:
    """The helper process; use as a context manager, so that it is always
    stopped and waited for."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], *, cwd: Path, env: dict,
            deadline_s: float, cap_bytes: int, out_dir: Path) -> Outcome:
        """Run ``argv`` to completion or until ``deadline_s`` has passed."""
        out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
        job = dict(argv=argv, cwd=str(cwd), env=env, deadline_s=deadline_s,
                   cap_bytes=cap_bytes, out=str(out_path), err=str(err_path))
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the request helper exited")
        reply = json.loads(line)
        return Outcome(
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"), **reply)


def _cap_address_space(cap_bytes: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
    return apply


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run(argv, cwd, env, deadline_s, cap_bytes, out, err) -> dict:
    with open(out, "wb") as out_f, open(err, "wb") as err_f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out_f,
                                stderr=err_f, start_new_session=True,
                                preexec_fn=_cap_address_space(cap_bytes))
        killed = threading.Event()

        def on_deadline():
            killed.set()
            _kill_group(proc.pid)

        timer = threading.Timer(deadline_s, on_deadline)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
    code = os.waitstatus_to_exitcode(status)
    # the child is reaped here; tell Popen so that it does not wait again
    proc.returncode = code
    return dict(wall_s=wall,
                exit_code=None if killed.is_set() else code,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                killed=killed.is_set())


def _serve() -> None:
    for line in sys.stdin:
        reply = _run(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
