"""Check that two source trees print the same bytes for the benchmark's
requests.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
The requests are the seed-1 request lists of the four workloads of
``perfbench/workloads.py`` (``closed_form``, ``explicit_sim``,
``short_calls`` and ``known_failures``), plus ``verify`` and ``verify
--negative-control``, each in CSV and JSON, ``verify --seed S`` for
S = 0 to 4 in CSV, whose random layouts differ by seed, and six sampled
requests that write ``--transcript``: ``prepare`` at N = 2, 3 and 5, and
at N = 7 with c0 = 0.8, whose window (2, 7) starts above block 0;
explicit ``extract`` at N = 3; and analytic ``extract`` of the
4-component state at N = 10**7, whose outcome ids pass int64. Four
refusals pin the messages of the readers that keep their own checks:
``rates --spec`` of the seed with one party and with a level-1
component, and ``extract --seed -1``, sampled and analytic: 63 in all.
Each request runs as a fresh ``python -m eprghz.cli ...`` process under
each tree, one after the other, in one scratch directory that holds the
``--spec`` files. Stdout, stderr, the exit code and the transcript
file's bytes must be equal.

Prints one line per request and exits 0 if all are equal; at the first
difference it names the request, shows both sides and exits 1. Exit 2
means the arguments are wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SEED = 1
WORKLOADS = ("closed_form", "explicit_sim", "short_calls", "known_failures")
VERIFY = [(f"verify{flag.replace(' --', '_')}_{fmt}",
           ("verify", *flag.split(), "--format", fmt))
          for flag in ("", " --negative-control") for fmt in ("csv", "json")]
VERIFY += [(f"verify_seed{s}_csv", ("verify", "--seed", str(s)))
           for s in range(5)]
PSI = ("--psi", "0.6", "0.8")
TRANSCRIPTS = [
    ("prepare_2_transcript",
     ("prepare", *PSI, "-N", "2", "--trials", "2000", "--seed", "1")),
    ("prepare_3_transcript",
     ("prepare", *PSI, "-N", "3", "--trials", "200", "--seed", "1")),
    ("prepare_5_transcript",
     ("prepare", *PSI, "-N", "5", "--trials", "40", "--seed", "2")),
    ("prepare_7_window_2_transcript",
     ("prepare", "--psi", "0.8", "0.6", "-N", "7", "--trials", "3",
      "--seed", "2")),
    ("extract_3_transcript",
     ("extract", *PSI, "-N", "3", "--trials", "500", "--seed", "1")),
    ("extract_analytic_1e7_transcript",
     ("extract", "--psi-prime", "0.6", "0.5", "0.4", "0.4795831523312719",
      "-N", "10000000", "--analytic", "--trials", "4", "--seed", "1")),
]

BAD_SEED = ("extract", *PSI, "-N", "2", "--trials", "3", "--seed", "-1")
# the party count and pair level of the seed's --spec object, one of
# them out of range
BAD_SPECS = {"one_party": (1, 2), "level_1": (3, 1)}


def refusals(work: Path) -> list[tuple[str, tuple[str, ...]]]:
    """The refusal requests; writes their ``--spec`` files into ``work``."""
    reqs = []
    for name, (m, level) in BAD_SPECS.items():
        doc = {"m": m, "components": [
            {"c": 0.6, "support": [0]},
            {"c": 0.8, "support": [1, 2], "level": level}]}
        path = work / f"spec_{name}.json"
        path.write_text(json.dumps(doc))
        reqs.append((f"rates_spec_{name}", ("rates", "--spec", str(path))))
    return reqs + [("extract_seed_-1", BAD_SEED),
                   ("extract_analytic_seed_-1", (*BAD_SEED, "--analytic"))]


def requests(work: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every request, the workloads' first."""
    reqs = [(f"{w}/{r.name}", r.argv) for w in WORKLOADS
            for r in workloads.build(w, SEED, work)]
    transcript = str(work / "transcript.tsv")
    return reqs + VERIFY + [(name, (*argv, "--transcript", transcript))
                            for name, argv in TRANSCRIPTS] + refusals(work)


def run(src: Path, argv, work: Path) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the ``--transcript`` file's bytes
    (None if none was written; the file is removed after it is read)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "eprghz.cli", *argv],
                          cwd=work, env=env, capture_output=True, text=True)
    transcript = None
    if "--transcript" in argv:
        path = Path(argv[argv.index("--transcript") + 1])
        transcript = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr, transcript


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a, "eprghz").is_dir() for a in args):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        print("each argument must be a src directory holding eprghz/",
              file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        reqs = requests(work)
        for name, req in reqs:
            want, got = run(parent, req, work), run(change, req, work)
            if want != got:
                print(f"DIFFERENT {name}: {' '.join(req)}")
                for side, (code, out, err, transcript) in (("parent", want),
                                                           ("change", got)):
                    print(f"--- {side}: exit {code}\n{out}--- {side} "
                          f"stderr\n{err}", end="")
                    if transcript is not None:
                        print(f"--- {side} transcript: {len(transcript)} "
                              "bytes")
                return 1
            print(f"same {name} (exit {want[0]})")
    print(f"all {len(reqs)} requests identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
