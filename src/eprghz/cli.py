"""Command-line surface: reproducible tables for rates, extraction,
preparation, fidelity sweeps, block decompositions, and invariant checks.

Exit codes: 0 success, 1 invariant failure, 2 usage or input error. Output
is CSV (default) or JSON; identical configuration and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .hilbert import NORM_TOL, BudgetError, _check_budget, amplitude_distance
from .canonical import (StateSpec, copies, psi, psi_spec, psi_prime_spec,
                        random_spec, spec_draws, spec_from_json)
from .locc import (ImpossibleOutcomeError, Povm, Transcript,
                   check_completeness, check_local_orthogonality,
                   stream_uniforms)
from .blocks import decompose, verify_block_equivalence
from .extraction import (asymptotic_rates, block_measurement_povm,
                         entropy_consistency, expected_means, run_extraction)
from .preparation import (_check_terms, _protocol, _window_shape,
                          build_target, fidelity, fidelity_bound,
                          ghz_weighting_povm, resource_count,
                          row_shorten_povm, target_window)

EXIT_OK, EXIT_INVARIANT, EXIT_USAGE = 0, 1, 2
AMPLITUDE_SLOP = 1e-3
# tables and transcripts are written this many rows at a time
_ROW_CHUNK = 2**12
# prepare forms at most this many stage draws of its branches at a time
_BRANCH_DRAWS = 2**16


class UsageError(Exception):
    """Bad flags or malformed state input (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """Raises every argparse refusal as a UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse takes only -5 and -0.5 for negative numbers, so -6e-1 or
        # -inf would end --psi as an unknown flag: whatever float() reads
        # is a value, and the amplitude checks refuse it with their message
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _at_least(lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"must be >= {lowest}, got {value}")
        return value
    return parse


def _letters(subset) -> str:
    return "".join(chr(ord("A") + p) for p in subset)


def _write_rows(fh, header, formats, columns, fmt) -> None:
    """Write a table to ``fh`` from its columns, numpy arrays or sequences
    of one length, ``_ROW_CHUNK`` rows at a time: only one chunk of each
    column is sliced and turned into Python objects at once.

    CSV (or TSV, ``fmt`` "tsv") fills one %-template per row, joined from
    ``formats`` (one per column); %.17g spells a float as format(x,
    ".17g") does, and %.0s prints nothing of its cell, leaving it empty or
    to a literal beside it. JSON lists one object per row: each chunk's
    ``json.dumps`` less its brackets, so the text equals one ``dumps`` of
    every row."""
    rows = len(columns[0])
    sep = "\t" if fmt == "tsv" else ","
    template = sep.join(formats) + "\n"
    fh.write("[" if fmt == "json" else sep.join(header) + "\n")
    for start in range(0, rows, _ROW_CHUNK):
        chunk = zip(*(c[start:start + _ROW_CHUNK].tolist()
                      if isinstance(c, np.ndarray)
                      else c[start:start + _ROW_CHUNK] for c in columns))
        if fmt == "json":
            text = json.dumps([dict(zip(header, row)) for row in chunk],
                              indent=2, sort_keys=True)
            fh.write(("\n" if start == 0 else ",\n") + text[2:-2])
        else:
            fh.write("".join(template % row for row in chunk))
    if fmt == "json":
        fh.write("\n]\n" if rows else "]\n")


def _emit_table(header, formats, columns, args) -> None:
    """Write a table to ``--out`` or stdout in ``--format``."""
    if args.out:
        with open(args.out, "w") as fh:
            _write_rows(fh, header, formats, columns, args.format)
    else:
        _write_rows(sys.stdout, header, formats, columns, args.format)


def _write_transcript(transcript: Transcript | None, args) -> None:
    """``Transcript.to_text`` written in row chunks."""
    if args.transcript:
        with open(args.transcript, "w") as fh:
            _write_rows(fh, ("step", "party", "outcome", "probability"),
                        ("%s", "%d", "%d", "%.17g"),
                        [transcript.column(i) for i in range(4)], "tsv")


def _renormalize(cs) -> tuple[float, ...]:
    """Accept amplitudes with small rounding slop; reject real mismatches.

    Truncated decimals like 0.7071 are renormalized (noted on stderr, never
    silently); anything off by more than 1e-3 in squared sum, or not
    finite (NaN passes every comparison), is an error.
    """
    cs = [float(c) for c in cs]
    if not all(map(math.isfinite, cs)):
        raise UsageError(f"amplitudes must be finite, got {cs}")
    if any(c < 0 for c in cs):
        raise UsageError(f"amplitudes must be non-negative, got {cs}")
    s = sum(c * c for c in cs)
    if abs(s - 1.0) > AMPLITUDE_SLOP:
        raise UsageError(f"squared amplitudes sum to {s:.6g}, not 1")
    if abs(s - 1.0) > NORM_TOL:
        print(f"note: renormalizing amplitudes (squared sum {s:.9g})",
              file=sys.stderr)
        r = math.sqrt(s)
        cs = [c / r for c in cs]
    return tuple(cs)


def _load_spec(args) -> StateSpec:
    try:
        if args.psi is not None:
            return psi_spec(*_renormalize(args.psi))
        if args.psi_prime is not None:
            return psi_prime_spec(*_renormalize(args.psi_prime))
        with open(args.spec) as fh:
            return spec_from_json(fh.read())
    except (ValueError, KeyError, TypeError, OSError) as e:
        raise UsageError(f"bad state specification: {e}")


def cmd_rates(args) -> int:
    spec = _load_spec(args)
    rates = asymptotic_rates(spec)
    full = tuple(range(spec.party_count))
    per = dict(rates.per_subset)
    full_rate = rates.full + per.pop(full, 0.0)
    rows = [(_letters(s), v) for s, v in sorted(per.items())]
    rows.append((_letters(full), full_rate))
    _emit_table(("subset", "rate"), ("%s", "%.17g"), list(zip(*rows)),
                args)
    return EXIT_OK


def cmd_extract(args) -> int:
    spec = _load_spec(args)
    n = args.n
    epr_means, ghz_mean = expected_means(spec, n)
    empirical, stderr, transcript = {}, {}, None
    full = tuple(range(spec.party_count))
    if args.trials > 0:
        report, transcript = run_extraction(spec, n, args.trials, args.seed,
                                            analytic=args.analytic)
        empirical = dict(report.epr_per_copy)
        stderr = {s: math.sqrt(v / report.trials)
                  for s, v in report.epr_variance.items()}
        empirical[full] = report.ghz_per_copy
        stderr[full] = math.sqrt(report.ghz_variance / report.trials)
    subsets = sorted(epr_means) + [full]
    means = {**epr_means, full: ghz_mean}
    sampled = "%.17g" if empirical else "%.0s"  # unsampled cells stay empty
    _write_transcript(transcript, args)
    _emit_table(("N", "subset", "expected", "empirical", "stderr"),
                ("%d", "%s", "%.17g", sampled, sampled),
                ([n] * len(subsets), [_letters(s) for s in subsets],
                 [means[s] for s in subsets],
                 [empirical.get(s) for s in subsets],
                 [stderr.get(s) for s in subsets]), args)
    return EXIT_OK


def cmd_prepare(args) -> int:
    c0, c1 = _renormalize(args.psi)
    n = args.n
    branches = _check_budget("preparation", "sampling trials",
                             args.trials if args.trials > 0 else 1)
    seed0 = 0 if args.seed is None else args.seed
    if n == 2:  # the exact protocol keeps every block
        _window_shape(args.alpha, args.beta)
        window = (0, 2)
    else:
        window = target_window(n, c0 * c0, args.alpha, args.beta)
        # refuse before the target or any branch state is built
        _check_terms(n, window, "windowed target")
    branch, stages, resources = _protocol(n, c0, c1, window)
    target = (copies(psi(c0, c1), 2) if n == 2
              else build_target(n, c0, c1, window))
    f = fidelity(n, c0 * c0, window)
    worst = 0.0
    combined = Transcript()
    # branch i draws the first doubles of spawned stream i of the seed,
    # formed for a chunk of branches at a time: a call per branch would
    # re-form the root pool and step one stream alone (0.33 ms for one
    # branch's 5 draws, about as much as one call for 20 branches, and
    # over 40% of a 0.76 ms N = 2 branch, timed on a 2-core Xeon), and one
    # call for every branch would hold branches * stages doubles at once
    chunk = max(1, _BRANCH_DRAWS // stages)
    for start in range(0, branches, chunk):
        keys = np.arange(start, min(start + chunk, branches))
        for i, draws in zip(keys.tolist(),
                            stream_uniforms(seed0, stages, keys)):
            state, columns = branch(draws)
            worst = max(worst, amplitude_distance(state, target))
            combined.extend(*columns, prefix=f"branch{i}.")
    ok = worst <= 1e-9
    row = (n, branches, worst, resources.epr_per_subset[(1, 2)],
           resources.ghz, f, ok)
    _write_transcript(combined, args)
    # ok is spelt in CSV as in JSON
    _emit_table(("N", "branches", "max_distance", "epr_BC", "ghz",
                 "fidelity", "ok"),
                ("%d", "%d", "%.17g", "%.17g", "%.17g", "%.17g",
                 "true%.0s" if ok else "false%.0s"),
                [(v,) for v in row], args)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_fidelity(args) -> int:
    c0, _ = _renormalize(args.psi)
    ns = args.n_sweep or [args.n]
    c0_sq = c0 * c0
    rows = []
    for n in ns:
        w = target_window(n, c0_sq, args.alpha, args.beta)
        rc = resource_count(n, w)
        rows.append((n, w.k_minus, w.k_plus,
                     fidelity(n, c0_sq, w),
                     fidelity_bound(n, args.alpha, args.beta),
                     rc.epr_per_subset[(1, 2)] / n, rc.ghz / n))
    _emit_table(("N", "k_minus", "k_plus", "F", "bound", "epr_per_copy",
                 "ghz_per_copy"), ("%d",) * 3 + ("%.17g",) * 4,
                list(zip(*rows)), args)
    return EXIT_OK


def cmd_blocks(args) -> int:
    d = decompose(_load_spec(args), args.n)
    ncomp = d.counts.shape[1]
    header = tuple(f"k{i}" for i in range(ncomp)) + (
        "coefficient", "multiplicity", "log2_probability")
    _emit_table(header, ("%d",) * ncomp + ("%.17g", "%d", "%.17g"),
                (*d.counts.T, d.coefficients, d.multiplicities,
                 d.log2_probabilities), args)
    lost = np.count_nonzero(d.coefficients < 2.0**-1022)
    if lost:
        print(f"note: {lost} coefficients are below 2**-1022, the smallest "
              "normal double: they lose digits or print as 0", file=sys.stderr)
    return EXIT_OK


def _verify_suites(args) -> list[tuple[str, bool]]:
    m = args.blocks_max_n
    # the sum of 3**n over n <= m; at least 3**m, finite for any m
    _check_budget(f"block equivalence up to N = {m}", "explicit terms",
                  lambda: (3**(m + 1) - 1) // 2, min(m, 10**300) * math.log2(3))
    # row i is spawned stream i of the seed, one per random input in the
    # order the suites read them: two random_spec pairs and 8 POVM weights
    draws = stream_uniforms(0 if args.seed is None else args.seed,
                            spec_draws(4), keys=range(5))
    d3 = spec_draws(3)
    results = []

    ok = all(verify_block_equivalence(n, k)
             for n in range(m + 1) for k in range(n + 1))
    results.append(("block_equivalence", ok))

    specs = [psi_spec(0.6, 0.8),
             psi_prime_spec(0.5, 0.5, 0.5, 0.5),
             psi_prime_spec(*np.sqrt((0.1, 0.2, 0.3, 0.4))),
             random_spec(3, draws[0, :d3]), random_spec(4, draws[1])]
    ok = all(check_local_orthogonality(
        [s.component_state(i) for i in range(len(s.components))])
        for s in specs)
    results.append(("local_orthogonality", ok))

    w = draws[2, :8] + 0.1
    stages = [ghz_weighting_povm(lam) for lam in (
        [1.0], (0.64, 0.48, 0.48, 0.36), np.full(5, 1.0 / math.sqrt(5.0)),
        w / np.linalg.norm(w))]
    stages += [row_shorten_povm(range(4 * g, 4 * g + 4), keep, dim=16)
               for g, keep in enumerate((4, 2, 2, 1))]
    checks = [check_completeness(povm) for povm, _ in stages]
    block_povm, _ = block_measurement_povm(psi_spec(0.6, 0.8), 3)
    checks.append(check_completeness(block_povm))
    if args.negative_control:
        broken = Povm(block_povm.party, block_povm.elements[:-1])
        checks.append(check_completeness(broken))
    results.append(("povm_completeness", all(checks)))

    specs = [psi_spec(0.6, 0.8), psi_spec(math.sqrt(0.5), math.sqrt(0.5)),
             psi_prime_spec(0.5, 0.5, 0.5, 0.5),
             psi_prime_spec(*np.sqrt((0.1, 0.2, 0.3, 0.4))),
             random_spec(3, draws[3, :d3]), random_spec(4, draws[4])]
    results.append(("entropy_consistency",
                    all(entropy_consistency(s) for s in specs)))
    return results


def cmd_verify(args) -> int:
    results = _verify_suites(args)
    _emit_table(("suite", "status"), ("%s", "%s"),
                ([name for name, _ in results],
                 ["pass" if ok else "fail" for _, ok in results]), args)
    return EXIT_OK if all(ok for _, ok in results) else EXIT_INVARIANT


COMMANDS = {
    "rates": cmd_rates,
    "extract": cmd_extract,
    "prepare": cmd_prepare,
    "fidelity": cmd_fidelity,
    "blocks": cmd_blocks,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, assembled from shared flag groups, so a
    flag that does not apply to a subcommand is refused."""
    copy_count = _at_least(1)
    psi_flag = dict(nargs=2, type=float, metavar=("C0", "C1"),
                    help="2-component seed amplitudes")
    copies_flag = dict(dest="n", type=copy_count, metavar="N",
                       help="number of copies")

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--psi", **psi_flag)
    group.add_argument("--psi-prime", nargs=4, type=float,
                       metavar=("C0", "C1", "C2", "C3"),
                       help="4-component generalization amplitudes")
    group.add_argument("--spec", metavar="FILE",
                       help="JSON component-list state file")
    seed_state = argparse.ArgumentParser(add_help=False)
    seed_state.add_argument("--psi", required=True, **psi_flag)
    copies = argparse.ArgumentParser(add_help=False)
    copies.add_argument("-N", "--copies", required=True, **copies_flag)
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--alpha", type=float, default=1.0,
                        help="window half-width scale (default 1)")
    window.add_argument("--beta", type=float, default=0.6,
                        help="window half-width exponent (default 0.6)")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--trials", type=_at_least(0), default=0,
                          help="Monte-Carlo trials / protocol branches")
    sampling.add_argument("--seed", type=int,
                          help="root seed (required when --trials > 0)")
    sampling.add_argument("--transcript", metavar="FILE",
                          help="write measurement transcript here")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", metavar="FILE",
                        help="write the table here instead of stdout")

    parser = _Parser(
        prog="eprghz",
        description="Multipartite entanglement interconversion: block "
                    "decompositions, resource yields, and preparation "
                    "protocols for the shared-tripartite state family.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "rates": ("asymptotic canonical units per copy", [source, output]),
        "extract": ("finite-N expected and sampled yields",
                    [source, copies, sampling, output]),
        "prepare": ("run the preparation protocol and verify its output",
                    [seed_state, copies, window, sampling, output]),
        "fidelity": ("windowed-target fidelity and resource sweep",
                     [seed_state, window, output]),
        "blocks": ("block decomposition table of the N-copy power",
                   [source, copies, output]),
        "verify": ("run the invariant suites", [output]),
    }
    subs = {name: sub.add_parser(name, help=desc, parents=parents)
            for name, (desc, parents) in commands.items()}

    subs["extract"].add_argument(
        "--analytic", action="store_true",
        help="sample block indices directly (any N)")
    sweep = subs["fidelity"].add_mutually_exclusive_group(required=True)
    sweep.add_argument("-N", "--copies", **copies_flag)
    sweep.add_argument("--n-sweep", metavar="N1,N2,...",
                       type=lambda s: [copy_count(x) for x in s.split(",")],
                       help="comma-separated copy counts")
    verify = subs["verify"]
    verify.add_argument("--blocks-max-n", type=_at_least(0), default=8,
                        help="largest N for block equivalence (default 8)")
    verify.add_argument("--negative-control", action="store_true",
                        help="inject a broken measurement; the "
                             "completeness suite must then fail")
    verify.add_argument("--seed", type=int,
                        help="seed of the random test layouts (default 0)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "trials", 0) > 0 and args.seed is None:
            raise UsageError("--seed is required when --trials > 0")
        if args.command == "extract" and args.transcript and not args.trials:
            raise UsageError("--transcript needs a sampling run (--trials > 0)")
        return COMMANDS[args.command](args)
    except (UsageError, BudgetError, ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print("error: out of memory" + (f": {e}" if str(e) else ""),
              file=sys.stderr)
        return EXIT_USAGE
    except ImpossibleOutcomeError as e:  # a forced zero-probability branch
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
