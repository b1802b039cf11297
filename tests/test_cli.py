"""End-to-end command-line behavior: tables, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import multinomial_exact, one_shot_table

from eprghz import cli, extraction, preparation
from eprghz.blocks import block_probability
from eprghz.canonical import psi_prime_spec, spec_to_json
from eprghz.cli import EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from eprghz.extraction import expected_yields
from eprghz.locc import Transcript, diagonal_operator
from eprghz.preparation import fidelity, fidelity_bound
from eprghz.canonical import psi_spec


LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- rates ---------------------------------------------------------------------

def test_rates_psi(capsys):
    code, out, _ = run(capsys, "rates", "--psi", "0.6", "0.8")
    assert code == EXIT_OK
    table = rows_of(out)
    assert [r["subset"] for r in table] == ["BC", "ABC"]
    assert float(table[0]["rate"]) == pytest.approx(0.64)
    assert float(table[1]["rate"]) == pytest.approx(0.9426831892554922,
                                                    abs=1e-12)


def test_rates_product_state(capsys):
    code, out, _ = run(capsys, "rates", "--psi", "1", "0")
    assert code == EXIT_OK
    assert rows_of(out) == [{"subset": "ABC", "rate": "0"}]


def test_rates_psi_prime_inline(capsys):
    code, out, _ = run(capsys, "rates", "--psi-prime",
                       "0.5", "0.5", "0.5", "0.5")
    assert code == EXIT_OK
    got = {r["subset"]: float(r["rate"]) for r in rows_of(out)}
    assert got == pytest.approx(
        {"AB": 0.25, "AC": 0.25, "BC": 0.25, "ABC": 2.0})


def test_rates_spec_file(capsys, tmp_path):
    path = tmp_path / "psi_prime_equal.json"
    path.write_text(spec_to_json(psi_prime_spec(0.5, 0.5, 0.5, 0.5)))
    code, out, _ = run(capsys, "rates", "--spec", str(path))
    assert code == EXIT_OK
    assert {r["subset"] for r in rows_of(out)} == {"AB", "AC", "BC", "ABC"}


def test_rates_json_format(capsys):
    code, out, _ = run(capsys, "rates", "--psi", "0.6", "0.8",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0]["subset"] == "BC"
    assert payload[0]["rate"] == pytest.approx(0.64)
    assert list(payload[0]) == sorted(payload[0])


def test_rates_and_extract_print_one_epr_number(capsys):
    # both form c_i**2 * log2(level) correctly rounded; a product of the
    # rounded factors lands an ulp lower on this level-3 pair
    spec = str(Path(__file__).parent / "golden" / "spec3.json")
    _, rates, _ = run(capsys, "rates", "--spec", spec)
    _, extract, _ = run(capsys, "extract", "--spec", spec, "-N", "5")
    rate = {r["subset"]: r["rate"] for r in rows_of(rates)}
    expected = {r["subset"]: r["expected"] for r in rows_of(extract)}
    assert rate["BC"] == expected["BC"] == "0.55473687525240467"


# -- extract -------------------------------------------------------------------

def test_extract_expected_only(capsys):
    code, out, _ = run(capsys, "extract", "--psi", "0.6", "0.8", "-N", "2")
    assert code == EXIT_OK
    table = rows_of(out)
    assert [r["subset"] for r in table] == ["BC", "ABC"]
    assert float(table[0]["expected"]) == pytest.approx(0.64)
    assert float(table[1]["expected"]) == pytest.approx(0.2304)
    assert table[0]["empirical"] == "" and table[0]["stderr"] == ""


def test_extract_expected_round_trips_17g(capsys):
    code, out, _ = run(capsys, "extract", "--psi", "0.6", "0.8", "-N", "2")
    want = expected_yields(psi_spec(0.6, 0.8), 2)
    table = rows_of(out)
    assert float(table[0]["expected"]) == want.epr_per_copy[(1, 2)]
    assert float(table[1]["expected"]) == want.ghz_per_copy


def test_extract_sampled(capsys):
    code, out, _ = run(capsys, "extract", "--psi", "0.6", "0.8", "-N", "2",
                       "--trials", "2000", "--seed", "7")
    assert code == EXIT_OK
    for row in rows_of(out):
        need = abs(float(row["empirical"]) - float(row["expected"]))
        assert need < 4 * float(row["stderr"])


def test_extract_byte_identical(capsys):
    argv = ("extract", "--psi", "0.6", "0.8", "-N", "3",
            "--trials", "500", "--seed", "9")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_extract_analytic_large_n(capsys):
    code, out, err = run(capsys, "extract", "--psi", "0.7071", "0.7071",
                         "-N", "10000", "--analytic",
                         "--trials", "16", "--seed", "3")
    assert code == EXIT_OK
    assert "renormalizing" in err
    table = rows_of(out)
    ghz = [r for r in table if r["subset"] == "ABC"][0]
    assert abs(float(ghz["empirical"]) - 1.0) < 0.01


def test_extract_spec_with_a_wide_level(capsys, tmp_path):
    """A level-5000 pair has local dimension 5001: the orthogonality check
    of the spec's components must not need a dense one-party density."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"m": 3, "components": [
        {"c": 0.6, "support": [0]},
        {"c": 0.8, "support": [1, 2], "level": 5000}]}))
    code, out, err = run(capsys, "extract", "--spec", str(path), "-N", "1",
                         "--trials", "5", "--seed", "1")
    assert (code, err) == (EXIT_OK, "")
    table = rows_of(out)
    assert [r["subset"] for r in table] == ["BC", "ABC"]
    assert float(table[0]["expected"]) == pytest.approx(0.64 * math.log2(5000))
    assert float(table[1]["expected"]) == 0.0


def test_extract_explicit_budget_refusal(capsys):
    code, _, err = run(capsys, "extract", "--psi", "0.6", "0.8", "-N", "16",
                       "--trials", "1", "--seed", "1")
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("source, spec", [
    (("--psi", "0.6", "0.8"), psi_spec(0.6, 0.8)),
    (("--psi-prime", "0.6", "0.5", "0.4", "0.4795831523312719"),
     psi_prime_spec(0.6, 0.5, 0.4, 0.4795831523312719)),
], ids=["2-components", "4-components"])
@pytest.mark.parametrize("sampling", [(), ("--analytic", "--trials", "5",
                                           "--seed", "1")])
def test_extract_runs_no_variance_pass(capsys, monkeypatch, source, spec,
                                       sampling):
    """extract prints the expected means and the sampled report: the
    variance pass of ``expected_yields`` is stubbed to fail."""
    def variances(*args):
        raise AssertionError("extract ran the variance pass")

    want = extraction.expected_means(spec, 6)
    monkeypatch.setattr(extraction, "_yield_variances", variances)
    code, out, err = run(capsys, "extract", *source, "-N", "6", *sampling)
    assert (code, err) == (EXIT_OK, "")
    table = rows_of(out)
    assert [float(r["expected"]) for r in table] == [
        *(v for _, v in sorted(want[0].items())), want[1]]
    assert all((r["empirical"] != "") == bool(sampling) for r in table)


def test_extract_writes_transcript(capsys, tmp_path):
    path = tmp_path / "t.tsv"
    code, _, _ = run(capsys, "extract", "--psi", "0.6", "0.8", "-N", "2",
                     "--trials", "10", "--seed", "4",
                     "--transcript", str(path))
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == "step\tparty\toutcome\tprobability"
    assert len(lines) == 11


# -- prepare -------------------------------------------------------------------

def test_prepare_two_copies(capsys):
    code, out, _ = run(capsys, "prepare", "--psi", "0.6", "0.8", "-N", "2",
                       "--seed", "1")
    assert code == EXIT_OK
    row = rows_of(out)[0]
    assert row["ok"] == "true"
    assert float(row["max_distance"]) < 1e-9
    assert row["epr_BC"] == "2" and row["ghz"] == "2"
    assert float(row["fidelity"]) == 1.0


def test_prepare_branch_count(capsys):
    code, out, _ = run(capsys, "prepare", "--psi", "0.6", "0.8", "-N", "2",
                       "--trials", "5", "--seed", "3")
    assert code == EXIT_OK
    assert rows_of(out)[0]["branches"] == "5"


def test_prepare_pair_only(capsys):
    code, out, _ = run(capsys, "prepare", "--psi", "0", "1", "-N", "3")
    assert code == EXIT_OK
    row = rows_of(out)[0]
    assert row["epr_BC"] == "3" and row["ghz"] == "0"
    assert float(row["max_distance"]) < 1e-9


def test_prepare_windowed_n4(capsys):
    code, out, err = run(capsys, "prepare", "--psi", "0.7071", "0.7071",
                         "-N", "4", "--alpha", "1", "--beta", "0.6")
    assert code == EXIT_OK
    assert "renormalizing" in err
    row = rows_of(out)[0]
    # the default window at N=4 clamps to (0, 4): full mass, 16 rows
    assert float(row["fidelity"]) == 1.0
    assert row["ghz"] == "4" and row["ok"] == "true"


def test_prepare_failed_check_prints_false(capsys, monkeypatch):
    # a prepared state off its target prints ok as false and exits 1
    monkeypatch.setattr(cli, "amplitude_distance", lambda a, b: 0.5)
    argv = ("prepare", "--psi", "0.6", "0.8", "-N", "2", "--seed", "1")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_INVARIANT
    assert out == ("N,branches,max_distance,epr_BC,ghz,fidelity,ok\n"
                   "2,1,0.5,2,2,1,false\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_INVARIANT
    assert json.loads(out) == [{"N": 2, "branches": 1, "max_distance": 0.5,
                                "epr_BC": 2.0, "ghz": 2.0, "fidelity": 1.0,
                                "ok": False}]


def test_prepare_transcript(capsys, tmp_path):
    path = tmp_path / "prep.tsv"
    code, _, _ = run(capsys, "prepare", "--psi", "0.6", "0.8", "-N", "2",
                     "--trials", "2", "--seed", "5",
                     "--transcript", str(path))
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[1].startswith("branch0.weighting\t")
    assert any(l.startswith("branch1.") for l in lines)


# -- fidelity ------------------------------------------------------------------

def test_fidelity_sweep(capsys):
    code, out, _ = run(capsys, "fidelity", "--psi", "0.7071", "0.7071",
                       "--n-sweep", "100,1000,10000")
    assert code == EXIT_OK
    table = rows_of(out)
    assert [r["N"] for r in table] == ["100", "1000", "10000"]
    assert (table[0]["k_minus"], table[0]["k_plus"]) == ("35", "65")
    fs = [float(r["F"]) for r in table]
    assert fs == sorted(fs)
    assert fs[0] == pytest.approx(fidelity(100, 0.5, (35, 65)), abs=1e-15)
    assert float(table[0]["bound"]) == pytest.approx(fidelity_bound(100),
                                                     abs=1e-15)


def test_fidelity_single_n(capsys):
    code, out, _ = run(capsys, "fidelity", "--psi", "0.6", "0.8", "-N", "50")
    assert code == EXIT_OK
    row = rows_of(out)[0]
    assert float(row["epr_per_copy"]) == pytest.approx(
        (50 - int(row["k_minus"])) / 50)


def test_fidelity_needs_n(capsys):
    code, _, err = run(capsys, "fidelity", "--psi", "0.6", "0.8")
    assert code == EXIT_USAGE
    assert "error" in err


# -- blocks --------------------------------------------------------------------

def test_blocks_psi_n3(capsys):
    code, out, _ = run(capsys, "blocks", "--psi", "0.6", "0.8", "-N", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k0,k1,coefficient,multiplicity,log2_probability"
    table = rows_of(out)
    assert [float(r["coefficient"]) for r in table] == \
        pytest.approx([0.512, 0.384, 0.288, 0.216])
    assert [r["multiplicity"] for r in table] == ["1", "3", "3", "1"]
    assert 2.0 ** float(table[1]["log2_probability"]) == \
        pytest.approx(0.442368)


def test_blocks_psi_prime_n2(capsys):
    code, out, _ = run(capsys, "blocks", "--psi-prime",
                       "0.5", "0.5", "0.5", "0.5", "-N", "2")
    assert code == EXIT_OK
    table = rows_of(out)
    assert len(table) == 10
    assert sum(int(r["multiplicity"]) for r in table) == 16   # 4^2 rows


def test_blocks_table_matches_the_scalar_oracle(capsys):
    # every row of the psi-prime table at N = 40 (12,341 blocks, their
    # multiplicities past 2**63), spelt from one block's Python arithmetic
    amps = ("0.6", "0.5", "0.4", "0.4795831523312719")
    n = 40
    code, out, _ = run(capsys, "blocks", "--psi-prime", *amps, "-N", str(n))
    assert code == EXIT_OK
    spec = psi_prime_spec(*map(float, amps))
    coeffs = [c.coefficient for c in spec.components]
    csq = spec.squared_coefficients()
    want = ["k0,k1,k2,k3,coefficient,multiplicity,log2_probability"]
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                row = (a, b, c, n - a - b - c)
                coeff = math.prod(x ** k for x, k in zip(coeffs, row))
                want.append(",".join(map(str, row)) + "," + ",".join((
                    format(coeff, ".17g"), str(multinomial_exact(row)),
                    format(block_probability(n, row, csq), ".17g"))))
    assert out == "\n".join(want) + "\n"
    assert max(int(line.split(",")[5]) for line in want[1:]) > 2**63


def test_blocks_notes_underflowed_coefficients(capsys):
    """At N = 1500, 0.6**k0 * 0.8**k1 falls below the normal doubles for
    the rows of large k0: one stderr note counts them, and the table is
    the one spelt from Python arithmetic."""
    n = 1500
    code, out, err = run(capsys, "blocks", "--psi", "0.6", "0.8",
                         "-N", str(n))
    assert code == EXIT_OK
    coeffs = [0.6**k * 0.8**(n - k) for k in range(n + 1)]
    low = sum(c < 2.0**-1022 for c in coeffs)
    assert 0 < low < n + 1
    assert [r["coefficient"] for r in rows_of(out)] == [
        format(c, ".17g") for c in coeffs]
    assert err == (f"note: {low} coefficients are below 2**-1022, the "
                   "smallest normal double: they lose digits or print as 0\n")


# -- verify --------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--blocks-max-n", "6", "--seed", "0")
    assert code == EXIT_OK
    table = rows_of(out)
    assert {r["suite"] for r in table} == {
        "block_equivalence", "local_orthogonality", "povm_completeness",
        "entropy_consistency"}
    assert all(r["status"] == "pass" for r in table)


def test_verify_negative_control(capsys):
    code, out, _ = run(capsys, "verify", "--blocks-max-n", "3",
                       "--negative-control")
    assert code == EXIT_INVARIANT
    table = {r["suite"]: r["status"] for r in rows_of(out)}
    assert table["povm_completeness"] == "fail"
    assert table["block_equivalence"] == "pass"


# -- output plumbing and exit codes ----------------------------------------------

def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "rates.csv"
    code, out, _ = run(capsys, "rates", "--psi", "0.6", "0.8",
                       "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert path.read_text().startswith("subset,rate\n")


EMPTY_WINDOW_PREPARE = ("prepare", "--psi", "0.6", "0.8", "-N", "3",
                        "--alpha", "0.01", "--seed", "1")
EMPTY_WINDOW_FIDELITY = ("fidelity", "--psi", "0.6", "0.8", "-N", "3",
                         "--alpha", "0.01")
# refusals whose wording is pinned: the interval c0^2 N -/+ alpha N^beta
# (1.08 -/+ 0.0193 here) and the way out
WORDING = {argv: "= [1.06067, 1.09933] holds no block index; raise --alpha"
           for argv in (EMPTY_WINDOW_PREPARE, EMPTY_WINDOW_FIDELITY)}
# C(16000, 8000) has 4815 digits, over Python's default int-to-str limit
BLOCKS_TOO_LONG = ("blocks", "--psi", "0.6", "0.8", "-N", "16000")
WORDING[BLOCKS_TOO_LONG] = (
    "error: the largest multiplicity at N = 16000 needs 4815 digits, "
    "budget is 4300 digits\n")
NOT_AN_INTEGER = ("extract", "--psi", "0.6", "0.8", "-N", "x")
WORDING[NOT_AN_INTEGER] = "argument -N/--copies: invalid integer 'x'"
# a spec file whose level 2.7 was once read as 2; written in the test's
# working directory
FRACTIONAL_LEVEL = ("rates", "--spec", "fractional-level.json")
WORDING[FRACTIONAL_LEVEL] = ("error: bad state specification: level must be "
                             "an integer, got 2.7\n")


@pytest.mark.parametrize("argv", [
    ("rates",),                                            # no source
    ("rates", "--psi", "0.6", "0.8", "--psi-prime",
     "0.5", "0.5", "0.5", "0.5"),                          # two sources
    ("extract", "--psi", "0.6", "0.8", "-N", "2",
     "--trials", "5"),                                     # trials, no seed
    ("rates", "--psi", "0.5", "0.5"),                      # badly off norm
    ("extract", "--psi", "0.6", "0.8"),                    # missing -N
    ("prepare", "--psi-prime", "0.5", "0.5", "0.5", "0.5",
     "-N", "2"),                                           # needs the seed pair
    ("extract", "--psi", "0.6", "0.8", "-N", "0"),         # no copies
    ("prepare", "--psi", "0.6", "0.8", "-N", "2",
     "--trials", "-3"),                                    # negative trials
    ("verify", "--blocks-max-n", "-1"),                    # negative max N
    ("fidelity", "--psi", "0.6", "0.8", "--n-sweep", "5,0"),  # N = 0 in sweep
    ("extract", "--psi", "0.6", "0.8", "-N", "2",
     "--transcript", "unused.tsv"),                        # transcript, no trials
    ("rates", "--psi", "0.6", "0.8", "--trials", "5",
     "--seed", "1"),                                       # flags rates lacks
    ("fidelity", "--psi", "0.6", "0.8", "-N", "100",
     "--n-sweep", "5,6"),                                  # -N and --n-sweep
    ("prepare", "--psi", "0.6", "0.8", "-N", "2",
     "--spec", "unused.json"),                             # flag prepare lacks
    ("verify", "--analytic"),                              # flag verify lacks
    ("extract", "--psi", "0.6", "0.8", "-N", "2", "--trials", "5", "--seed",
     "1", "--transcript", "missing-dir/t.tsv"),            # unwritable transcript
    EMPTY_WINDOW_PREPARE,                                  # window holds no k
    EMPTY_WINDOW_FIDELITY,
    ("prepare", "--psi", "0.935", "0.3546477125261065", "-N", "20",
     "--alpha", "0.42"),                                   # 21,700-row POVM
    ("fidelity", "--psi", "0.6", "0.8", "-N", str(10**20)),  # N above 2**53
    ("extract", "--psi", "0.6", "0.8", "-N", str(10**15)),   # 2.9e8-term bulk
    BLOCKS_TOO_LONG,
    NOT_AN_INTEGER,
    FRACTIONAL_LEVEL,
])
def test_usage_errors(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / FRACTIONAL_LEVEL[2]).write_text(json.dumps(
        {"m": 3, "components": [{"c": 0.6, "support": [0]},
                                {"c": 0.8, "support": [1, 2], "level": 2.7}]}))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert WORDING.get(argv, "") in err


def test_huge_prepare_window_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "prepare", "--psi", "0.6", "0.8",
                         "-N", "1000000")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: windowed target needs at least 2**1583")
    assert err.endswith(" terms, budget is 10000000 terms\n")


@pytest.mark.parametrize("n, need", [("13", "32002048"),
                                     ("14", "at least 2**24.744834")])
def test_prepare_terms_are_refused_before_any_state(capsys, monkeypatch, n,
                                                    need):
    """The protocol's terms are checked with the target's, before the
    target or any branch is built: both builders are stubbed to fail."""
    def built(*args, **kwargs):
        raise AssertionError("a state was built before the budget check")

    monkeypatch.setattr(cli, "build_target", built)
    monkeypatch.setattr(cli, "prepare_approx", built)
    code, out, err = run(capsys, "prepare", "--psi", "0.6", "0.8", "-N", n,
                         "--seed", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: protocol needs {need} terms, budget is 10000000 "
                   "terms\n")


@pytest.mark.parametrize("command", ["prepare", "fidelity"])
@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "-1", "alpha must be positive, got -1.0"),
    ("--beta", "5", "beta must lie in (1/2, 1), got 5.0"),
])
def test_window_flags_are_checked_at_every_n(capsys, command, n, flag, value,
                                             message):
    """prepare -N 2 keeps every block whatever the window, but still
    refuses the window flags that no N accepts."""
    code, out, err = run(capsys, command, "--psi", "0.6", "0.8", "-N", n,
                         flag, value)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_prepare_two_copies_ignores_the_window_width(capsys):
    """A valid --alpha too small for any block still runs at N = 2, whose
    exact protocol keeps every block."""
    code, out, _ = run(capsys, "prepare", "--psi", "0.6", "0.8", "-N", "2",
                       "--alpha", "0.01", "--seed", "1")
    assert code == EXIT_OK and rows_of(out)[0]["ok"] == "true"


@pytest.mark.parametrize("max_n", ["15", str(10**40)])
def test_verify_blocks_max_n_budget(capsys, max_n):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--blocks-max-n", max_n)
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE and out == ""
    # (3**16 - 1)/2 exactly; at 10**40 the lower bound 3**(10**40)
    need = {"15": "21523360", str(10**40): "at least 2**1.5849625e+40"}
    assert err == (f"error: block equivalence up to N = {max_n} needs "
                   f"{need[max_n]} terms, budget is 10000000 terms\n")


def test_verify_blocks_max_n_budget_boundary(capsys, monkeypatch):
    """(3**15 - 1)/2 = 7,174,453 block terms fit the budget; the next
    step does not. The block checks themselves are stubbed out."""
    monkeypatch.setattr(cli, "verify_block_equivalence", lambda n, k: True)
    assert run(capsys, "verify", "--blocks-max-n", "14")[0] == EXIT_OK
    assert run(capsys, "verify", "--blocks-max-n", "15")[0] == EXIT_USAGE


@pytest.mark.parametrize("command, scope, flags", [
    ("extract", "extraction", ("--psi", "0.6", "0.8", "--analytic")),
    ("prepare", "preparation", ("--psi", "0.6", "0.8")),
])
def test_trial_budget_refuses_before_any_seed(capsys, monkeypatch, command,
                                              scope, flags):
    """A trial count over the budget is one line and exit 2, with no seed
    spawned; at the budget the request goes on to spawn them."""
    class Reached(Exception):
        pass

    def seeds(*args):
        raise Reached

    monkeypatch.setattr(cli, "stream_uniforms", seeds)
    monkeypatch.setattr(extraction, "trial_seed", seeds)
    code, out, err = run(capsys, command, *flags, "-N", "2", "--trials",
                         "100000000", "--seed", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: {scope} needs 100000000 trials, budget is "
                   "1000000 trials\n")
    with pytest.raises(Reached):
        main([command, *flags, "-N", "2", "--trials", "1000000", "--seed",
              "1"])


@pytest.mark.parametrize("m", [26, 27, 10**9])
def test_party_budget(capsys, tmp_path, m):
    """A spec names at most 26 parties, A to Z; more are refused before
    any per-party tuple is built."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"m": m, "components": [
        {"c": 0.6, "support": [0]}, {"c": 0.8, "support": [0, m - 1]}]}))
    code, out, err = run(capsys, "rates", "--spec", str(path))
    if m == 26:
        assert (code, err) == (EXIT_OK, "")
        assert [r["subset"] for r in rows_of(out)] == ["AZ", LETTERS]
    else:
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"error: the state specification needs {m} parties, "
                       "budget is 26 parties\n")


def test_skewed_stage_law_exits_1(capsys, monkeypatch):
    def skewed(weights):
        """A complete two-outcome stage whose law is 0.9/0.1, not 1/2."""
        ones, empty = np.ones(len(weights)), np.zeros(0, dtype=np.int64)
        return (2, lambda o: diagonal_operator(
            0, math.sqrt((0.9, 0.1)[o]) * ones), lambda o: (empty, empty))

    monkeypatch.setattr(preparation, "_weighting_stage", skewed)
    code, out, err = run(capsys, "prepare", "--psi", "0.6", "0.8", "-N", "3")
    assert code == EXIT_INVARIANT and out == ""
    assert err.startswith("error: weighting: outcome ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_impossible_outcome_is_an_invariant_failure(capsys, monkeypatch):
    def forced(spec):
        raise cli.ImpossibleOutcomeError(
            "outcome on party 0 has probability 0.000e+00")

    monkeypatch.setattr(cli, "asymptotic_rates", forced)
    code, out, err = run(capsys, "rates", "--psi", "0.6", "0.8")
    assert code == EXIT_INVARIANT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_memory_error_is_a_refusal(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 763. MiB for an array")

    monkeypatch.setitem(cli.COMMANDS, "fidelity", exhausted)
    code, out, err = run(capsys, "fidelity", "--psi", "0.6", "0.8", "-N", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_malformed_spec_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "rates", "--spec", str(path))
    assert code == EXIT_USAGE
    assert "error" in err
    code, _, err = run(capsys, "rates", "--spec", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("rates", "--psi", "nan", "1"),
    ("rates", "--psi-prime", "0.5", "nan", "0.5", "0.5"),
    ("blocks", "--psi", "nan", "1", "-N", "2"),
    ("blocks", "--psi-prime", "inf", "0.5", "0.5", "0.5", "-N", "2"),
    ("extract", "--psi", "nan", "1", "-N", "2"),
    ("extract", "--psi-prime", "0.5", "0.5", "0.5", "nan", "-N", "2"),
    ("fidelity", "--psi", "0.6", "nan", "-N", "5"),
    ("prepare", "--psi", "1", "nan", "-N", "3"),
    ("prepare", "--psi", "0.6", "nan", "-N", "2"),
    ("prepare", "--psi", "nan", "1e308", "-N", "2"),
    ("prepare", "--psi", "inf", "0", "-N", "2"),
    ("rates", "--psi", "-inf", "1"),
    ("extract", "--psi-prime", "-inf", "0.5", "0.5", "0.5", "-N", "2"),
    ("prepare", "--psi", "-inf", "1", "-N", "2"),
])
def test_non_finite_amplitudes_are_refused(capsys, argv):
    # NaN passes every comparison of the norm check, so it is refused
    # first, before any table, warning or overflow
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: amplitudes must be finite, got [")
    assert err.count("\n") == 1


NEGATIVE = "amplitudes must be non-negative, got "


@pytest.mark.parametrize("argv, message", [
    (("rates", "--psi", "-0.6", "0.8"), NEGATIVE + "[-0.6, 0.8]"),
    (("rates", "--psi", "-6e-1", "0.8"), NEGATIVE + "[-0.6, 0.8]"),
    (("rates", "--psi-prime", "0.5", "-5E-1", "0.5", "0.5"),
     NEGATIVE + "[0.5, -0.5, 0.5, 0.5]"),
    (("extract", "--psi", "0.6", "-8e-1", "-N", "2"),
     NEGATIVE + "[0.6, -0.8]"),
    (("blocks", "--psi", "-6e-1", "0.8", "-N", "2"), NEGATIVE + "[-0.6, 0.8]"),
    (("blocks", "--psi-prime", "0.5", "0.5", "0.5", "-.5e0", "-N", "2"),
     NEGATIVE + "[0.5, 0.5, 0.5, -0.5]"),
    (("fidelity", "--psi", "-6e-1", "0.8", "-N", "5"),
     NEGATIVE + "[-0.6, 0.8]"),
    (("prepare", "--psi", "0.6", "-8E-1", "-N", "3"),
     NEGATIVE + "[0.6, -0.8]"),
])
def test_negative_amplitudes_in_any_float_spelling(capsys, argv, message):
    """An amplitude that float() reads is a value, however it is spelt:
    -6e-1 gets the amplitude check's message, as -0.6 does, and not
    argparse's 'expected 2 arguments' (so does -inf, above)."""
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")


def test_amplitude_slop_boundary(capsys):
    # squared sum off by more than 1e-3 is refused, within is renormalized
    code, _, err = run(capsys, "rates", "--psi", "0.71", "0.71")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "rates", "--psi", "0.70710678", "0.70710678")
    assert code == EXIT_OK


def test_cli_import_leaves_scipy_sparse_out():
    # operators are diagonal weightings and label maps; nothing should pull
    # in the sparse matrix package (a fresh interpreter sees the real
    # import graph)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, eprghz.cli; print('scipy.sparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_cold_paths_leave_scipy_out():
    # numpy is the only runtime dependency: import, small block tables and
    # every closed form above EXACT_N_MAX run without loading scipy
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    calls = [
        ["rates", "--psi", "0.6", "0.8"],
        ["blocks", "--psi", "0.6", "0.8", "-N", "3"],
        ["fidelity", "--psi", "0.6", "0.8", "-N", "100"],
        ["blocks", "--psi-prime", "0.6", "0.5", "0.4", "0.4795831523312719",
         "-N", "60"],
        ["extract", "--psi", "0.6", "0.8", "-N", "1000000", "--analytic",
         "--trials", "20", "--seed", "1"]]
    probe = ("import os, sys, eprghz.cli as c\n"
             "print('scipy' in sys.modules)\n"
             f"for argv in {calls!r}:\n"
             "    assert c.main(argv + ['--out', os.devnull]) == 0\n"
             "    print('scipy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n" * (1 + len(calls))


@pytest.mark.parametrize("argv", [
    ["extract", "--psi", "0.6", "0.8", "-N", "4", "--trials", "50",
     "--seed", "1"],
    ["extract", "--psi-prime", "0.6", "0.5", "0.4", "0.4795831523312719",
     "-N", "3", "--trials", "50", "--seed", str(2**128 + 5)],
    ["extract", "--spec", "SPEC", "-N", "3", "--trials", "50", "--seed",
     "7"],
    ["prepare", "--psi", "0.6", "0.8", "-N", "5", "--seed", "3"],
    ["prepare", "--psi", "0.6", "0.8", "-N", "2", "--trials", "5", "--seed",
     "4", "--transcript", os.devnull],
], ids=["psi", "psi-prime", "spec", "prepare", "prepare-branches"])
def test_explicit_requests_leave_numpy_random_and_ma_out(argv):
    """Explicit extract and prepare draw from streams computed in-package
    and intersect labels by sorting, so ``python -m eprghz.cli`` never
    imports numpy.random or numpy.ma (``-X importtime`` lists every module
    the child imports)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    spec = str(Path(__file__).parent / "golden" / "spec3.json")
    argv = [spec if a == "SPEC" else a for a in argv]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "eprghz.cli", *argv,
         "--out", os.devnull], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "numpy" in imported and "eprghz.locc" in imported
    assert not {m for m in imported
                if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])}


# -- chunked writers and their memory ---------------------------------------------

CHUNK = cli._ROW_CHUNK


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_emit_table_matches_the_one_shot_formatter(capsys, tmp_path, rows,
                                                   fmt, to_file):
    """Tables are written a chunk of rows at a time; at every chunk edge
    the text equals one pass over all rows (the oracle in conftest)."""
    k = np.arange(rows, dtype=np.int64)
    columns = (k, np.sqrt(k) / 3.0, [f"s{i}" for i in range(rows)],
               (None,) * rows)
    header = ("k", "x", "name", "empty")
    formats = ("%d", "%.17g", "%s", "%.0s")
    path = tmp_path / "table.txt"
    cli._emit_table(header, formats, columns, SimpleNamespace(
        format=fmt, out=str(path) if to_file else None))
    text = path.read_text() if to_file else capsys.readouterr().out
    want = one_shot_table(header, formats, [
        c.tolist() if isinstance(c, np.ndarray) else list(c)
        for c in columns], fmt)
    # as lines: pytest reports the first differing one, not a text diff
    assert text.splitlines(True) == want.splitlines(True)


def test_transcript_file_matches_to_text(tmp_path):
    """Transcripts go through the same chunked writer; every column is read
    from the runs one chunk at a time, across runs of every kind (numbered
    or listed steps, one party or a party array, int64 outcome arrays,
    Python-int outcomes past int64, single steps, merged branches, empty)
    and across chunk edges."""
    t = Transcript()
    path = tmp_path / "transcript.tsv"
    sizes = (CHUNK - 1, 0, 1, CHUNK + 2, 3, 2 * CHUNK + 1)
    for i, size in enumerate(sizes):
        names = range(size) if i % 2 else [f"s{j}" for j in range(size)]
        parties = i % 3 if i % 4 < 2 else np.arange(size) % 3
        outcomes = (np.arange(size, dtype=np.int64) % 7 if i % 3
                    else [2**63 + 5 * j for j in range(size)])
        t.extend(names, parties, outcomes, np.linspace(0, 1, size),
                 prefix=f"run{i}.")
        t.add(f"single{i}", 2, i, 0.5)
        branch = Transcript()
        branch.add("w", 0, 2**64, 0.25)
        branch.extend([], 1, [], [])
        t.merge(branch, prefix=f"branch{i}.")
        cli._write_transcript(t, SimpleNamespace(transcript=str(path)))
        assert (path.read_text().splitlines(True)
                == t.to_text().splitlines(True))
    assert t.to_text().count(f"\t{2**63 + 5}\t") == 2
    cli._write_transcript(Transcript(), SimpleNamespace(transcript=str(path)))
    assert path.read_text() == Transcript().to_text()


# a forked child reads its own peak: a process started with exec inherits
# its parent's peak RSS in ru_maxrss, and the test runner's can be larger
PEAK_PROBE = (
    "import os, resource, sys\n"
    "pid = os.fork()\n"
    "if pid == 0:\n"
    "    import eprghz.cli\n"
    "    code = eprghz.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "    print(peak, code, flush=True)\n"
    "    os._exit(0)\n"
    "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_largest_json_block_table_is_written_in_chunks():
    """The 192,920-row table at the block-row budget's edge grows peak RSS
    by at most 60 MB over a bare import in JSON (about 420 MB when the
    whole text was built first)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["blocks", "--psi-prime", "0.6", "0.5", "0.4",
            "0.4795831523312719", "-N", "103", "--format", "json", "--out",
            os.devnull]

    def peak_kib(*argv):
        done = subprocess.run([sys.executable, "-c", PEAK_PROBE, *argv],
                              env=env, capture_output=True, text=True,
                              check=True)
        peak, code = map(int, done.stdout.split())
        assert code == EXIT_OK
        return peak

    assert peak_kib(*argv) - peak_kib() <= 60 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
@pytest.mark.parametrize("mib, flags", [
    (70, ("-N", "8", "--trials", "1000000")),
    (35, ("-N", "2", "--analytic", "--trials", "100000")),
])
def test_sampled_extract_peak(mib, flags):
    """Sampled ``extract`` grows peak RSS over a bare import by at most
    ``mib`` MiB: the transcript keeps arrays, not one Python object a row
    (about 102 MiB at 10**6 explicit trials when it did), and analytic
    trials are seeded as they are drawn (about 60 MiB at 10**5 when every
    sub-seed was spawned first)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))

    def peak_kib(*argv):
        done = subprocess.run([sys.executable, "-c", PEAK_PROBE, *argv],
                              env=env, capture_output=True, text=True,
                              check=True)
        peak, code = map(int, done.stdout.split())
        assert code == EXIT_OK
        return peak

    argv = ["extract", "--psi", "0.6", "0.8", *flags, "--seed", "1",
            "--out", os.devnull]
    assert peak_kib(*argv) - peak_kib() <= mib * 1024


# -- golden output ---------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("rates_psi", ("rates", "--psi", "0.6", "0.8")),
    ("rates_spec", ("rates", "--spec", "SPEC")),
    ("blocks_psi_3", ("blocks", "--psi", "0.6", "0.8", "-N", "3")),
    ("blocks_psi_prime_2_json", ("blocks", "--psi-prime", "0.5", "0.5", "0.5",
                                 "0.5", "-N", "2", "--format", "json")),
    ("extract_psi_2", ("extract", "--psi", "0.6", "0.8", "-N", "2", "--trials",
                       "2000", "--seed", "7", "--transcript", "TRANSCRIPT")),
    ("extract_psi_prime_3", ("extract", "--psi-prime", "0.5", "0.5", "0.5",
                             "0.5", "-N", "3", "--trials", "500", "--seed",
                             "9")),
    ("extract_analytic_20", ("extract", "--psi", "0.6", "0.8", "-N", "20",
                             "--analytic", "--trials", "16", "--seed", "3",
                             "--transcript", "TRANSCRIPT")),
    ("prepare_3", ("prepare", "--psi", "0.6", "0.8", "-N", "3", "--trials",
                   "2", "--seed", "5", "--transcript", "TRANSCRIPT")),
    ("fidelity_sweep", ("fidelity", "--psi", "0.6", "0.8", "--n-sweep",
                        "5,20")),
    ("verify_4", ("verify", "--blocks-max-n", "4", "--seed", "0")),
    ("extract_psi_prime_4", ("extract", "--psi-prime", "0.6", "0.5", "0.4",
                             "0.4795831523312719", "-N", "4", "--trials",
                             "300", "--seed", "11", "--transcript",
                             "TRANSCRIPT")),
    ("prepare_4", ("prepare", "--psi", "0.6", "0.8", "-N", "4", "--trials",
                   "2", "--seed", "5", "--transcript", "TRANSCRIPT")),
    ("extract_spec3", ("extract", "--spec", "SPEC3", "-N", "3", "--trials",
                       "200", "--seed", "7", "--transcript", "TRANSCRIPT")),
    ("prepare_6", ("prepare", "--psi", "0.6", "0.8", "-N", "6", "--seed", "5",
                   "--transcript", "TRANSCRIPT")),
])
def test_golden_output(capsys, tmp_path, name, argv):
    """Stdout and transcripts stay byte-identical to the recorded runs
    (all at N <= 30, where every count is exact)."""
    spec = tmp_path / "psi_prime_equal.json"
    spec.write_text(spec_to_json(psi_prime_spec(0.5, 0.5, 0.5, 0.5)))
    transcript = tmp_path / "transcript.tsv"
    paths = {"SPEC": str(spec), "SPEC3": str(GOLDEN / "spec3.json"),
             "TRANSCRIPT": str(transcript)}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, err) == (EXIT_OK, "")
    assert out == (GOLDEN / f"{name}.out").read_text()
    want = GOLDEN / f"{name}.transcript"
    assert transcript.exists() == want.exists()
    if want.exists():
        assert transcript.read_text() == want.read_text()
