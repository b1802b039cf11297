"""Output checks that do not import ``eprghz``.

Each check recomputes what a subcommand prints from the closed forms of
the state family, with ``math`` and ``scipy``, and returns ``None`` when
the output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
from scipy.special import gammaln
from scipy.stats import binom, norm, t

LN2 = math.log(2.0)
FULL = "ABC"
VERIFY_SUITES = ("block_equivalence", "local_orthogonality",
                 "povm_completeness", "entropy_consistency")


class Rejected(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise Rejected(msg)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r}")


def _table(stdout: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(len(rows) >= 2, "no table on stdout")
    return rows[0], rows[1:]


def _letters(support) -> str:
    return "".join(chr(ord("A") + p) for p in support)


def _entropy(p) -> float:
    return -sum(x * math.log2(x) for x in p if x > 0)


def _c0_sq(req) -> float:
    c0 = float(req.argv[req.argv.index("--psi") + 1])
    return c0 * c0


def _window(n: int, c0_sq: float) -> tuple[int, int]:
    half = n**0.6
    return (max(0, math.ceil(c0_sq * n - half)),
            min(n, math.floor(c0_sq * n + half)))


def _window_mass(n: int, c0_sq: float, k_minus: int, k_plus: int) -> float:
    tails = binom.cdf(k_minus - 1, n, c0_sq) + binom.sf(k_plus, n, c0_sq)
    return 1.0 - float(tails)


def _subset_units(state) -> tuple[dict[str, float], float]:
    """Per-copy units of the entangled components: per proper subset, and
    summed over the components whose support is the full party set."""
    per: dict[str, float] = {}
    full = 0.0
    for c, (support, level) in zip(state["csq"], state["layout"]):
        if len(support) < 2:
            continue
        units = c * math.log2(level)
        if _letters(support) == FULL:
            full += units
        else:
            per[_letters(support)] = per.get(_letters(support), 0.0) + units
    return per, full


def _mean_log2_factorial(n: int, p: float) -> float:
    """E[log2 K!] for K ~ Binomial(n, p), summed within 40 sigma."""
    sd = math.sqrt(n * p * (1.0 - p))
    lo = max(0, int(n * p - 40 * sd))
    hi = min(n, int(n * p + 40 * sd) + 1)
    ks = np.arange(lo, hi + 1)
    return float(binom.pmf(ks, n, p) @ gammaln(ks + 1.0)) / LN2


def _log2_multinomial(counts) -> float:
    return (math.lgamma(sum(counts) + 1)
            - sum(math.lgamma(k + 1) for k in counts)) / LN2


def _yield_variances(state, n: int) -> dict[str, float] | None:
    """Exact variance of each per-copy yield over the multinomial block
    law, by enumerating count vectors; ``None`` when there are too many."""
    csq, layout = state["csq"], state["layout"]
    m = len(csq)
    if math.comb(n + m - 1, m - 1) > 20_000:
        return None
    moments: dict[str, list[float]] = {}
    for head in itertools.product(range(n + 1), repeat=m - 1):
        if sum(head) > n:
            continue
        counts = (*head, n - sum(head))
        logp = _log2_multinomial(counts) + sum(
            k * math.log2(c) for k, c in zip(counts, csq) if k)
        y = {FULL: _log2_multinomial(counts)}
        for k, (support, level) in zip(counts, layout):
            if len(support) >= 2:
                key = _letters(support)
                y[key] = y.get(key, 0.0) + k * math.log2(level)
        w = 2.0**logp
        for key, v in y.items():
            acc = moments.setdefault(key, [0.0, 0.0])
            acc[0] += w * v / n
            acc[1] += w * (v / n) ** 2
    return {k: s2 - s1 * s1 for k, (s1, s2) in moments.items()}


def _ghz_per_copy(n: int, k_minus: int, k_plus: int) -> float:
    """GHZ units per copy the windowed preparation plans for: the window
    width times the largest block multiplicity in the window, which sits
    at the window point nearest N/2 (the smaller one on ties)."""
    inside = [k for k in (n // 2, (n + 1) // 2) if k_minus <= k <= k_plus]
    if inside:
        k0 = min(inside)
    else:
        k0 = k_minus if k_minus > n / 2 else k_plus
    return (math.log2(k_plus - k_minus + 1)
            + _log2_multinomial((k0, n - k0))) / n


def check_rates(req, stdout: str) -> None:
    header, rows = _table(stdout)
    _require(header == ["subset", "rate"], f"header {header}")
    per, full = _subset_units(req.state)
    want = dict(per, **{FULL: full + _entropy(req.state["csq"])})
    got = {r[0]: float(r[1]) for r in rows}
    _require(set(got) == set(want), f"subsets {sorted(got)} != {sorted(want)}")
    for s, v in want.items():
        _close(got[s], v, 1e-12, f"rate {s}")


def check_extract(req, stdout: str) -> None:
    header, rows = _table(stdout)
    _require(header == ["N", "subset", "expected", "empirical", "stderr"],
             f"header {header}")
    n = req.args["n"]
    per, full = _subset_units(req.state)
    ghz = math.lgamma(n + 1) / LN2
    for c in req.state["csq"]:
        ghz -= _mean_log2_factorial(n, c)
    want = dict(per, **{FULL: ghz / n + full})
    got = {r[1]: r for r in rows}
    _require(set(got) == set(want), f"subsets {sorted(got)} != {sorted(want)}")
    trials = req.args["trials"]
    variances = _yield_variances(req.state, n) if trials >= 100 else None
    if trials:
        # the printed stderr is estimated from the trials themselves, so
        # the sample mean is t-distributed around the expectation; use the
        # t quantile with the tail mass of 5 normal sigmas (5.07 at 500
        # trials, 17.1 at 8)
        k = float(t.isf(norm.sf(5.0), max(trials - 1, 1)))
    for s, v in want.items():
        row = got[s]
        _require(int(row[0]) == n, f"N column {row[0]} != {n}")
        _close(float(row[2]), v, 1e-9, f"expected yield {s}")
        if trials:
            emp, se = float(row[3]), float(row[4])
            _require(abs(emp - v) <= k * se + 1e-12,
                     f"sampled yield {s}: {emp!r} is more than {k:.3g} "
                     f"stderr ({se!r}) from {v!r}")
            if variances is not None:
                # the sample stderr of >= 100 trials is within a factor
                # 1.5 of the exact one, far beyond 5 sigma of its spread
                exact = math.sqrt(variances[s] / trials)
                _require(exact / 1.5 <= se <= exact * 1.5,
                         f"stderr {s}: {se!r}, exact {exact!r}")
        else:
            _require(row[3] == row[4] == "", f"unexpected samples for {s}")


def check_fidelity(req, stdout: str) -> None:
    header, rows = _table(stdout)
    _require(header == ["N", "k_minus", "k_plus", "F", "bound",
                        "epr_per_copy", "ghz_per_copy"], f"header {header}")
    c0_sq = _c0_sq(req)
    _require(len(rows) == len(req.args["ns"]), f"{len(rows)} rows")
    for row, n in zip(rows, req.args["ns"]):
        k_minus, k_plus = _window(n, c0_sq)
        want = [n, k_minus, k_plus]
        _require([int(x) for x in row[:3]] == want,
                 f"window row {row[:3]} != {want}")
        _close(float(row[3]), _window_mass(n, c0_sq, k_minus, k_plus), 1e-12,
               f"F at N={n}")
        _close(float(row[4]), math.erf(2.0 * n**0.1 / math.sqrt(2.0)), 1e-12,
               f"bound at N={n}")
        _close(float(row[5]), (n - k_minus) / n, 1e-12,
               f"epr_per_copy at N={n}")
        _close(float(row[6]), _ghz_per_copy(n, k_minus, k_plus), 1e-12,
               f"ghz_per_copy at N={n}")


def check_blocks(req, stdout: str) -> None:
    header, rows = _table(stdout)
    csq = req.state["csq"]
    m, n = len(csq), req.args["n"]
    _require(header == [f"k{i}" for i in range(m)]
             + ["coefficient", "multiplicity", "log2_probability"],
             f"header {header}")
    _require(len(rows) == math.comb(n + m - 1, m - 1),
             f"{len(rows)} blocks, want {math.comb(n + m - 1, m - 1)}")
    total = 0.0
    for row in rows:
        ks = [int(x) for x in row[:m]]
        _require(sum(ks) == n, f"counts {ks} do not sum to {n}")
        mult = math.factorial(n)
        for k in ks:
            mult //= math.factorial(k)
        _require(int(row[m + 1]) == mult, f"multiplicity of {ks}")
        log2p = math.log2(mult) + sum(
            k * math.log2(c) for k, c in zip(ks, csq) if k)
        _close(float(row[m + 2]), log2p, 1e-9, f"log2_probability of {ks}")
        coeff = math.prod(math.sqrt(c) ** k for k, c in zip(ks, csq))
        _close(float(row[m]), coeff, 1e-9 * coeff, f"coefficient of {ks}")
        total += 2.0 ** float(row[m + 2])
    _close(total, 1.0, 1e-9, "sum of block probabilities")


def check_prepare(req, stdout: str) -> None:
    header, rows = _table(stdout)
    _require(header == ["N", "branches", "max_distance", "epr_BC", "ghz",
                        "fidelity", "ok"], f"header {header}")
    _require(len(rows) == 1, f"{len(rows)} rows")
    row = rows[0]
    n = req.args["n"]
    _require(int(row[0]) == n and int(row[1]) == req.args["trials"],
             f"N/branches {row[:2]}")
    _require(row[6] == "true", f"ok={row[6]}")
    _require(float(row[2]) <= 1e-9, f"max_distance {row[2]}")
    c0_sq = _c0_sq(req)
    k_minus, k_plus = (0, 2) if n == 2 else _window(n, c0_sq)
    _close(float(row[5]), _window_mass(n, c0_sq, k_minus, k_plus), 1e-12,
           "fidelity")


def check_verify(req, stdout: str) -> None:
    header, rows = _table(stdout)
    _require(header == ["suite", "status"], f"header {header}")
    _require(tuple(r[0] for r in rows) == VERIFY_SUITES, f"suites {rows}")
    failed = [r[0] for r in rows if r[1] != "pass"]
    _require(not failed, f"failed suites {failed}")


CHECKS = {
    "rates": check_rates,
    "extract": check_extract,
    "fidelity": check_fidelity,
    "blocks": check_blocks,
    "prepare": check_prepare,
    "verify": check_verify,
}


def check(req, stdout: str) -> str | None:
    """``None`` if ``stdout`` is the right answer to ``req``, else why not."""
    try:
        CHECKS[req.command](req, stdout)
    except Rejected as e:
        return str(e)
    except (ValueError, IndexError, KeyError) as e:
        return f"unparsable output: {e}"
    return None
