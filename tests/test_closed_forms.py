"""Closed-form sums over the binomial bulk against full-range references.

The references below are the O(N) sums over every k = 0..N that the bulk
sums replaced: one array of length N + 1 per term, with each expectation's
pmf formed the way the program forms it (from exact log-binomials up to
EXACT_N_MAX, relative to the mode above). Where the bulk covers 0..N the
two must agree bit for bit; beyond that, within 4 ulps.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eprghz import blocks
from eprghz.blocks import (EXACT_N_MAX, _binomial_bulk,
                           _log2_factorial_ratio, log2_binomial_array)
from eprghz.canonical import (CanonicalComponent, StateSpec, psi_prime_spec,
                              psi_spec)
from eprghz.extraction import (_yield_variances, expected_means,
                               expected_yields)
from eprghz.preparation import fidelity, target_window

NS = [1, 2, 5, 20, 100, 10**3, 10**5]
C0_SQ = [0.0, 1e-12, 0.36, 0.5, 1.0 - 1e-12, 1.0]


# -- the full-range references ---------------------------------------------------

def ref_binomial_pmf(n, p):
    if p <= 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    ks = np.arange(n + 1)
    if n <= EXACT_N_MAX:
        logp = (log2_binomial_array(n, ks)
                + ks * math.log2(p) + (n - ks) * math.log2(1.0 - p))
    else:
        # relative to the mode m: the steps log2 C(n, j+1) - log2 C(n, j)
        # summed in sequence outward from m, plus (k - m) log2(p / q)
        m = min(math.floor((n + 1) * p), n)
        step = np.log2((n - ks[:-1]) / (ks[:-1] + 1.0))
        logp = np.zeros(n + 1)
        logp[m:] = np.cumsum(np.concatenate(([0.0], step[m:])))
        logp[:m + 1] = np.cumsum(
            np.concatenate(([0.0], -step[:m][::-1])))[::-1]
        logp += (ks - m) * math.log2(p / (1.0 - p))
    w = np.exp2(logp - logp.max())
    return w / w.sum()


def ref_fidelity(n, c0_sq, window):
    k_minus, k_plus = window
    if c0_sq <= 0.0:
        return 1.0 if k_minus == 0 else 0.0
    if c0_sq >= 1.0:
        return 1.0 if k_plus == n else 0.0
    ks = np.arange(n + 1)
    logp = (log2_binomial_array(n, ks) + ks * math.log2(c0_sq)
            + (n - ks) * math.log2(1.0 - c0_sq))
    p = np.exp2(logp)
    total = float(p.sum())
    inside = float(p[k_minus:k_plus + 1].sum())
    if inside >= total / 2.0:
        tails = float(p[:k_minus].sum()) + float(p[k_plus + 1:].sum())
        return min(1.0, max(0.0, (total - tails) / total))
    return min(1.0, max(0.0, inside / total))


def ref_ghz_per_copy(spec, n):
    """The multiplicity term sum_k pmf(k) log2 k! (no full-support units)."""
    lf = _log2_factorial_ratio(np.arange(n + 1))
    ghz = float(lf[n])
    for c in spec.squared_coefficients():
        ghz -= float(ref_binomial_pmf(n, c) @ lf)
    return ghz / n


def ref_variances_2(spec, n, epr_mean, ghz_mean):
    full = tuple(range(spec.party_count))
    subsets = sorted({c.support for c in spec.components
                      if len(c.support) >= 2 and c.support != full})
    pmf = ref_binomial_pmf(n, spec.squared_coefficients()[0])
    k0 = np.arange(n + 1, dtype=float)
    counts = (k0, n - k0)
    ghz_vals = log2_binomial_array(n, np.arange(n + 1)) / n
    for comp, k in zip(spec.components, counts):
        if comp.support == full and len(comp.support) >= 2:
            ghz_vals = ghz_vals + math.log2(comp.level) * k / n
    ghz_var = float(pmf @ (ghz_vals - ghz_mean) ** 2)
    epr_var = {}
    for s in subsets:
        vals = np.zeros(n + 1)
        for comp, k in zip(spec.components, counts):
            if comp.support == s:
                vals = vals + math.log2(comp.level) * k / n
        epr_var[s] = float(pmf @ (vals - epr_mean.get(s, 0.0)) ** 2)
    return epr_var, ghz_var


# -- comparisons -----------------------------------------------------------------

def covers(n, *ps):
    return all(_binomial_bulk(n, p) == (0, n) for p in ps)


def agree(got, want, exact, scale=0.0):
    """Bit for bit, or within 4 ulps of the larger of ``want`` and the
    ``scale`` of the terms that cancel to give it."""
    if exact:
        assert got == want
    else:
        assert abs(got - want) <= 4 * math.ulp(max(abs(want), scale)), \
            (got, want)


def ghz_scale(n):
    """The GHZ yield is log2 N!/N less sums of the same size, so it is
    accurate to the ulps of log2 N!/N, not of its own (small) value."""
    return math.lgamma(n + 1) / math.log(2) / n


def seed_spec(c0_sq):
    return psi_spec(math.sqrt(c0_sq), math.sqrt(1.0 - c0_sq))


@pytest.mark.parametrize("c0_sq", C0_SQ + [-0.0])
@pytest.mark.parametrize("n", NS)
def test_fidelity_matches_full_range_sum(n, c0_sq):
    w = target_window(n, c0_sq)
    for window in [(0, n), (n // 4, n // 2), (w.k_minus, w.k_plus)]:
        agree(fidelity(n, c0_sq, window), ref_fidelity(n, c0_sq, window),
              covers(n, c0_sq))


@pytest.mark.parametrize("c0_sq", C0_SQ)
@pytest.mark.parametrize("n", NS)
def test_seed_yields_match_full_range_sums(n, c0_sq):
    spec = seed_spec(c0_sq)
    csq = spec.squared_coefficients()
    exact = covers(n, *csq)
    y = expected_yields(spec, n)
    agree(y.ghz_per_copy, ref_ghz_per_copy(spec, n), exact, ghz_scale(n))
    epr_var, ghz_var = _yield_variances(spec, n, y.epr_per_copy,
                                        y.ghz_per_copy)
    want_epr, want_ghz = ref_variances_2(spec, n, y.epr_per_copy,
                                         y.ghz_per_copy)
    exact = covers(n, csq[0])
    agree(ghz_var, want_ghz, exact)
    assert epr_var.keys() == want_epr.keys()
    for s in epr_var:
        agree(epr_var[s], want_epr[s], exact)


@pytest.mark.parametrize("n", NS)
def test_four_component_yields_match_full_range_sums(n):
    spec = psi_prime_spec(0.6, 0.5, 0.4, math.sqrt(1 - 0.36 - 0.25 - 0.16))
    y = expected_yields(spec, n)
    agree(y.ghz_per_copy, ref_ghz_per_copy(spec, n),
          covers(n, *spec.squared_coefficients()), ghz_scale(n))


def mp_ghz_per_copy(mpmath, spec, n):
    """(log2 N! - sum_i E[log2 K_i!]) / N, K_i ~ Binomial(N, c_i^2), at the
    working precision: each pmf runs by its own recurrence over +-13 sigma."""
    out = mpmath.loggamma(n + 1)
    for c in spec.squared_coefficients():
        p = mpmath.mpf(c)
        sd = math.sqrt(n * c * (1.0 - c))
        lo = max(0, math.floor(n * c - 13 * sd) - 5)
        hi = min(n, math.ceil(n * c + 13 * sd) + 5)
        lf = mpmath.loggamma(lo + 1)
        pmf = mpmath.exp(mpmath.loggamma(n + 1) - lf
                         - mpmath.loggamma(n - lo + 1)
                         + lo * mpmath.log(p) + (n - lo) * mpmath.log(1 - p))
        total = mean = 0
        for k in range(lo, hi + 1):
            total += pmf
            mean += pmf * lf
            pmf *= mpmath.mpf(n - k) / (k + 1) * p / (1 - p)
            lf += mpmath.log(k + 1)
        out -= mean / total
    return out / mpmath.log(2) / n


def mode_chunks(n, p):
    """The (k, log2 pmf) pairs of _binomial_mode_chunks sorted by k, and
    the k of its first chunk (the mode's)."""
    chunks = list(blocks._binomial_mode_chunks(n, p))
    ks = np.concatenate([k for k, _ in chunks])
    logp = np.concatenate([v for _, v in chunks])
    order = np.argsort(ks, kind="stable")
    return ks[order], logp[order], chunks[0][0]


@pytest.mark.parametrize("n, p", [(10**6, 0.36), (10**6, 0.5),
                                  (12345, 0.01), (10**7, 0.9)])
def test_mode_chunks_split_many_ways_match_one_chunk(monkeypatch, n, p):
    # each chunk above or below the mode's carries on its neighbour's
    # running sum, so every log2 pmf is the same sequential sum from the
    # mode; the means merge chunk masses, which moves the GHZ cell by ulps
    ks, logp, home = mode_chunks(n, p)
    assert len(home) == len(ks)
    epr, ghz = expected_means(seed_spec(p), n)
    monkeypatch.setattr(blocks, "_BULK_CHUNK", 97)
    many_ks, many_logp, home = mode_chunks(n, p)
    assert ks[0] < home[0] and home[-1] < ks[-1]
    assert np.array_equal(many_ks, ks)
    assert np.array_equal(many_logp, logp)
    many_epr, many_ghz = expected_means(seed_spec(p), n)
    assert many_epr == epr
    agree(many_ghz, ghz, False, ghz_scale(n))


@pytest.mark.parametrize("n", [100, 10**3, 10**5, 10**6])
def test_ghz_cell_against_mpmath(n):
    # the pmf formed relative to its mode leaves only the rounding of the
    # log-factorial sums themselves: within 4 ulps of log2 N!/N
    mpmath = pytest.importorskip("mpmath")
    for spec in (psi_spec(0.6, 0.8),
                 psi_prime_spec(0.6, 0.5, 0.4,
                                math.sqrt(1 - 0.36 - 0.25 - 0.16))):
        got = expected_yields(spec, n).ghz_per_copy
        with mpmath.workdps(40):
            want = float(mp_ghz_per_copy(mpmath, spec, n))
        assert abs(got - want) <= 4 * math.ulp(ghz_scale(n)), (got, want)


def test_variances_with_a_full_support_component():
    spec = StateSpec(3, (CanonicalComponent(0.6, (0,)),
                         CanonicalComponent(0.8, (0, 1, 2), level=3)))
    for n in (20, 10**4):
        y = expected_yields(spec, n)
        _, ghz_var = _yield_variances(spec, n, {}, y.ghz_per_copy)
        _, want = ref_variances_2(spec, n, {}, y.ghz_per_copy)
        agree(ghz_var, want, covers(n, 0.36))


def test_bulk_window_is_clipped_and_tight():
    assert _binomial_bulk(20, 0.36) == (0, 20)
    assert _binomial_bulk(7, 0.0) == (0, 0)
    assert _binomial_bulk(7, 1.0) == (7, 7)
    n, p = 10**12, 0.36
    lo, hi = _binomial_bulk(n, p)
    sigma = math.sqrt(n * p * (1 - p))
    assert 9 * sigma < n * p - lo < 10 * sigma
    assert 9 * sigma < hi - n * p < 10 * sigma
    # Bernstein's bound at the edges: each left-out tail below 2**-65
    for t in (n * p - lo, hi - n * p):
        assert t * t / (2 * (sigma**2 + t / 3)) >= 65 * math.log(2)


@pytest.mark.parametrize("n,window", [(10**5, (0, 30_000)),
                                      (10**5, (40_000, 10**5)),
                                      (10**12, (0, 10)),
                                      (10**12, (10**12 - 10, 10**12))])
def test_window_outside_the_bulk(n, window):
    f = fidelity(n, 0.36, window)
    assert 0.0 <= f <= 2.0**-64


def test_epr_expectations_are_the_closed_form():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    spec = StateSpec(3, (CanonicalComponent(math.sqrt(0.3), (0,)),
                         CanonicalComponent(math.sqrt(0.45), (1, 2), level=3),
                         CanonicalComponent(math.sqrt(0.25), (0, 1), level=2)))
    for n in (3, 10**6):
        y = expected_yields(spec, n)
        for comp in spec.components[1:]:
            want = float(mpmath.mpf(comp.coefficient) ** 2
                         * mpmath.log(comp.level, 2))
            assert y.epr_per_copy[comp.support] == want
    for c0_sq in (0.36, 0.5):
        spec = seed_spec(c0_sq)
        assert expected_yields(spec, 10**5).epr_per_copy[(1, 2)] == \
            spec.components[1].coefficient ** 2


def test_huge_n_runs_in_bounded_memory():
    """N = 1e12 under a 256 MB address-space limit set in the child only:
    one array of length N + 1 would need 8 TB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from eprghz.canonical import psi_spec\n"
        "from eprghz.extraction import expected_yields\n"
        "from eprghz.preparation import fidelity, target_window\n"
        "n = 10**12\n"
        "print(fidelity(n, 0.36, target_window(n, 0.36)))\n"
        "print(expected_yields(psi_spec(0.6, 0.8), n).ghz_per_copy)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    f, ghz = map(float, done.stdout.split())
    assert f == 1.0
    # the coefficient entropy H(0.36, 0.64) less O(log N / N)
    assert 0.9426831 < ghz < 0.9426832
