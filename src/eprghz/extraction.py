"""Forward protocol: measure N copies onto blocks and account the resources.

A local projective measurement onto the block subspaces (performable by any
single party, since each party's labels identify the block) leaves the
parties sharing canonical states: level-d pairs on each entangled
component's support and a multiplicity-level GHZ-type state on the full
party set. Expected per-copy yields follow by summing block probabilities;
the component counts are multinomial, so every expectation reduces to
binomial marginals, each summed over its bulk of O(sqrt(N)) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (NORM_TOL, BudgetError, PureState, _check_budget,
                      _unique_rows, entanglement_entropy, entropy,
                      states_equal)
from .canonical import (StateSpec, _check_copies, _integer, copies,
                        psi_general)
# called through their module objects, so that a request that reads only
# the asymptotic rates runs neither
from . import blocks, locc


@dataclass(frozen=True)
class Rates:
    """Asymptotic canonical units per copy: proper/component subsets plus
    the full-set GHZ rate (the coefficient entropy)."""

    per_subset: dict[tuple[int, ...], float]
    full: float


@dataclass(frozen=True)
class YieldReport:
    """Per-copy canonical units at finite N: expectation or sample mean.

    ``trials`` is None for analytic expectations; variances are across
    single protocol runs (NaN where no tractable exact path exists).
    """

    n_copies: int
    epr_per_copy: dict[tuple[int, ...], float]
    ghz_per_copy: float
    epr_variance: dict[tuple[int, ...], float]
    ghz_variance: float
    trials: int | None = None


def asymptotic_rates(spec: StateSpec) -> Rates:
    per: dict[tuple[int, ...], float] = {}
    for comp in spec.components:
        if len(comp.support) >= 2:
            per[comp.support] = (per.get(comp.support, 0.0)
                                 + _log2_units(comp.coefficient, comp.level))
    full = entropy(spec.squared_coefficients())
    return Rates(per, full)


def _binomial_expectations(n: int, p: float, fs) -> list[float]:
    """E[f(K)] for each f of ``fs``, K ~ Binomial(n, p), summed over the
    bulk only (blocks._binomial_bulk: mass left out below 2**-64), with
    the pmf formed relative to its mode (blocks._binomial_mode_chunks).

    Each f maps a chunk's array k to values. Every chunk's pmf is
    normalized on its own and the chunks are merged by their mass, so a
    bulk that fits one chunk gives exactly the sums over one normalized
    pmf array.
    """
    parts = []
    for ks, logp in blocks._binomial_mode_chunks(n, p):
        peak = float(logp.max())
        w = np.exp2(logp - peak)
        mass = float(w.sum())
        pmf = w / mass
        parts.append((peak, mass, [float(pmf @ f(ks)) for f in fs]))
    top = max(peak for peak, _, _ in parts)
    masses = [mass * 2.0 ** (peak - top) for peak, mass, _ in parts]
    total = math.fsum(masses)
    return [math.fsum(m / total * means[i] for m, (_, _, means) in
                      zip(masses, parts)) for i in range(len(fs))]


def _log2_units(c: float, level: int) -> float:
    """c**2 * log2(level), correctly rounded: a product of rounded factors
    can land an ulp off, so it is formed with 40 digits first."""
    from decimal import Context, Decimal

    ctx = Context(prec=40)
    return float(ctx.divide(ctx.multiply(ctx.power(Decimal(c), 2),
                                         ctx.ln(level)), ctx.ln(2)))


def expected_yields(spec: StateSpec, n: int) -> YieldReport:
    """Finite-N expected yields (``expected_means``) and their variances
    across single protocol runs.

    The 2-component variances, like the means, run over the binomial bulk
    only: O(sqrt(N)) work and O(chunk) memory at any N. Other variances
    need joint moments: computed by full block enumeration when small,
    NaN above the block-row budget.
    """
    n = _integer(n, "n")
    epr, ghz = expected_means(spec, n)
    epr_var, ghz_var = _yield_variances(spec, n, epr, ghz)
    return YieldReport(n, epr, ghz, epr_var, ghz_var, trials=None)


def expected_means(spec: StateSpec, n: int
                   ) -> tuple[dict[tuple[int, ...], float], float]:
    """Finite-N expected per-copy yields ``(epr_per_copy, ghz_per_copy)``
    by summing block probabilities.

    Component counts are jointly multinomial with E[k_i] = N c_i^2, so each
    entangled support earns c_i^2 log2(level) per copy exactly, and the
    row-multiplicity term uses log2(N!/prod k_i!) = log2 N! - sum_i log2
    k_i!, summed binomial marginal by marginal. Those sums run over each
    marginal's bulk only: k outside it carry mass below 2**-64
    (Bernstein's inequality), so work is O(sqrt(N)) and memory O(chunk)
    at any N.
    """
    n = _integer(n, "n", 1)
    blocks._check_count(n)
    epr = dict(asymptotic_rates(spec).per_subset)
    ghz = float(blocks._log2_factorial_ratio(n))
    for c in spec.squared_coefficients():
        ghz -= _binomial_expectations(n, c,
                                      [blocks._log2_factorial_ratio])[0]
    # full-support component units live in the full-set (GHZ) account
    return epr, ghz / n + epr.pop(tuple(range(spec.party_count)), 0.0)


def _yield_variances(spec, n, epr_mean, ghz_mean):
    csq = spec.squared_coefficients()
    ncomp = len(csq)
    full = tuple(range(spec.party_count))
    subsets = sorted({c.support for c in spec.components
                      if len(c.support) >= 2 and c.support != full})
    if ncomp == 2:
        def deviation(s, mean):
            """f(k0) = (units per copy on support s - mean)**2."""
            def f(ks):
                vals = (blocks.log2_binomial_array(n, ks) / n if s == full
                        else np.zeros(len(ks)))
                for comp, k in zip(spec.components, (ks, n - ks)):
                    if comp.support == s and len(s) >= 2:
                        vals = vals + math.log2(comp.level) * k / n
                return (vals - mean) ** 2
            return f

        ghz_var, *epr_vars = _binomial_expectations(
            n, csq[0], [deviation(full, ghz_mean)]
            + [deviation(s, epr_mean.get(s, 0.0)) for s in subsets])
        return dict(zip(subsets, epr_vars)), ghz_var

    try:
        counts = blocks._block_counts(n, ncomp)
    except BudgetError:  # too many blocks: no exact path
        return {s: math.nan for s in subsets}, math.nan
    lmult = blocks.log2_multinomial(counts)
    # 0 if dead
    w = np.exp2(blocks._log2_block_probabilities(counts, lmult, csq))
    y = blocks._block_yield_table(counts, lmult, spec)
    ghz2 = float(w @ (y[full] / n - ghz_mean) ** 2)
    acc2 = {s: float(w @ (y[s] / n - epr_mean.get(s, 0.0)) ** 2)
            for s in subsets}
    return acc2, ghz2


def block_outcomes(spec: StateSpec, n: int,
                   party: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The block measurement as data: the count vector of each outcome as
    the rows of an int64 matrix, and the outcome of each of ``party``'s
    N-copy labels.

    Any party works: component label ranges are disjoint on every party,
    so each local label sequence identifies the block. Outcomes follow the
    lexicographic order of the count vectors.
    """
    n = _integer(n, "n", 1)
    party = _integer(party, "party", 0, spec.party_count)
    d = spec.local_dims()[party]
    _check_budget(f"block measurement of {n} copies on party {party}",
                  "projector labels", lambda: d**n, n * math.log2(d))
    return _unique_rows(blocks.classify_copies_label(
        spec, party, np.arange(d**n), n))


def block_measurement_povm(spec: StateSpec, n: int,
                           party: int = 0) -> tuple[locc.Povm, np.ndarray]:
    """``block_outcomes`` expanded into one 0/1 diagonal per outcome, and
    the count matrix."""
    counts, block_of = block_outcomes(spec, n, party)
    elements = [locc.diagonal_operator(party, block_of == j)
                for j in range(len(counts))]
    return locc.Povm(party, tuple(elements)), counts


def run_extraction(spec: StateSpec, n: int, trials: int, seed: int,
                   analytic: bool = False, verify_blocks: bool = False
                   ) -> tuple[YieldReport, locc.Transcript]:
    """Sample the block measurement ``trials`` times and account the yields.

    Explicit mode builds the N-copy state and measures it on party 0's
    labels (``block_outcomes``, no POVM is built); analytic mode draws
    block indices from the multinomial law directly (identical
    statistics at any N). Each trial uses its own sub-seed: explicit mode
    reads the first uniform of every trial's stream at once
    (``stream_uniforms``) and draws all outcomes in one ``searchsorted``;
    analytic mode seeds each trial as it draws it (``trial_seed``).
    """
    n, trials = _integer(n, "n", 1), _integer(trials, "trials", 1)
    _check_budget("extraction", "sampling trials", trials)
    csq = spec.squared_coefficients()
    full = tuple(range(spec.party_count))
    subsets = sorted({c.support for c in spec.components
                      if len(c.support) >= 2 and c.support != full})

    if analytic:
        drawn = np.empty((trials, len(csq)), dtype=np.int64)
        for t in range(trials):
            drawn[t] = locc.as_generator(
                locc.trial_seed(seed, t)).multinomial(n, csq)
        counts, picks = _unique_rows(drawn)
        lmult = blocks.log2_multinomial(counts)
        logp = blocks._log2_block_probabilities(counts, lmult, csq)
        ids = np.array([_flat_outcome(tuple(row)) for row in counts.tolist()],
                       dtype=object)
        probs = np.array([2.0 ** lp for lp in logp.tolist()])
    else:
        u = locc.stream_uniforms(seed, 1, np.arange(trials))[:, 0]
        _check_copies(sum(c.terms for c in spec.components), n)
        counts, block_of = block_outcomes(spec, n)
        state = copies(psi_general(spec), n)
        probs = locc.projective_probabilities(state, 0, block_of)
        lmult = blocks.log2_multinomial(counts)
        if verify_blocks:
            _verify_blocks(spec, state, block_of, counts, lmult, probs)
        ids = np.arange(len(counts))  # every block is an outcome
        picks = locc._draw(np.cumsum(probs), u)
    transcript = locc.Transcript()
    transcript.extend(range(trials), 0, ids[picks], probs[picks],
                      prefix="trial")
    # ids, probabilities and yields per row of ``counts`` (in analytic mode
    # each distinct drawn row); ``picks`` selects each trial's row
    yields = blocks._block_yield_table(counts, lmult, spec)
    samples = {s: v[picks] / n for s, v in yields.items()}
    # each yield at N <= EXACT_N_MAX is the correctly rounded log2 of an
    # exact integer, and the samples' own spread is as good
    spread = samples
    if n > blocks.EXACT_N_MAX:
        # yields of about N units vary by about sqrt(N), and log2 N! - sum
        # log2 k_i! carries the rounding of log2 N!: the spread is taken
        # from each trial's yields less the first trial's, formed from the
        # count differences
        drawn = counts[picks]
        table = blocks._block_yield_table(
            drawn - drawn[0],
            -blocks._log2_factorial_diff(drawn, drawn[0]).sum(axis=-1), spec)
        spread = {s: v / n for s, v in table.items()}

    ddof = 1 if trials > 1 else 0
    report = YieldReport(
        n,
        {s: float(samples[s].mean()) for s in subsets},
        float(samples[full].mean()),
        {s: float(spread[s].var(ddof=ddof)) for s in subsets},
        float(spread[full].var(ddof=ddof)),
        trials=trials,
    )
    return report, transcript


def _flat_outcome(counts: tuple[int, ...]) -> int:
    """Deterministic scalar id for a count vector (for transcript lines):
    its position in the lexicographic enumeration. At each position, the
    vectors with a smaller entry there come first; with r copies and c
    components left after it, they number sum_{s<k} C(r-s+c-1, c-1) =
    C(r+c, c) - C(r-k+c, c) by the hockey-stick identity."""
    rank, remaining, left = 0, sum(counts), len(counts) - 1
    for k in counts[:-1]:
        rank += (math.comb(remaining + left, left)
                 - math.comb(remaining - k + left, left))
        remaining, left = remaining - k, left - 1
    return rank


def _verify_blocks(spec, state, block_of, counts, lmult, probs):
    """Every branch of the block measurement must have the block's
    probability, within 1e-12, and amplitudes of one magnitude; branches of
    the seed's layout must be the canonical pair x row-GHZ blocks."""
    seed_layout = (spec.party_count == 3 and [(c.support, c.level) for c in
                                              spec.components]
                   == [((0,), 2), ((1, 2), 2)])
    want = np.exp2(blocks._log2_block_probabilities(
        counts, lmult, spec.squared_coefficients()))
    outcome = block_of[state.labels[:, 0]]
    for j, row in enumerate(counts.tolist()):
        if abs(probs[j] - want[j]) > 1e-12:
            raise AssertionError(f"block {tuple(row)} has probability "
                                 f"{probs[j]!r}, not {want[j]!r}")
        if probs[j] <= 1e-12:
            continue
        mask = outcome == j
        mag = np.abs(state.amps[mask])
        if mag.max() - mag.min() > 1e-12 * mag.max():
            raise AssertionError(f"block {tuple(row)} has amplitudes of "
                                 "unequal magnitude")
        if not seed_layout:
            continue
        k, n = row[0], sum(row)
        post = PureState(state.local_dims, state.labels[mask],
                         state.amps[mask] / math.sqrt(probs[j]))
        if not states_equal(post, blocks.block_state(n, k)):
            raise AssertionError(f"post-measurement state of block "
                                 f"({n},{k}) is not the canonical block "
                                 "state")
        if not blocks.verify_block_equivalence(n, k):
            raise AssertionError(f"block ({n},{k}) failed the canonical "
                                 "pair x GHZ equivalence")


def entropy_consistency(spec: StateSpec) -> bool:
    """Every bipartite entanglement entropy must equal the crossing rates:
    sum of l_T over subsets T crossing the cut, plus the full-set rate."""
    state = psi_general(spec)
    rates = asymptotic_rates(spec)
    m = spec.party_count
    parties = set(range(m))
    for bits in range(1, 2 ** (m - 1)):
        cut = tuple(p for p in range(m) if (bits >> p) & 1)
        rest = parties - set(cut)
        expect = rates.full
        for sub, l in rates.per_subset.items():
            if set(sub) & set(cut) and set(sub) & rest:
                expect += l
        if abs(entanglement_entropy(state, cut) - expect) > NORM_TOL:
            return False
    return True
