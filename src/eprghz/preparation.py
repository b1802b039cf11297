"""Reverse protocol: assemble N-copy states of the seed from canonical inputs.

Two copies come out exactly; general N comes out as the normalized
truncation of the N-copy power to a window of blocks around the probability
peak, with fidelity approaching 1 while the consumed resources stay within
a sublinear excess of the asymptotic rates. A branch weights the rows of a
uniform GHZ-type state on A, attaches B-C pairs and shortens each row on B
to its block's length, each stage with m outcomes of probability 1/m; all
terms of a row share one amplitude, so the branch is held as its rows.
``ghz_weighting_povm`` and ``row_shorten_povm`` write the stages out as
POVMs for completeness checks, each outcome with its correction, a label
map old[i] -> new[i] as int64 arrays ``(old, new)``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (NORM_TOL, PRUNE_EPS, PureState, _check_budget,
                      _has_repeats, _unit_sum, _valid_state, squared_norm)
from .canonical import _check_unit, _integer
# called through its module object, so that the closed forms (fidelity,
# windows, resource counts) never run it
from . import locc
from .blocks import _binomial_bulk_chunks, block_labels, log2_binomial_array


class Window(NamedTuple):
    """Block index band [k_minus, k_plus] kept by the truncated target."""

    k_minus: int
    k_plus: int


@dataclass(frozen=True)
class ResourceCount:
    """Canonical inputs consumed: ebits per entangled subset plus full-set
    GHZ units (log2 of the level actually used, or of its planning bound)."""

    epr_per_subset: dict[tuple[int, ...], float]
    ghz: float


def _check_c0_sq(c0_sq: float) -> None:
    """Refuse a block weight c0^2 outside [0, 1], NaN too."""
    if not 0.0 <= c0_sq <= 1.0:
        raise ValueError(f"c0_sq {c0_sq} outside [0, 1]")


def target_window(n: int, c0_sq: float, alpha: float = 1.0,
                  beta: float = 0.6) -> Window:
    """Integer window c0^2 N -/+ alpha N^beta, rounded inward and clamped.

    Blocks with zero amplitude (c0^2 at 0 or 1) are dropped from the band:
    a window must never claim resources for dead blocks.
    """
    n = _integer(n, "n", 1)
    _check_c0_sq(c0_sq)
    _window_shape(alpha, beta)
    half = alpha * n**beta
    lo, hi = c0_sq * n - half, c0_sq * n + half
    k_minus, k_plus = math.ceil(max(lo, 0)), math.floor(min(hi, n))
    if c0_sq == 0.0:
        k_plus = 0
    if c0_sq == 1.0:
        k_minus = n
    if k_minus > k_plus:
        raise ValueError(f"window c0^2*N -/+ alpha*N^beta = [{lo:.6g}, "
                         f"{hi:.6g}] holds no block index; raise --alpha")
    return Window(k_minus, k_plus)


def _window_shape(alpha: float, beta: float) -> None:
    """Refuse a half-width alpha N^beta unless alpha > 0 and 1/2 < beta < 1."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.5 < beta < 1.0:
        raise ValueError(f"beta must lie in (1/2, 1), got {beta}")


def _read_window(n, window) -> tuple[int, Window]:
    """``n`` and a window (``Window`` or pair) as integers, checked:
    1 <= n and 0 <= k_minus <= k_plus <= n."""
    n = _integer(n, "n", 1)
    k_minus, k_plus = (_integer(k, "window bound") for k in window)
    if not 0 <= k_minus <= k_plus <= n:
        raise ValueError(f"window ({k_minus}, {k_plus}) outside 0..{n}")
    return n, Window(k_minus, k_plus)


def fidelity(n: int, c0_sq: float, window) -> float:
    """Squared overlap of the windowed target with the full N-copy power:
    the binomial mass inside the window.

    Only the binomial bulk is summed (blocks._binomial_bulk: the k left out
    carry mass below 2**-64 by Bernstein's inequality), in chunks, so work
    is O(sqrt(N)) and memory O(chunk) at any N; a window wholly
    outside the bulk gives 0, within 2**-64 of its mass. Summed as the
    complement of the tail mass when the window holds the bulk, so the
    result stays monotone in N instead of drowning in the absolute
    rounding noise of huge log-binomial values.
    """
    n, (k_minus, k_plus) = _read_window(n, window)
    _check_c0_sq(c0_sq)
    total = inside = left = right = 0.0
    for ks, logp in _binomial_bulk_chunks(n, c0_sq):
        p = np.exp2(logp)
        start = int(ks[0])
        a = min(max(k_minus - start, 0), len(p))
        b = min(max(k_plus + 1 - start, 0), len(p))
        total += float(p.sum())
        inside += float(p[a:b].sum())
        left += float(p[:a].sum())
        right += float(p[b:].sum())
    if inside >= total / 2.0:
        return min(1.0, max(0.0, (total - (left + right)) / total))
    return min(1.0, max(0.0, inside / total))


def fidelity_bound(n: int, alpha: float = 1.0, beta: float = 0.6) -> float:
    """Central normal mass at 2*alpha*N^(beta-1/2): the guaranteed floor
    under the fidelity for the default window of the same alpha, beta."""
    n = _integer(n, "n", 1)
    _window_shape(alpha, beta)
    x = 2.0 * alpha * float(n) ** (beta - 0.5)
    return math.erf(x / math.sqrt(2.0))


def resource_count(n: int, window) -> ResourceCount:
    """Planning bound for the windowed target: N - k_minus ebits on the
    pair subset, and GHZ units bounded by the window width times the
    largest block multiplicity (at k0, the window point nearest N/2,
    smaller index on ties)."""
    n, (k_minus, k_plus) = _read_window(n, window)
    k0 = min(max(n // 2, k_minus), k_plus)
    ghz = math.log2(k_plus - k_minus + 1) + float(log2_binomial_array(n, k0))
    return ResourceCount({(1, 2): float(n - k_minus)}, ghz)


def _check_terms(n: int, window: Window, what: str) -> None:
    """Refuse the "windowed target" (rows of 2**(n - k) terms) or the
    "protocol" (2**(n - k_minus) pair levels on every row) over the
    explicit budget, before anything is built: the sum of
    C(n, k) * 2**shift(k) over the window, whose summand near the peak
    (k = n/3 or n/2) bounds it below."""
    k_minus, k_plus = window
    ks = np.clip([(n + 1) // 3, n // 2], k_minus, k_plus)

    def shift(k):
        return n - (k if what == "windowed target" else k_minus)
    _check_budget(what, "explicit terms", lambda: sum(
        math.comb(n, k) * 2**shift(k) for k in range(k_minus, k_plus + 1)),
        float(np.max(log2_binomial_array(n, ks) + shift(ks))))


def build_target(n: int, c0: float, c1: float, window) -> PureState:
    """Explicit windowed target: the normalized restriction of the N-copy
    power to the window's blocks (small N only)."""
    _check_unit(c0, c1)
    n, (k_minus, k_plus) = _read_window(n, window)
    _check_terms(n, (k_minus, k_plus), "windowed target")
    ks, a, row, bc = block_labels(n, k_minus, k_plus)
    amps = np.array([c0**k * c1**(n - k) / math.sqrt(2**(n - k))
                     for k in range(k_minus, k_plus + 1)])[ks[row] - k_minus]
    norm = math.sqrt(squared_norm(amps))
    if norm == 0.0:
        raise ValueError("window carries no amplitude for these coefficients")
    return PureState((2**n, 3**n, 3**n), np.column_stack([a[row], bc, bc]),
                     amps / norm)


def _weighting_stage(weights):
    """Imprint row weights on a uniform t-level GHZ-type state, as a stage
    ``(t, element, correction)`` on party A.

    Element j is diagonal with entry weights[(m - j) mod t] at level m, so
    the t elements are cyclic shifts of one diagonal and completeness is
    the normalization of the weights. On the uniform state every outcome
    has probability exactly 1/t, and outcome j's correction, the cyclic
    relabeling m -> m - j as ``(old, new)`` int64 arrays (empty for j = 0),
    applied on every party lands each branch on the same weighted state.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) < 1:
        raise ValueError("weights must be a non-empty vector")
    t = len(w)
    # the t diagonals of the expanded POVM bound what a t-row window costs
    _check_budget(f"weighting POVM of {t} rows x {t} diagonal entries",
                  "explicit terms", t * t)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    _unit_sum(float(w @ w), "squared weights")
    m = np.arange(t)
    return (t, lambda j: locc.diagonal_operator(0, np.roll(w, j)),
            lambda j: (m, (m - j) % t) if j else (m[:0], m[:0]))


def ghz_weighting_povm(weights) -> tuple[locc.Povm, tuple]:
    """The weighting stage (``_weighting_stage``) expanded: its POVM and
    per-outcome corrections."""
    m, element, correction = _weighting_stage(weights)
    return (locc.Povm(0, tuple(element(j) for j in range(m))),
            tuple(correction(j) for j in range(m)))


def row_shorten_povm(labels, keep: int,
                     dim: int | None = None) -> tuple[locc.Povm, tuple]:
    """Cut one row, given by its distinct labels, to ``keep`` of them
    (a divisor of its length) without moving any row weight: a POVM on
    party B and its corrections. Element o keeps the o-th chunk of the
    row's labels at unit weight, kills the rest of the row, and scales
    every other label by sqrt(keep/length): every outcome has probability
    keep/length. Correction o, as ``(old, new)`` int64 arrays, swaps the
    kept chunk with the row's first ``keep`` labels (outcome 0's is empty);
    applied on each party sharing the labels, all outcomes land on the same
    shortened state."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    keep = _integer(keep, "keep count")
    if _has_repeats(labels):
        raise ValueError("row labels repeat")
    if not 1 <= keep <= len(labels) or len(labels) % keep:
        raise ValueError(
            f"keep count {keep} does not divide row length {len(labels)}")
    top = int(labels.max())
    dim = top + 1 if dim is None else dim
    if labels.min() < 0 or top >= dim:
        raise ValueError(f"row labels {int(labels.min())}..{top} outside "
                         f"0..{dim - 1}")
    chunks, elements, corrections = labels.reshape(-1, keep), [], []
    for o, chunk in enumerate(chunks):
        diag = np.full(dim, math.sqrt(keep / len(labels)))
        diag[labels] = 0.0
        diag[chunk] = 1.0
        elements.append(locc.diagonal_operator(1, diag))
        swap = np.concatenate([chunk, chunks[0]]) if o else labels[:0]
        corrections.append((swap, np.roll(swap, keep)))
    return locc.Povm(1, tuple(elements)), tuple(corrections)


def _live(rows, amps):
    """A branch's rows (labels and amplitudes) without those at or below
    ``PRUNE_EPS``, dropped whole as ``_seal`` drops terms."""
    keep = np.hypot(amps.real, amps.imag) > PRUNE_EPS
    return rows[keep], amps[keep]


def _stage(rows, amps, counts, m, outcome, step):
    """The rows that the drawn outcome of an m-outcome stage weighted to
    ``amps``, renormalized and ``_live``, and its probability, summed over
    each row's ``counts`` live terms (``squared_norm``): it must be 1/m."""
    sq = squared_norm(amps, counts)
    if abs(sq - 1.0 / m) > NORM_TOL:
        raise locc.ImpossibleOutcomeError(f"{step}: outcome {outcome} has "
                                          f"probability {sq:.17g}, not 1/{m}")
    return (*_live(rows, amps / math.sqrt(sq)), sq)


def stage_count(n: int, window) -> int:
    """Stages one branch of ``prepare_approx`` measures, one uniform draw
    each: the weighting stage and one shortening stage per window row."""
    n, (k_minus, k_plus) = _read_window(n, window)
    return 1 + sum(math.comb(n, k) for k in range(k_minus, k_plus + 1))


def _protocol(n: int, c0: float, c1: float, window: Window | None):
    """A request's protocol, checked and formed once for all its branches:
    a runner from a branch's stage doubles to its state and its transcript
    columns (``Transcript.extend``'s four), the stage count and the
    resources. Checks precede the work they guard: unit rule, window,
    protocol terms, row weights and the weighting stage's budget; the
    labels come last."""
    _check_unit(c0, c1)
    n, (k_minus, k_plus) = _read_window(
        n, target_window(n, c0 * c0) if window is None else window)
    _check_terms(n, (k_minus, k_plus), "protocol")
    pair_levels = 2**(n - k_minus)
    # block_labels lists its rows by block index k, C(n, k) rows each
    lam = np.repeat([c0**k * c1**(n - k) for k in range(k_minus, k_plus + 1)],
                    [math.comb(n, k) for k in range(k_minus, k_plus + 1)])
    nrm = float(np.linalg.norm(lam))
    if nrm == 0.0:
        raise ValueError("window carries no amplitude for these coefficients")
    t, element, correction = _weighting_stage(lam / nrm)
    ks, a, row, bc = block_labels(n, k_minus, k_plus)
    big_r = len(ks)
    keeps = np.bincount(row)
    steps = ("weighting", *(f"shorten_row{g}" for g in range(big_r)))
    stages = len(steps)
    parties = np.repeat([0, 1], [1, big_r])  # A weighs, B shortens

    def branch(draws) -> tuple[PureState, tuple]:
        outcomes, probs = np.empty(stages, dtype=np.int64), np.empty(stages)
        # the branch as its rows in support order, a label and an amplitude
        # each: every live term of a row carries its row's amplitude
        outcome = outcomes[0] = locc._draw(np.arange(1, t + 1) / t,
                                           draws[0])
        op, (old, new) = element(outcome), correction(outcome)
        rows = np.arange(big_r)
        rows[old] = new
        amps = op.weights * complex(1.0 / math.sqrt(big_r))
        rows, amps, probs[0] = _stage(rows, amps, 1, t, outcome, steps[0])
        # attach the pairs: each row's amplitude times theirs
        rows, amps = _live(rows, amps * complex(1.0 / math.sqrt(pair_levels)))
        # stage g keeps one chunk of row g's terms and weighs every other row
        # by sqrt(keep/length); rows 0..g are now of their blocks' length
        for g, (keep, u) in enumerate(zip(keeps.tolist(), draws[1:])):
            m = pair_levels // keep
            outcome = outcomes[1 + g] = locc._draw(np.arange(1, m + 1) / m, u)
            weights = np.where(rows == g, 1.0, math.sqrt(keep / pair_levels))
            rows, amps, probs[1 + g] = _stage(rows, weights * amps, np.where(
                rows <= g, keeps[rows], pair_levels), m, outcome, steps[1 + g])
        # expand: row g's live terms are its block_labels terms
        counts = keeps[rows]
        terms = np.arange(counts.sum()) + np.repeat(
            np.searchsorted(row, rows) - np.cumsum(counts) + counts, counts)
        state = _valid_state((2**n, 3**n, 3**n), np.column_stack(
            [a[row[terms]], bc[terms], bc[terms]]), np.repeat(amps, counts))
        return state, (steps, parties, outcomes, probs)

    return branch, stages, ResourceCount({(1, 2): float(n - k_minus)},
                                         math.log2(big_r))


def prepare_approx(n: int, c0: float, c1: float, seed=0,
                   window: Window | None = None
                   ) -> tuple[PureState, locc.Transcript, ResourceCount]:
    """One branch of the windowed preparation protocol, landing exactly on
    build_target for the same window (default: target_window(n, c0**2)).
    Inputs: one R-level GHZ-type state (R = window row count) and
    N - k_minus B-C pairs. Steps: weight the rows, attach the pairs,
    shorten each row to its block's length, then expand the rows to their
    terms in the N-copy label space.

    Stage j draws with the j-th double of ``seed``'s stream
    (``locc.uniform_draws``): an int seed's root stream, a Generator or
    SeedSequence, or the ``stage_count`` doubles themselves.
    """
    branch, stages, resources = _protocol(n, c0, c1, window)
    state, columns = branch(locc.uniform_draws(seed, stages))
    transcript = locc.Transcript()
    transcript.extend(*columns)
    return state, transcript, resources


def prepare_exact_n2(c0: float, c1: float, seed=0
                     ) -> tuple[PureState, locc.Transcript, ResourceCount]:
    """Two copies of the seed state, exactly, from 2 B-C pairs and a
    4-level GHZ-type state (2 canonical GHZ units), on every branch."""
    return prepare_approx(2, c0, c1, seed=seed, window=(0, 2))
