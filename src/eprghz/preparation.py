"""Reverse protocol: assemble N-copy states of the seed from canonical inputs.

Two copies come out exactly; general N comes out as the normalized
truncation of the N-copy power to a window of blocks around the probability
peak, with fidelity approaching 1 while the consumed resources stay within
a sublinear excess of the asymptotic rates. The two measurement primitives
are a weighting stage on A (imprint arbitrary row weights on a uniform
GHZ-type state, every outcome correctable) and row shortening on B (cut a
row's length by an integer factor without touching any row weight). Each
is one stage ``(m, element, correction)``: m outcomes of probability 1/m,
and for outcome o its diagonal element and its correction, a label map
old[i] -> new[i] as int64 arrays ``(old, new)`` that one ``relabel`` call
applies on every entangled party. The protocol builds only the drawn
outcome's element; ``ghz_weighting_povm`` and ``row_shorten_povm`` expand
the same stages into every element, as POVMs for completeness checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (NORM_TOL, PureState, _check_budget, _has_repeats,
                      relabel, squared_norm, tensor)
from .canonical import _check_unit, level_epr, level_ghz
from .locc import (ImpossibleOutcomeError, Povm, Transcript, _draw,
                   apply_element, diagonal_operator, uniform_draws)
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
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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


def _window_tuple(window, n: int) -> Window:
    """A window, ``Window`` or pair, checked against 0..n."""
    k_minus, k_plus = map(int, window)
    if not 0 <= k_minus <= k_plus <= n:
        raise ValueError(f"window ({k_minus}, {k_plus}) outside 0..{n}")
    return Window(k_minus, k_plus)


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
    n = int(n)
    k_minus, k_plus = _window_tuple(window, n)
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
    x = 2.0 * alpha * float(n) ** (beta - 0.5)
    return math.erf(x / math.sqrt(2.0))


def resource_count(n: int, window) -> ResourceCount:
    """Planning bound for the windowed target: N - k_minus ebits on the
    pair subset, and GHZ units bounded by the window width times the
    largest block multiplicity (at k0, the window point nearest N/2,
    smaller index on ties)."""
    n = int(n)
    k_minus, k_plus = _window_tuple(window, n)
    k0 = min(max(n // 2, k_minus), k_plus)
    ghz = math.log2(k_plus - k_minus + 1) + float(log2_binomial_array(n, k0))
    return ResourceCount({(1, 2): float(n - k_minus)}, ghz)


def _check_terms(n: int, window: Window, *whats: str) -> None:
    """Refuse, in the order given, the "windowed target" (rows of 2**(n - k)
    terms) or the "protocol" (2**(n - k_minus) pair levels on every row)
    over the explicit budget, before anything is built: the sum of
    C(n, k) * 2**shift(k) over the window, whose summand near the peak
    (k = n/3 or n/2) bounds it below."""
    k_minus, k_plus = window
    ks = np.clip([(n + 1) // 3, n // 2], k_minus, k_plus)
    for what in whats:
        def shift(k):
            return n - (k if what == "windowed target" else k_minus)
        _check_budget(what, "explicit terms", lambda: sum(
            math.comb(n, k) * 2**shift(k) for k in range(k_minus, k_plus + 1)),
            float(np.max(log2_binomial_array(n, ks) + shift(ks))))


def build_target(n: int, c0: float, c1: float, window) -> PureState:
    """Explicit windowed target: the normalized restriction of the N-copy
    power to the window's blocks (small N only)."""
    _check_unit(c0, c1)
    n = int(n)
    k_minus, k_plus = window = _window_tuple(window, n)
    _check_terms(n, window, "windowed target")
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
    if not abs(float(w @ w) - 1.0) <= NORM_TOL:  # NaN too
        raise ValueError(f"weights have squared sum {float(w @ w)}, need 1")
    m = np.arange(t)
    return (t, lambda j: diagonal_operator(0, np.roll(w, j)),
            lambda j: (m, (m - j) % t) if j else (m[:0], m[:0]))


def _shorten_stage(labels, keep: int, dim: int | None = None):
    """Cut one row, given by its distinct labels, to ``keep`` of them
    without moving any row weight, as a stage ``(length/keep, element,
    correction)`` on party B; ``keep`` must divide the row length.

    Outcome o keeps the o-th chunk of the row's labels at unit weight,
    kills the rest of the row, and scales every other label by
    sqrt(keep/length), which makes the stage complete and every outcome
    probability exactly keep/length. Correction o, as ``(old, new)`` int64
    arrays, swaps the kept chunk with the row's first ``keep`` labels
    (outcome 0's is empty); applied on each party sharing the labels, all
    outcomes land on the same shortened state, row weights untouched.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    keep = int(keep)
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
    chunks = labels.reshape(-1, keep)

    def element(o):
        diag = np.full(dim, math.sqrt(keep / len(labels)))
        diag[labels] = 0.0
        diag[chunks[o]] = 1.0
        return diagonal_operator(1, diag)

    def correction(o):
        if not o:
            return labels[:0], labels[:0]
        swap = np.concatenate([chunks[o], chunks[0]])
        return swap, np.roll(swap, keep)

    return len(chunks), element, correction


def _expand(stage) -> tuple[Povm, tuple]:
    """A stage's every element as one POVM, and every correction."""
    m, element, correction = stage
    elements = tuple(element(o) for o in range(m))
    return (Povm(elements[0].party, elements),
            tuple(correction(o) for o in range(m)))


def ghz_weighting_povm(weights) -> tuple[Povm, tuple]:
    """The weighting stage (``_weighting_stage``) expanded: its POVM and
    per-outcome corrections."""
    return _expand(_weighting_stage(weights))


def row_shorten_povm(labels, keep: int,
                     dim: int | None = None) -> tuple[Povm, tuple]:
    """One row's shortening stage (``_shorten_stage``) expanded: its POVM
    and per-outcome corrections."""
    return _expand(_shorten_stage(labels, keep, dim))


def _measure(state, stage, parties, u, transcript, step) -> PureState:
    """Draw an outcome o of an ``(m, element, correction)`` stage from its
    builder's uniform law 1/m with the uniform ``u``, build and apply
    ``element(o)`` alone, check its probability, record it and relabel
    ``parties`` by ``correction(o)``."""
    m, element, correction = stage
    outcome = int(_draw(np.arange(1, m + 1) / m, u))
    op = element(outcome)
    state, sq = apply_element(state, op)
    if abs(sq - 1.0 / m) > NORM_TOL:
        raise ImpossibleOutcomeError(f"{step}: outcome {outcome} has "
                                     f"probability {sq:.17g}, not 1/{m}")
    transcript.add(step, op.party, outcome, sq)
    old, new = correction(outcome)
    return relabel(state, parties, old, new) if old.size else state


def stage_count(n: int, window) -> int:
    """Stages one branch of ``prepare_approx`` measures, one uniform draw
    each: the weighting stage and one shortening stage per window row."""
    n = int(n)
    k_minus, k_plus = _window_tuple(window, n)
    return 1 + sum(math.comb(n, k) for k in range(k_minus, k_plus + 1))


def prepare_approx(n: int, c0: float, c1: float, seed=0,
                   window: Window | None = None
                   ) -> tuple[PureState, Transcript, ResourceCount]:
    """One branch of the windowed preparation protocol, landing exactly on
    build_target for the same window (default: target_window(n, c0**2)).
    Inputs: one R-level GHZ-type state (R = window row count) and
    N - k_minus B-C pairs. Steps: weight the rows, attach the pairs,
    shorten each row to its block's length (each stage built just before
    it is sampled), then relabel every party into the N-copy label space.

    Stage j draws with the j-th double of ``seed``'s stream
    (``locc.uniform_draws``): an int seed's root stream, a Generator or
    SeedSequence, or the ``stage_count`` doubles themselves.
    """
    _check_unit(c0, c1)
    n = int(n)
    k_minus, k_plus = window = _window_tuple(
        target_window(n, c0 * c0) if window is None else window, n)
    _check_terms(n, window, "protocol")
    pair_levels = 2**(n - k_minus)
    ks, a, row, bc = block_labels(n, k_minus, k_plus)
    big_r = len(ks)

    lam = np.array([c0**k * c1**(n - k)
                    for k in range(k_minus, k_plus + 1)])[ks - k_minus]
    nrm = float(np.linalg.norm(lam))
    if nrm == 0.0:
        raise ValueError("window carries no amplitude for these coefficients")

    draws, transcript = uniform_draws(seed, 1 + big_r), Transcript()
    state = _measure(level_ghz(big_r, (0, 1, 2)),
                     _weighting_stage(lam / nrm), (0, 1, 2),
                     draws[0], transcript, "weighting")
    state = tensor(state, level_epr(pair_levels, (1, 2), 3))

    # term e of row g sits at g*pair_levels + e on B and C; the row keeps
    # the first 2**(n - k) of its labels
    for g, keep in enumerate(np.bincount(row).tolist()):
        labels = np.arange(g * pair_levels, (g + 1) * pair_levels)
        stage = _shorten_stage(labels, keep, dim=big_r * pair_levels)
        state = _measure(state, stage, (1, 2), draws[1 + g], transcript,
                         f"shorten_row{g}")

    e = np.arange(len(row)) - np.searchsorted(row, row)
    state = relabel(state, 0, np.arange(big_r), a, new_dim=2**n)
    state = relabel(state, (1, 2), row * pair_levels + e, bc, new_dim=3**n)
    return state, transcript, ResourceCount({(1, 2): float(n - k_minus)},
                                            math.log2(big_r))


def prepare_exact_n2(c0: float, c1: float, seed=0
                     ) -> tuple[PureState, Transcript, ResourceCount]:
    """Two copies of the seed state, exactly, from 2 B-C pairs and a
    4-level GHZ-type state (2 canonical GHZ units), on every branch."""
    return prepare_approx(2, c0, c1, seed=seed, window=(0, 2))
