"""Local operations and classical communication: operators, POVMs, sampling.

Every protocol step is one of two kinds of local operation: a diagonal
weighting of one party's labels, ``|x> -> weights[x] |x>`` (a
``LocalOperator``: measurement elements and projectors), or a label
permutation, ``hilbert.relabel`` (corrections and the final embedding).
A weighting keeps labels and dimensions and drops the terms it weighs 0.
``M^dag M`` is the diagonal matrix ``|weights|**2``, so a POVM is complete
exactly when ``sum_j |w_j[x]|**2 = 1`` for every label x. The protocols
apply measurements without forming a ``Povm``: a projective measurement is
one label -> outcome array (``projective_probabilities``), and a
preparation branch weighs its rows by the drawn outcome's rule. A ``Povm``
is their expansion into every element, for completeness checks and Born
sampling (``sample``). Classical communication is implicit: later
operations may depend on outcome indices recorded in a transcript.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, combinations

import numpy as np

from .hilbert import (NORM_TOL, PureState, _integer, _label_map, _lookup,
                      _row_codes, _valid_state, squared_norm)

IMPOSSIBLE_EPS = 1e-12
ORTHO_EPS = 1e-12


class ImpossibleOutcomeError(RuntimeError):
    """A branch at (numerical) zero probability was forced, or a drawn
    outcome's probability departs from the one its construction gives."""


@dataclass(frozen=True)
class LocalOperator:
    """Diagonal weighting on one party: ``|x> -> weights[x] |x>``.

    Boolean weights (0/1 projectors) stay boolean, one byte a label; other
    real weights are kept as float64, complex ones as complex128. Weights
    already of that type are kept, not copied.
    """

    party: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        w = w.astype(bool if w.dtype == bool
                     else complex if np.iscomplexobj(w) else float,
                     copy=False)
        if w.ndim != 1 or not len(w):
            raise ValueError("operator weights must be a non-empty vector")
        party = _integer(self.party, "party")
        if party < 0:
            raise ValueError(f"party must be non-negative, got {party}")
        object.__setattr__(self, "party", party)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return len(self.weights)


def diagonal_operator(party: int, values) -> LocalOperator:
    return LocalOperator(party, values)


def permutation_operator(party, old, new, dim: int) -> tuple:
    """Unitary relabeling |old[i]> -> |new[i]> (int arrays) of the labels
    0..dim-1 of one party or several, as ``relabel``'s arguments
    ``(party, old, new)``: apply it as ``relabel(s, *permutation_operator(
    ...))``. The map, completed by the identity, must permute 0..dim-1,
    so a correction is a local unitary; ``relabel`` itself only needs the
    map to be injective on the support."""
    old, new = _label_map(old, new)
    if old.size and (old.min() < 0 or old.max() >= dim):
        raise ValueError(f"label map source outside 0..{dim - 1}")
    image = np.arange(dim)
    image[old] = new
    if not np.array_equal(np.sort(image), np.arange(dim)):
        raise ValueError(f"label map does not permute 0..{dim - 1}")
    return party, old, new


@dataclass(frozen=True)
class Povm:
    """A list of local operators on one party, intended to be complete."""

    party: int
    elements: tuple[LocalOperator, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("a POVM needs at least one element")
        if any(e.party != elems[0].party for e in elems):
            raise ValueError("POVM elements act on different parties")
        if any(e.dim != elems[0].dim for e in elems):
            raise ValueError("POVM elements have mismatched dimensions")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "party", int(elems[0].party))

    @property
    def dim(self) -> int:
        return self.elements[0].dim


def check_completeness(p: Povm) -> bool:
    """True iff sum_j M_j^dag M_j is the identity within NORM_TOL (max entry),
    that is, iff every label's squared weights sum to 1."""
    total = np.zeros(p.dim)
    for e in p.elements:
        total += np.abs(e.weights) ** 2
    return float(np.abs(total - 1.0).max()) <= NORM_TOL


def _weighted(s: PureState, op: LocalOperator):
    """Mask of the terms of ``s`` with a nonzero weight on the operator's
    party, and their weighted amplitudes in support order."""
    if op.party >= s.party_count:
        raise ValueError(f"party {op.party} outside 0..{s.party_count - 1}")
    if op.dim != s.local_dims[op.party]:
        raise ValueError(
            f"operator dim {op.dim} != local dim "
            f"{s.local_dims[op.party]} of party {op.party}")
    w = op.weights[s.labels[:, op.party]]
    live = w != 0
    return live, w[live] * s.amps[live]


def apply_operator(s: PureState, op: LocalOperator) -> PureState:
    """Apply without renormalizing: keep the terms with a nonzero weight,
    scaled by it; labels and dimensions are unchanged."""
    live, amps = _weighted(s, op)
    return _valid_state(s.local_dims, s.labels[live], amps)


def apply_element(s: PureState, op: LocalOperator) -> tuple[PureState, float]:
    """Apply one measurement operator; return (normalized state, probability).

    Probability is the squared norm of the unnormalized branch. A branch at
    numerically zero probability raises rather than returning garbage.
    """
    live, amps = _weighted(s, op)
    sq = squared_norm(amps)
    if sq <= IMPOSSIBLE_EPS:
        raise ImpossibleOutcomeError(
            f"outcome on party {op.party} has probability {sq:.3e}")
    return _valid_state(s.local_dims, s.labels[live],
                        amps / math.sqrt(sq)), sq


def _integers(values, what: str) -> np.ndarray:
    """A column of integers as an own int64 array, or as an object array of
    Python ints when some pass int64 (ids of many components can). An
    integer array passes by its dtype; any other column is read value by
    value with ``_integer``, so a bool, float or string is refused, never
    cast."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values.astype(np.int64)
    ints = [_integer(v, what)
            for v in np.asarray(values, dtype=object).tolist()]
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


class TranscriptColumn:
    """Column ``index`` (steps, parties, outcomes, probabilities) of a
    transcript's runs: a slice gives its rows' Python values, formed for
    that slice only. A step is spelt ``prefix + str(name)``; a value held
    once for a run is repeated over its rows."""

    def __init__(self, runs: list, index: int):
        self.runs, self.index = runs, index
        self.starts = list(accumulate((len(run[1]) for run in runs),
                                      initial=0))

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, rows: slice) -> list:
        start, stop, _ = rows.indices(len(self))
        out = []
        i = bisect_right(self.starts, start) - 1
        while start < stop:
            run, first = self.runs[i], self.starts[i]
            values, size = run[1 + self.index], len(run[1])
            a, b = start - first, min(stop - first, size)
            if self.index == 0:
                out += [run[0] + str(name) for name in values[a:b]]
            elif isinstance(values, np.ndarray):
                out += values[a:b].tolist()
            else:
                out += [values] * (b - a)
            start, i = first + size, i + 1
        return out


@dataclass(eq=False)
class Transcript:
    """Ordered record of measurement outcomes along one protocol branch:
    its runs ``(prefix, steps, parties, outcomes, probabilities)``, one per
    ``extend``, each column kept as given (a step ``range`` as the range,
    one value for a run as one value, arrays as own copies).
    Every read goes through ``column``, a slice at a time, so a run such
    as ``("trial", range(T))`` costs nothing until it is read."""

    _runs: list = field(default_factory=list, init=False, repr=False)

    def column(self, index: int) -> TranscriptColumn:
        return TranscriptColumn(self._runs, index)

    def _columns(self) -> list[list]:
        return [self.column(i)[:] for i in range(4)]

    steps = property(lambda self: self.column(0)[:])
    parties = property(lambda self: self.column(1)[:])
    outcomes = property(lambda self: self.column(2)[:])
    probabilities = property(lambda self: self.column(3)[:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self._columns() == other._columns()

    def extend(self, steps, parties, outcomes, probabilities,
               prefix: str = "") -> None:
        """Append one run of rows, the only way rows enter a transcript;
        step i is named ``prefix + str(steps[i])``, and ``steps`` may be a
        ``range``, kept as one. ``parties`` may be one party for all rows.
        Parties and outcomes are read as ``_integers`` reads them, and the
        probabilities must lie in [0, 1]; a bad row appends nothing."""
        steps = steps if isinstance(steps, range) else tuple(steps)
        parties = (_integers(parties, "party") if np.ndim(parties)
                   else _integer(parties, "party"))
        outcomes = _integers(outcomes, "outcome")
        probs = np.array(probabilities, dtype=float)
        if (np.shape(parties) not in ((), (len(steps),))
                or not np.shape(outcomes) == np.shape(probs) == (len(steps),)):
            raise ValueError("transcript columns differ in length")
        bad = ~((probs >= -NORM_TOL) & (probs <= 1.0 + NORM_TOL))
        if bad.any():
            raise ValueError(f"probability {float(probs[bad][0])} "
                             "outside [0,1]")
        self._runs.append((str(prefix), steps, parties, outcomes, probs))

    def to_text(self) -> str:
        """One tab-separated line per row under a header; %.17g spells a
        float as format(x, ".17g") does."""
        return ("step\tparty\toutcome\tprobability\n"
                + "".join("%s\t%d\t%d\t%.17g\n" % row
                          for row in zip(*self._columns())))


def as_generator(rng) -> np.random.Generator:
    """Accept a seed, a SeedSequence, or a ready Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(_integer(rng, "seed"))


def trial_seeds(seed: int, trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial sub-seeds from one root seed."""
    return np.random.SeedSequence(_integer(seed, "seed")).spawn(
        _integer(trials, "trials"))


def trial_seed(seed: int, t: int) -> np.random.SeedSequence:
    """``trial_seeds(seed, trials)[t]`` alone: the root with spawn key t."""
    return np.random.SeedSequence(_integer(seed, "seed"),
                                  spawn_key=(_integer(t, "trial"),))


# numpy's SeedSequence hash and mix constants (bit_generator.pyx) and the
# 128-bit PCG multiplier of its PCG64 (pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32 = 0xFFFFFFFF
# stream_uniforms forms at most _TRIAL_CHUNK streams' states at a time
_TRIAL_CHUNK = 2**16


def _hashmix(value: np.ndarray, const: int,
             mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words, and the advanced constant
    (``generate_state`` hashes the same way with ``_MULT_B``)."""
    nxt = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(nxt)
    return value ^ (value >> np.uint32(16)), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _mix_in(pool: list, word, const: int) -> int:
    """Mix one entropy word into each pool word; the advanced constant."""
    for dst in range(len(pool)):
        h, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], h)
    return const


def _mul_hi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each uint64 ``a`` times the constant ``b``."""
    a0, a1 = a & np.uint64(_MASK32), a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    mid = ((low >> np.uint64(32)) + (cross0 & np.uint64(_MASK32))
           + (cross1 & np.uint64(_MASK32)))
    return (a1 * b1 + (cross0 >> np.uint64(32)) + (cross1 >> np.uint64(32))
            + (mid >> np.uint64(32)))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128, on (high, low)
    uint64 halves."""
    hi = (_mul_hi64(lo, _PCG_LO) + lo * np.uint64(_PCG_HI)
          + hi * np.uint64(_PCG_LO))
    prod = lo * np.uint64(_PCG_LO)
    lo = prod + inc_lo
    return hi + inc_hi + (lo < prod), lo


def _root_pool(seed: int) -> tuple[list, int]:
    """The pool of 4 uint32 words (arrays of one entry) that
    ``SeedSequence(seed)`` mixes from its entropy words, and the hash
    constant after them. Fewer than 4 words hash out as zero words, so
    the pool is the same whether or not a spawn key follows."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1),
                                                 32)]
    words += [0] * (4 - len(words))
    const, pool = _INIT_A, []
    for w in words[:4]:
        h, const = _hashmix(np.array([w], dtype=np.uint32), const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[4:]:
        const = _mix_in(pool, np.array([w], dtype=np.uint32), const)
    return pool, const


def _pcg_doubles(pool: list, count: int) -> np.ndarray:
    """The first ``count`` doubles of the PCG64 streams seeded from pools
    (4 uint32 arrays of one length k): shape (k, count).

    ``generate_state(4, uint64)`` hashes 8 words cycling over the pool and
    pairs them little-endian: the seed s and the sequence q. PCG64
    (XSL-RR, 128 bits) starts at state 0 with inc 2*q + 1, steps, adds s
    and steps. Each double then takes one more step to its output x and
    is (x >> 11) * 2**-53, as ``Generator.random()``.
    """
    state, c = [], _INIT_B
    for i in range(8):
        v, c = _hashmix(pool[i % 4], c, _MULT_B)
        state.append(v.astype(np.uint64))
    s0, s1, q0, q1 = (state[2 * j] | state[2 * j + 1] << np.uint64(32)
                      for j in range(4))
    inc_hi = q0 << np.uint64(1) | (q1 >= np.uint64(2**63))  # carry
    inc_lo = q1 << np.uint64(1) | np.uint64(1)
    lo = inc_lo + s1
    hi = inc_hi + s0 + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((len(hi), count))
    for j in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        x = x >> rot | x << ((np.uint64(64) - rot) % np.uint64(64))
        out[:, j] = (x >> np.uint64(11)) * 2.0**-53
    return out


def stream_uniforms(seed: int, count: int, keys=None) -> np.ndarray:
    """The first ``count`` uniform doubles of numpy streams, computed in
    numpy arithmetic without importing numpy.random: of the root stream
    of ``SeedSequence(seed)`` (``keys`` None; shape (count,)), or of its
    spawned children ``keys`` (trial indices below 2**32; shape
    (len(keys), count)). Row t is bit-equal to
    ``default_rng(SeedSequence(seed).spawn(T)[keys[t]]).random(count)``.

    A child's SeedSequence mixes its spawn key word into the root's pool
    of 4 uint32 words, so the pool is formed once and the children are
    mixed, seeded and stepped as arrays, ``_TRIAL_CHUNK`` at a time.
    """
    count = _integer(count, "count")
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    pool, const = _root_pool(seed)
    if keys is None:
        return _pcg_doubles(pool, count)[0]
    keys = _integers(keys, "spawn key").ravel()
    if keys.size and not 0 <= keys.min() <= keys.max() <= _MASK32:
        raise ValueError("spawn keys must lie in 0..2**32 - 1")
    out = np.empty((len(keys), count))
    for start in range(0, len(keys), _TRIAL_CHUNK):
        t = keys[start:start + _TRIAL_CHUNK].astype(np.uint32)
        mixed = list(pool)
        _mix_in(mixed, t, const)
        out[start:start + len(t)] = _pcg_doubles(mixed, count)
    return out


def uniform_draws(rng, count: int) -> np.ndarray:
    """The first ``count`` uniform doubles of a stream, as
    ``Generator.random(count)`` gives them. An int seed's root stream is
    computed by ``stream_uniforms`` (no numpy.random import); a Generator
    or SeedSequence is drawn from; a float array is taken as the draws
    themselves and must hold ``count`` of them."""
    if isinstance(rng, np.ndarray) and rng.dtype.kind == "f":
        if rng.shape != (count,):
            raise ValueError(f"need {count} draws, got shape {rng.shape}")
        return rng
    if isinstance(rng, (int, np.integer)):
        return stream_uniforms(rng, count)
    return as_generator(rng).random(count)


def _summing_to_one(probs: np.ndarray) -> np.ndarray:
    if abs(probs.sum() - 1.0) > NORM_TOL:
        raise ValueError(
            f"outcome probabilities sum to {probs.sum()}, not 1; "
            "POVM incomplete or state unnormalized")
    return probs


def outcome_probabilities(s: PureState, p: Povm) -> np.ndarray:
    """Born probabilities of every POVM outcome on s (must sum to 1)."""
    return _summing_to_one(
        np.array([squared_norm(_weighted(s, e)[1]) for e in p.elements]))


def projective_probabilities(s: PureState, party: int,
                             outcome_of: np.ndarray) -> np.ndarray:
    """Born probabilities of the projective measurement that sends label x
    of ``party`` to outcome ``outcome_of[x]`` (must sum to 1).

    One ``bincount`` adds each outcome's terms in support order with the
    libm squares of ``squared_norm``, so each probability is bit-equal to
    ``outcome_probabilities`` on the 0/1 diagonals of the same map.
    """
    sq = np.hypot(s.amps.real, s.amps.imag)
    np.float_power(sq, 2.0, out=sq)
    return _summing_to_one(np.bincount(
        outcome_of[s.labels[:, party]], weights=sq,
        minlength=int(outcome_of.max(initial=-1)) + 1))


def _draw(cum: np.ndarray, u):
    """Index drawn from cumulative outcome weights with the uniform ``u``,
    or the indices drawn with each of an array of uniforms."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"),
                      len(cum) - 1)


def sample(s: PureState, p: Povm, rng) -> tuple[int, PureState, float]:
    """Draw one outcome with Born probabilities; return it, its normalized
    branch and its probability.

    The POVM is completeness-checked here because sampling from an
    incomplete element list silently skews every downstream statistic.
    """
    if not check_completeness(p):
        raise ValueError("POVM is not complete on its local space")
    outcome = int(_draw(np.cumsum(outcome_probabilities(s, p)),
                        uniform_draws(rng, 1)[0]))
    post, sq = apply_element(s, p.elements[outcome])
    return outcome, post, sq


def _shared_density(s: PureState, party: int, shared: np.ndarray):
    """One-party density of ``s`` on the sorted labels ``shared`` only."""
    at, keep = _lookup(shared, s.labels[:, party])
    labels, amps = s.labels[keep], s.amps[keep]
    group = _row_codes(np.delete(labels, party, axis=1))
    m = np.zeros((group.max(initial=-1) + 1, len(shared)), dtype=complex)
    m[group, at[keep]] = amps
    return m.T @ m.conj()


def _shared_labels(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sorted distinct labels occurring in both ``x`` and ``y``
    (``np.intersect1d``, by sorting: its ``np.unique`` loads numpy.ma)."""
    x = np.sort(x)
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    x = x[first]
    return x[_lookup(np.sort(y), x)[1]]


def check_local_orthogonality(components) -> bool:
    """True iff every pair of components has vanishing local density overlap
    Tr[rho_i rho_j] on every party. Only labels both components occupy on
    a party contribute there, so the overlap is 0 when they share none."""
    comps = list(components)
    shape = comps[0].local_dims if comps else ()
    if any(c.local_dims != shape for c in comps):
        raise ValueError("components have mismatched shapes")
    for a, b in combinations(comps, 2):
        for party in range(len(shape)):
            shared = _shared_labels(a.labels[:, party], b.labels[:, party])
            if shared.size and abs(np.vdot(
                    _shared_density(a, party, shared),
                    _shared_density(b, party, shared))) > ORTHO_EPS:
                return False
    return True
