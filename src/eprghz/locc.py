"""Local operations and classical communication: operators, POVMs, sampling.

Every local operator is a weighted label map on one party's labels,
``|x> -> weights[x] |targets[x]>``: diagonal weightings, projectors and
relabelings are the only operations the protocols need. Labels with a
nonzero weight must land on distinct targets. That injectivity makes
``M^dag M`` the diagonal matrix ``|weights|**2``, so a POVM is complete
exactly when ``sum_j |w_j[x]|**2 = 1`` for every label x. Classical
communication is implicit: later operations may depend on outcome indices
recorded in a transcript.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .hilbert import (NORM_TOL, PureState, _has_repeats, _label_map,
                      _row_codes, squared_norm)

IMPOSSIBLE_EPS = 1e-12
ORTHO_EPS = 1e-12


class ImpossibleOutcomeError(RuntimeError):
    """A branch at (numerical) zero probability was forced, or a drawn
    outcome's probability departs from the one its construction gives."""


@lru_cache(maxsize=16)
def _identity_labels(dim: int) -> np.ndarray:
    """Shared read-only targets of every diagonal operator on ``dim`` labels."""
    labels = np.arange(dim, dtype=np.int64)
    labels.flags.writeable = False
    return labels


@dataclass(frozen=True)
class LocalOperator:
    """Weighted label map on one party: ``|x> -> weights[x] |targets[x]>``.

    ``targets`` defaults to the identity (a diagonal operator) and
    ``out_dim`` to the input dimension ``len(weights)``. Boolean weights
    (0/1 projectors) stay boolean, one byte a label; other real weights
    are kept as float64, complex ones as complex128.
    """

    party: int
    weights: np.ndarray
    targets: np.ndarray | None = None
    out_dim: int | None = None

    def __post_init__(self):
        w = np.asarray(self.weights)
        w = w.astype(bool if w.dtype == bool
                     else complex if np.iscomplexobj(w) else float)
        if w.ndim != 1 or not len(w):
            raise ValueError("operator weights must be a non-empty vector")
        out_dim = len(w) if self.out_dim is None else int(self.out_dim)
        if self.targets is None:
            t = _identity_labels(len(w))
        else:
            t = np.asarray(self.targets, dtype=np.int64)
            if t.shape != w.shape:
                raise ValueError("weights and targets differ in length")
            if _has_repeats(t[w != 0]):
                raise ValueError("two weighted labels share a target")
        if t.min() < 0 or t.max() >= out_dim:
            raise ValueError(f"target label outside 0..{out_dim - 1}")
        object.__setattr__(self, "party", int(self.party))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "out_dim", out_dim)

    @property
    def in_dim(self) -> int:
        return len(self.weights)


def diagonal_operator(party: int, values) -> LocalOperator:
    return LocalOperator(party, values)


def permutation_operator(party: int, old, new, dim: int) -> LocalOperator:
    """Unitary relabeling |old[i]> -> |new[i]> (int arrays); others stay."""
    old, new = _label_map(old, new)
    if old.size and (old.min() < 0 or old.max() >= dim):
        raise ValueError(f"label map source outside 0..{dim - 1}")
    targets = np.arange(dim)
    targets[old] = new
    return LocalOperator(party, np.ones(dim), targets, dim)


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
        if any(e.in_dim != elems[0].in_dim for e in elems):
            raise ValueError("POVM elements have mismatched input dimensions")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "party", int(elems[0].party))

    @property
    def in_dim(self) -> int:
        return self.elements[0].in_dim


def check_completeness(p: Povm, dim: int | None = None,
                       tol: float = NORM_TOL) -> bool:
    """True iff sum_j M_j^dag M_j is the identity within tol (max entry),
    that is, iff every label's squared weights sum to 1."""
    if dim is not None and dim != p.in_dim:
        raise ValueError(f"POVM acts on dim {p.in_dim}, not {dim}")
    total = np.zeros(p.in_dim)
    for e in p.elements:
        total += np.abs(e.weights) ** 2
    return float(np.abs(total - 1.0).max()) <= tol


def _weighted(s: PureState, op: LocalOperator):
    """Mask of the terms of ``s`` with a nonzero weight on the operator's
    party, and their weighted amplitudes in support order."""
    if op.in_dim != s.local_dims[op.party]:
        raise ValueError(
            f"operator in_dim {op.in_dim} != local dim "
            f"{s.local_dims[op.party]} of party {op.party}")
    w = op.weights[s.labels[:, op.party]]
    live = w != 0
    return live, w[live] * s.amps[live]


def _rewrite(s: PureState, op: LocalOperator):
    """The label-rewrite rule: output dims, then the rewritten label rows
    and amplitudes of every term with a nonzero weight, in support order."""
    p = op.party
    live, amps = _weighted(s, op)
    new = s.labels[live]
    new[:, p] = op.targets[new[:, p]]
    dims = s.local_dims[:p] + (op.out_dim,) + s.local_dims[p + 1:]
    return dims, new, amps


def apply_operator(s: PureState, op: LocalOperator) -> PureState:
    """Apply without renormalizing (for unitaries and linear-algebra checks)."""
    return PureState(*_rewrite(s, op))


def apply_element(s: PureState, op: LocalOperator) -> tuple[PureState, float]:
    """Apply one measurement operator; return (normalized state, probability).

    Probability is the squared norm of the unnormalized branch. A branch at
    numerically zero probability raises rather than returning garbage.
    """
    dims, labels, amps = _rewrite(s, op)
    sq = squared_norm(amps)
    if sq <= IMPOSSIBLE_EPS:
        raise ImpossibleOutcomeError(
            f"outcome on party {op.party} has probability {sq:.3e}")
    return PureState(dims, labels, amps / math.sqrt(sq)), sq


@dataclass(frozen=True)
class TranscriptEntry:
    """One measurement outcome; its probability must lie in [0, 1]."""

    step: str
    party: int
    outcome: int
    probability: float

    def __post_init__(self):
        for name, kind in (("step", str), ("party", int), ("outcome", int),
                           ("probability", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if not -NORM_TOL <= self.probability <= 1.0 + NORM_TOL:
            raise ValueError(f"probability {self.probability} outside [0,1]")

    def to_line(self) -> str:
        return f"{self.step}\t{self.party}\t{self.outcome}\t{self.probability:.17g}"


@dataclass
class Transcript:
    """Ordered record of measurement outcomes along one protocol branch."""

    entries: list[TranscriptEntry] = field(default_factory=list)

    def add(self, step: str, party: int, outcome: int,
            probability: float) -> TranscriptEntry:
        self.entries.append(TranscriptEntry(step, party, outcome, probability))
        return self.entries[-1]

    def to_text(self) -> str:
        header = "step\tparty\toutcome\tprobability"
        return "\n".join([header] + [e.to_line() for e in self.entries]) + "\n"


def as_generator(rng) -> np.random.Generator:
    """Accept a seed, a SeedSequence, or a ready Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(int(rng))


def trial_seeds(seed: int, trials: int) -> list[np.random.SeedSequence]:
    """Independent per-trial sub-seeds from one root seed."""
    return np.random.SeedSequence(int(seed)).spawn(int(trials))


def outcome_probabilities(s: PureState, p: Povm) -> np.ndarray:
    """Born probabilities of every POVM outcome on s (must sum to 1)."""
    probs = np.array([squared_norm(_weighted(s, e)[1]) for e in p.elements])
    if abs(probs.sum() - 1.0) > NORM_TOL:
        raise ValueError(
            f"outcome probabilities sum to {probs.sum()}, not 1; "
            "POVM incomplete or state unnormalized")
    return probs


def _draw(cum: np.ndarray, gen: np.random.Generator) -> int:
    """Index drawn from cumulative outcome weights with one uniform variate."""
    o = int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))
    return min(o, len(cum) - 1)


def sample(s: PureState, p: Povm, rng,
           step: str = "measure") -> tuple[int, PureState, TranscriptEntry]:
    """Draw one outcome with Born probabilities; return its branch.

    The POVM is completeness-checked here because sampling from an
    incomplete element list silently skews every downstream statistic.
    """
    if not check_completeness(p):
        raise ValueError("POVM is not complete on its local space")
    outcome = _draw(np.cumsum(outcome_probabilities(s, p)), as_generator(rng))
    post, sq = apply_element(s, p.elements[outcome])
    return outcome, post, TranscriptEntry(step, p.party, outcome, sq)


def _shared_density(s: PureState, party: int, shared: np.ndarray):
    """One-party density of ``s`` on the sorted labels ``shared`` only."""
    keep = np.isin(s.labels[:, party], shared)
    labels, amps = s.labels[keep], s.amps[keep]
    group = _row_codes(np.delete(labels, party, axis=1))
    m = np.zeros((group.max(initial=-1) + 1, len(shared)), dtype=complex)
    m[group, np.searchsorted(shared, labels[:, party])] = amps
    return m.T @ m.conj()


def check_local_orthogonality(components, tol: float = ORTHO_EPS) -> bool:
    """True iff every pair of components has vanishing local density overlap
    Tr[rho_i rho_j] on every party. Only labels both components occupy on
    a party contribute there, so the overlap is 0 when they share none."""
    comps = list(components)
    shape = comps[0].local_dims if comps else ()
    if any(c.local_dims != shape for c in comps):
        raise ValueError("components have mismatched shapes")
    for a, b in combinations(comps, 2):
        for party in range(len(shape)):
            shared = np.intersect1d(a.labels[:, party], b.labels[:, party])
            if shared.size and abs(np.vdot(
                    _shared_density(a, party, shared),
                    _shared_density(b, party, shared))) > tol:
                return False
    return True
