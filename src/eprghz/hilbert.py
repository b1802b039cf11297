"""Sparse multipartite pure states and bipartite entanglement measures.

A state lives on a fixed tuple of parties; party ``p`` carries an integer
local dimension and labels ``0..dim-1``. Amplitudes are a sparse map from
per-party label tuples to complex numbers. Many-copy states keep one slot
per party (local dimension ``d**N``), never one slot per copy: locality is
per party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRUNE_EPS = 1e-12
NORM_TOL = 1e-9

# state support above this is refused by explicit constructions
EXPLICIT_BUDGET = 10**7


class BudgetError(RuntimeError):
    """An explicit construction would exceed the support-size budget."""


@dataclass(frozen=True)
class PureState:
    """Sparse pure state: ``local_dims`` per party, label tuple -> amplitude.

    Instances are immutable; every operation returns a new state. Amplitudes
    with magnitude below ``PRUNE_EPS`` are dropped at construction.
    """

    local_dims: tuple[int, ...]
    amplitudes: dict[tuple[int, ...], complex]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.local_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be >= 1, got {dims}")
        amps = {}
        for labels, amp in self.amplitudes.items():
            labels = tuple(int(l) for l in labels)
            if len(labels) != len(dims):
                raise ValueError(
                    f"label tuple {labels} does not match {len(dims)} parties")
            for l, d in zip(labels, dims):
                if not 0 <= l < d:
                    raise ValueError(f"label {l} out of range for dim {d}")
            amp = complex(amp)
            if abs(amp) > PRUNE_EPS:
                amps[labels] = amp
        object.__setattr__(self, "local_dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def party_count(self) -> int:
        return len(self.local_dims)

    @property
    def support_size(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= tol

    def normalized(self) -> "PureState":
        n = self.norm()
        if n <= PRUNE_EPS:
            raise ValueError("cannot normalize a (numerically) zero state")
        return PureState(self.local_dims,
                         {l: a / n for l, a in self.amplitudes.items()})

    def __repr__(self):
        return (f"PureState(dims={self.local_dims}, "
                f"support={self.support_size}, norm={self.norm():.6f})")


@dataclass(frozen=True)
class DensityMatrix:
    """Dense reduced density matrix on an explicit party subset."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} != ({self.dim}, {self.dim})")
        object.__setattr__(self, "matrix", m)

    def validate(self, tol: float = NORM_TOL) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > tol:
            raise ValueError(f"trace {np.trace(m).real} != 1")
        if np.linalg.eigvalsh(m).min() < -tol:
            raise ValueError("density matrix has a negative eigenvalue")

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def tensor(a: PureState, b: PureState,
           a_map: tuple[int, ...] | None = None,
           b_map: tuple[int, ...] | None = None,
           party_count: int | None = None) -> PureState:
    """Tensor product with party alignment.

    ``a_map[i]`` / ``b_map[j]`` give the output slot of each input party
    (defaults: identity, requiring equal party counts). A slot fed by both
    inputs is merged: dimension ``da*db``, label ``la*db + lb``. A slot fed
    by neither gets dimension 1 and label 0.
    """
    if a_map is None and b_map is None and party_count is None:
        if a.party_count != b.party_count:
            raise ValueError(
                f"party counts differ ({a.party_count} vs {b.party_count}); "
                "pass an explicit alignment")
    if a_map is None:
        a_map = tuple(range(a.party_count))
    if b_map is None:
        b_map = tuple(range(b.party_count))
    if party_count is None:
        party_count = max((*a_map, *b_map), default=-1) + 1
    if len(a_map) != a.party_count or len(b_map) != b.party_count:
        raise ValueError("alignment spec does not match party counts")
    a_slot = {s: p for p, s in enumerate(a_map)}
    b_slot = {s: p for p, s in enumerate(b_map)}
    if len(a_slot) != len(a_map) or len(b_slot) != len(b_map):
        raise ValueError("alignment maps two parties of one input to one slot")

    dims = []
    for s in range(party_count):
        da = a.local_dims[a_slot[s]] if s in a_slot else 1
        db = b.local_dims[b_slot[s]] if s in b_slot else 1
        dims.append(da * db)

    amps: dict[tuple[int, ...], complex] = {}
    for la, va in a.amplitudes.items():
        for lb, vb in b.amplitudes.items():
            out = []
            for s in range(party_count):
                xa = la[a_slot[s]] if s in a_slot else 0
                if s in b_slot:
                    out.append(xa * b.local_dims[b_slot[s]] + lb[b_slot[s]])
                else:
                    out.append(xa)
            amps[tuple(out)] = va * vb
    return PureState(tuple(dims), amps)


def inner(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.local_dims != b.local_dims:
        raise ValueError(f"shape mismatch: {a.local_dims} vs {b.local_dims}")
    small, big = (a, b) if a.support_size <= b.support_size else (b, a)
    tot = 0j
    for labels, amp in small.amplitudes.items():
        other = big.amplitudes.get(labels)
        if other is not None:
            if small is a:
                tot += amp.conjugate() * other
            else:
                tot += other.conjugate() * amp
    return tot


def _split_labels(labels, keep, rest):
    return (tuple(labels[p] for p in keep), tuple(labels[p] for p in rest))


def reduced_density(s: PureState, parties) -> DensityMatrix:
    """Partial trace onto ``parties`` (non-empty proper subset)."""
    keep = tuple(sorted(set(int(p) for p in parties)))
    if not keep or len(keep) >= s.party_count:
        raise ValueError("subset must be non-empty and proper")
    if keep[0] < 0 or keep[-1] >= s.party_count:
        raise ValueError(f"party out of range: {keep}")
    rest = tuple(p for p in range(s.party_count) if p not in keep)
    dims = [s.local_dims[p] for p in keep]
    dim = math.prod(dims)
    if dim > 4096:
        raise ValueError(
            f"dense reduced density of dimension {dim} refused; "
            "use entanglement_entropy for spectra of large cuts")
    groups: dict[tuple[int, ...], list[tuple[int, complex]]] = {}
    for labels, amp in s.amplitudes.items():
        kl, rl = _split_labels(labels, keep, rest)
        flat = 0
        for l, d in zip(kl, dims):
            flat = flat * d + l
        groups.setdefault(rl, []).append((flat, amp))
    rho = np.zeros((dim, dim), dtype=complex)
    for entries in groups.values():
        for i, ai in entries:
            for j, aj in entries:
                rho[i, j] += ai * aj.conjugate()
    return DensityMatrix(dim, rho)


def entropy(p) -> float:
    """Shannon entropy in bits; 0*log(0) = 0."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size and p.min() < -NORM_TOL:
        raise ValueError(f"negative probability {p.min()}")
    if abs(p.sum() - 1.0) > NORM_TOL:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def entanglement_entropy(s: PureState, cut) -> float:
    """Entropy in bits across the bipartition ``cut`` | complement.

    Works on the compact coefficient matrix over occurring labels, so large
    local dimensions cost only the support size.
    """
    keep = tuple(sorted(set(int(p) for p in cut)))
    if not keep or len(keep) >= s.party_count:
        raise ValueError("cut must be non-empty and proper")
    if keep[0] < 0 or keep[-1] >= s.party_count:
        raise ValueError(f"party out of range: {keep}")
    rest = tuple(p for p in range(s.party_count) if p not in keep)
    rows: dict[tuple[int, ...], int] = {}
    cols: dict[tuple[int, ...], int] = {}
    triples = []
    for labels, amp in s.amplitudes.items():
        kl, rl = _split_labels(labels, keep, rest)
        i = rows.setdefault(kl, len(rows))
        j = cols.setdefault(rl, len(cols))
        triples.append((i, j, amp))
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, j, amp in triples:
        mat[i, j] += amp
    sv = np.linalg.svd(mat, compute_uv=False)
    probs = sv**2
    return entropy(probs[probs > 1e-15])


def relabel(s: PureState, party: int, mapping: dict[int, int],
            new_dim: int | None = None) -> PureState:
    """Apply an injective label map on one party (labels not in the map stay).

    ``new_dim`` widens (or renames within) the party's local dimension; by
    default the current dimension is kept and mapped labels must fit in it.
    """
    party = int(party)
    if not 0 <= party < s.party_count:
        raise ValueError(f"party {party} out of range")
    dim = s.local_dims[party] if new_dim is None else int(new_dim)
    seen: dict[int, int] = {}
    amps = {}
    for labels, amp in s.amplitudes.items():
        old = labels[party]
        new = int(mapping.get(old, old))
        if not 0 <= new < dim:
            raise ValueError(f"mapped label {new} out of range for dim {dim}")
        if seen.setdefault(new, old) != old:
            raise ValueError(f"label map is not injective on support at {new}")
        amps[labels[:party] + (new,) + labels[party + 1:]] = amp
    dims = s.local_dims[:party] + (dim,) + s.local_dims[party + 1:]
    return PureState(dims, amps)


def amplitude_distance(a: PureState, b: PureState) -> float:
    """Max amplitude deviation after aligning global phases on a's
    largest-magnitude amplitude (label tie-break: smallest)."""
    if a.local_dims != b.local_dims:
        raise ValueError(f"shape mismatch: {a.local_dims} vs {b.local_dims}")
    if not a.amplitudes and not b.amplitudes:
        return 0.0
    if not a.amplitudes or not b.amplitudes:
        present = a.amplitudes or b.amplitudes
        return max(abs(v) for v in present.values())
    ref = min(a.amplitudes, key=lambda l: (-abs(a.amplitudes[l]), l))
    va, vb = a.amplitudes[ref], b.amplitudes.get(ref, 0j)
    pa = va / abs(va)
    pb = vb / abs(vb) if abs(vb) > 0 else pa
    worst = 0.0
    for labels in a.amplitudes.keys() | b.amplitudes.keys():
        xa = a.amplitudes.get(labels, 0j) / pa
        xb = b.amplitudes.get(labels, 0j) / pb
        worst = max(worst, abs(xa - xb))
    return worst


def states_equal(a: PureState, b: PureState, tol: float = NORM_TOL) -> bool:
    """Equality up to a global phase: amplitude_distance(a, b) <= tol, and
    a state equals the empty state only if it is empty itself."""
    return (amplitude_distance(a, b) <= tol
            and bool(a.amplitudes) == bool(b.amplitudes))
