"""Sparse multipartite pure states and bipartite entanglement measures.

A state lives on a fixed tuple of parties; party ``p`` carries an integer
local dimension and labels ``0..dim-1``. It is two columns: an int64 label
matrix (one row per support term, one column per party) and a complex128
amplitude vector in the same row order. Row order is part of the state:
operations keep their input's order and ``tensor`` puts its first factor's
rows outer, so sums taken in support order are reproducible to the last
bit. Many-copy states keep one slot per party (local dimension ``d**N``),
never one slot per copy: locality is per party.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

PRUNE_EPS = 1e-12
NORM_TOL = 1e-9
INT64_MAX = 2**63 - 1

# every resource limit, keyed "<scope> <unit>". An explicit label of N
# copies has N digits, and int64 holds 63 binary ones; the digit limit is
# Python's int-to-str limit, read at each check (0: none). Tables name
# parties by the letters A to Z
_BUDGETS = {"explicit terms": 10**7, "explicit copies": 63,
            "block rows": 200_000, "projector labels": 4_000_000,
            "bulk entries": 10**8,
            "multiplicity digits": getattr(sys, "get_int_max_str_digits", int),
            "sampling trials": 10**6, "state parties": 26}


class BudgetError(RuntimeError):
    """A request needs more than a limit of ``_BUDGETS``; raised by
    ``_check_budget`` alone, before the work it guards is started."""


def _check_budget(what: str, budget: str, need, log2_need=-math.inf):
    """Return ``need`` if it is within ``_BUDGETS[budget]``, else raise
    BudgetError. ``need`` is the exact amount or a function forming it;
    a ``log2_need`` (at most log2 of the need) more than a bit over the
    limit refuses without forming it, so astronomic needs cost nothing."""
    limit = _BUDGETS[budget]
    limit = limit() if callable(limit) else limit
    if limit and log2_need > math.log2(limit) + 1:
        need = f"at least 2**{log2_need:.8g}"
    else:
        need = need() if callable(need) else need
        if not limit or need <= limit:
            return need
    unit = budget.split()[-1]
    raise BudgetError(f"{what} needs {need} {unit}, budget is {limit} {unit}")


def _integer(value, what: str, lowest=None, stop=None) -> int:
    """``value`` as an int; a bool, float or string is refused, not cast.
    An int below ``lowest``, or with ``stop`` given outside
    ``lowest..stop - 1``, is refused too: the package's one reader of
    counts, indices, parties, levels and seeds."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if stop is not None:
        if not lowest <= value < stop:
            raise ValueError(f"{what} {value} outside {lowest}..{stop - 1}")
    elif lowest is not None and value < lowest:
        raise ValueError(f"need {what} >= {lowest}, got {value}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float; a bool or string is refused, not cast, and so
    is anything ``float()`` does not take (None, a list)."""
    try:
        if isinstance(value, (bool, np.bool_, str)):
            raise TypeError
        return float(value)
    except TypeError:
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _listed(value, what: str) -> tuple:
    """``value`` as a tuple; anything but a list or tuple (a number, a
    string, a mapping) is refused, not iterated."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, after refusing its first entry that is NaN or
    infinite."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"{what} must be finite, got {values[bad][0]}")
    return values


def _unit_sum(total: float, what: str) -> None:
    """Refuse a ``total`` more than ``NORM_TOL`` from 1, NaN too: the
    package's one unit-sum rule."""
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"{what} sum to {total}, not 1")


@dataclass(frozen=True, eq=False)
class PureState:
    """Sparse pure state: ``local_dims`` per party, a ``labels`` matrix with
    distinct rows (shape (support, parties), not copied) and an ``amps``
    vector in the same row order, both stored read-only. Instances are
    immutable. Terms whose amplitude is below ``PRUNE_EPS`` are dropped at
    construction.

    The constructor checks its input once: dimensions, shapes, finite
    amplitudes, label ranges, and that no label row repeats. States that
    are valid by construction (transforms of valid states, canonical
    states) are built by ``_valid_state`` without the checks.
    """

    local_dims: tuple[int, ...]
    labels: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(_integer(d, "local dimension") for d in self.local_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be >= 1, got {dims}")
        labels = np.asarray(self.labels, dtype=np.int64)
        labels = labels if labels.size else labels.reshape(0, len(dims))
        amps = _finite(np.asarray(self.amps, dtype=complex), "amplitude")
        if labels.shape != (len(amps), len(dims)):
            raise ValueError(
                f"label matrix of shape {labels.shape} does not match "
                f"{len(amps)} amplitudes on {len(dims)} parties")
        top = np.array([min(d - 1, INT64_MAX) for d in dims], dtype=np.int64)
        bad = ((labels < 0) | (labels > top)).any(axis=1)
        if bad.any():
            raise ValueError(f"labels {tuple(labels[bad][0].tolist())} out "
                             f"of range for dims {dims}")
        codes = _row_codes(labels)
        if codes.max(initial=-1) + 1 < len(codes):
            order = np.argsort(codes, kind="stable")
            again = order[1:][codes[order[1:]] == codes[order[:-1]]]
            raise ValueError(f"label row {tuple(labels[again[0]].tolist())} "
                             "repeats")
        _seal(self, dims, labels, amps)

    # the traced launcher under perfbench/ counts terms as
    # len(state.amplitudes), also before __post_init__ has run
    amplitudes = property(lambda self: self.amps,
                          doc="Alias of ``amps``.")

    @property
    def party_count(self) -> int:
        return len(self.local_dims)

    @property
    def support_size(self) -> int:
        return len(self.amps)

    def norm(self) -> float:
        return math.sqrt(squared_norm(self.amps))

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= NORM_TOL

    def normalized(self) -> "PureState":
        n = self.norm()
        if n <= PRUNE_EPS:
            raise ValueError("cannot normalize a (numerically) zero state")
        # divide real and imaginary parts: numpy's complex division
        # multiplies by a rounded reciprocal
        return _valid_state(
            self.local_dims, self.labels,
            (np.ascontiguousarray(self.amps).view(float) / n).view(complex))


def _seal(s: PureState, dims: tuple[int, ...], labels: np.ndarray,
          amps: np.ndarray) -> PureState:
    """Store checked columns on ``s``: drop the terms below ``PRUNE_EPS``
    and freeze both."""
    keep = np.hypot(amps.real, amps.imag) > PRUNE_EPS
    if not keep.all():
        labels, amps = labels[keep], amps[keep]
    labels, amps = labels.view(), amps.view()
    labels.flags.writeable = amps.flags.writeable = False
    object.__setattr__(s, "local_dims", dims)
    object.__setattr__(s, "labels", labels)
    object.__setattr__(s, "amps", amps)
    return s


def _valid_state(dims: tuple[int, ...], labels: np.ndarray,
                 amps: np.ndarray) -> PureState:
    """A PureState from columns valid by construction, unchecked: ``dims``
    a tuple of ints, ``labels`` an int64 matrix of shape (len(amps),
    len(dims)) with distinct rows in range, ``amps`` complex128. The
    transforms of valid states (``tensor``, and every protocol step:
    diagonal weighting + ``relabel``) and the canonical ``level_ghz`` and
    ``block_state`` build through here; the public constructor checks."""
    return _seal(object.__new__(PureState), dims, labels, amps)


def squared_norm(amps: np.ndarray, repeats=None) -> float:
    """sum |a|**2 as a running sum in support order, each term squared by
    libm ``pow`` (``float_power``): a pairwise sum, ``h * h`` or ``np.power``
    moves the last bit of some probabilities; transcripts print 17 digits.
    Entry i stands for ``repeats[i]`` terms in a row, if given."""
    sq = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
    sq = sq if repeats is None else np.repeat(sq, repeats)
    return float(np.cumsum(sq)[-1]) if sq.size else 0.0


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of two states on the same parties: party p gets
    dimension ``da*db`` and label ``la*db + lb``. Output row
    ``i * b.support_size + j`` is a's row i with b's row j."""
    if a.party_count != b.party_count:
        raise ValueError(
            f"party counts differ ({a.party_count} vs {b.party_count})")
    da, db = a.local_dims, b.local_dims
    if any(min(x, y) > 1 and x * y - 1 > INT64_MAX for x, y in zip(da, db)):
        raise ValueError("a merged dimension exceeds int64 labels")
    labels = (a.labels[:, None] * np.array([min(y, INT64_MAX) for y in db])
              + b.labels)
    return _valid_state(tuple(x * y for x, y in zip(da, db)),
                        labels.reshape(-1, a.party_count),
                        np.multiply.outer(a.amps, b.amps).ravel())


def _row_codes(labels: np.ndarray) -> np.ndarray:
    """One integer per row, equal for equal rows, in sorted row order: the
    inverse of ``np.unique(labels, axis=0)``, from one ``lexsort``."""
    if not labels.shape[1]:
        return np.zeros(len(labels), dtype=np.int64)
    order = np.lexsort(labels.T[::-1])
    rows = labels[order]
    new = np.ones(len(rows), dtype=np.int64)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    codes = np.empty_like(new)
    codes[order] = np.cumsum(new) - 1
    return codes


def _unique_rows(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(labels, axis=0, return_inverse=True)`` from _row_codes:
    the distinct rows in sorted order, and each row's code."""
    codes = _row_codes(labels)
    rows = np.empty((codes.max(initial=-1) + 1, labels.shape[1]),
                    dtype=labels.dtype)
    rows[codes] = labels
    return rows, codes


def _union(a: PureState, b: PureState):
    """Both amplitude vectors spread over the union of the two supports,
    in sorted label order: shape (2, union)."""
    if a.local_dims != b.local_dims:
        raise ValueError(f"shape mismatch: {a.local_dims} vs {b.local_dims}")
    codes = _row_codes(np.concatenate([a.labels, b.labels]))
    out = np.zeros((2, codes.max(initial=-1) + 1), dtype=complex)
    out[0, codes[:a.support_size]] = a.amps
    out[1, codes[a.support_size:]] = b.amps
    return out


def _cut(s: PureState, parties):
    """Sorted kept parties (a non-empty proper subset) and the rest."""
    keep = sorted({_integer(p, "party", 0, s.party_count) for p in parties})
    if not keep or len(keep) >= s.party_count:
        raise ValueError("cut must be non-empty and proper")
    return keep, [p for p in range(s.party_count) if p not in keep]


def entropy(p) -> float:
    """Shannon entropy in bits; 0*log(0) = 0."""
    p = _finite(np.asarray(p, dtype=float).ravel(), "probability")
    if p.size and p.min() < -NORM_TOL:
        raise ValueError(f"negative probability {p.min()}")
    _unit_sum(p.sum(), "probabilities")
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def entanglement_entropy(s: PureState, cut) -> float:
    """Entropy in bits across the bipartition ``cut`` | complement.

    Works on the compact coefficient matrix over occurring labels, so large
    local dimensions cost only the support size.
    """
    keep, rest = _cut(s, cut)
    rows, cols = _row_codes(s.labels[:, keep]), _row_codes(s.labels[:, rest])
    mat = np.zeros((rows.max(initial=-1) + 1, cols.max(initial=-1) + 1),
                   dtype=complex)
    mat[rows, cols] = s.amps
    probs = np.linalg.svd(mat, compute_uv=False) ** 2
    return entropy(probs[probs > 1e-15])


def _has_repeats(x: np.ndarray) -> bool:
    """Whether some entry of ``x`` repeats (sorts: faster than np.unique)."""
    x = np.sort(x)
    return bool((x[1:] == x[:-1]).any())


def _lookup(keys: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of ``x`` sits in the sorted ``keys``, and whether it
    is there: (index, found), one ``searchsorted``."""
    at = np.searchsorted(keys, x)
    if not keys.size:
        return at, np.zeros(at.shape, dtype=bool)
    np.minimum(at, len(keys) - 1, out=at)
    return at, keys[at] == x


def _label_map(old, new) -> tuple[np.ndarray, np.ndarray]:
    """The map ``old[i] -> new[i]`` as int64 vectors, ``old`` distinct."""
    old, new = np.asarray(old, np.int64), np.asarray(new, np.int64)
    if old.ndim != 1 or old.shape != new.shape or _has_repeats(old):
        raise ValueError("a label map needs two int vectors of one length "
                         "with no repeated old label")
    return old, new


def relabel(s: PureState, parties, old, new,
            new_dim: int | None = None) -> PureState:
    """Apply the injective label map ``old[i] -> new[i]`` (two int arrays;
    labels not in ``old`` stay) on one party or on each of several parties
    that share it: the package's one label map. ``new_dim`` widens (or
    renames within) those parties' local dimension; by default each keeps
    its own and mapped labels must fit in it.

    The map is sorted once and the label matrix copied once. Each label of
    a party's column is looked up in the sorted ``old``, and only the rows
    that hit are rewritten. The map must be injective on each party's
    support: the labels it moves go to distinct labels, none of which a
    label it leaves in place already holds.
    """
    old, new = _label_map(old, new)
    order = np.argsort(old)
    old, new = old[order], new[order]
    labels, dims = s.labels.copy(), list(s.local_dims)
    for party in (_integer(p, "party", 0, s.party_count)
                  for p in np.ravel(parties).tolist()):
        dim = dims[party] if new_dim is None else _integer(new_dim, "new_dim")
        col = labels[:, party]
        at, hit = _lookup(old, col)
        at = at[hit]
        moved = np.zeros(len(old), dtype=bool)
        moved[at] = True
        image, stay = np.sort(new[moved]), col[~hit]
        if ((image.size and not 0 <= image[0] <= image[-1] < dim)
                or (stay.size and stay.max() >= dim)):
            raise ValueError(f"mapped label outside 0..{dim - 1}")
        if _has_repeats(image) or _lookup(image, stay)[1].any():
            raise ValueError("label map is not injective on the support")
        col[hit] = new[at]
        dims[party] = dim
    return _valid_state(tuple(dims), labels, s.amps)


def amplitude_distance(a: PureState, b: PureState) -> float:
    """Max amplitude deviation after aligning global phases on a's
    largest-magnitude amplitude (label tie-break: smallest)."""
    xa, xb = _union(a, b)
    if not a.support_size:
        return float(np.abs(xb).max(initial=0.0))
    # libm hypot, as Python's abs: numpy's complex abs may differ by an ulp
    mags = np.hypot(xa.real, xa.imag)
    ref = np.flatnonzero(mags == mags.max())[0]  # union is in label order
    va, vb = complex(xa[ref]), complex(xb[ref])
    pa = va / abs(va)
    pb = vb / abs(vb) if abs(vb) > 0 else pa
    diff = xa / pa - xb / pb
    return float(np.hypot(diff.real, diff.imag).max())


def states_equal(a: PureState, b: PureState) -> bool:
    """Equality up to a global phase: amplitude_distance(a, b) <= NORM_TOL,
    and a state equals the empty state only if it is empty itself."""
    return (amplitude_distance(a, b) <= NORM_TOL
            and bool(a.support_size) == bool(b.support_size))
