"""Constructors for canonical resource states and the shared-tripartite family.

Canonical resources are the uniform maximally correlated states: the 2-party
EPR pair, the n-party GHZ state, and their r-level / t-level generalizations.
The family of interest is built from a ``StateSpec``: a list of components,
each either a product ket or a level-d canonical state on a party subset,
embedded so that different components occupy disjoint local label ranges on
every party (which makes them locally orthogonal by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (NORM_TOL, PureState, _check_budget, _integer, _listed,
                      _number, _unit_sum, _valid_state, tensor)

SQ2 = math.sqrt(2.0)


def level_ghz(t: int, parties, party_count: int | None = None) -> PureState:
    """t-level GHZ: (1/sqrt t) sum_i |i i ... i> on the given parties.

    Non-member parties (if ``party_count`` exceeds them) are dim-1
    placeholders, so the result composes with states on the full party set.
    """
    t = _integer(t, "level", 1)
    if party_count is not None:
        party_count = _integer(party_count, "party count", 2)
    parties = tuple(sorted({_integer(p, "party", 0, party_count)
                            for p in parties}))
    if len(parties) < 2:
        raise ValueError("a GHZ-type state needs at least 2 parties")
    party_count = parties[-1] + 1 if party_count is None else party_count
    dims = tuple(t if p in parties else 1 for p in range(party_count))
    labels = np.zeros((t, len(dims)), dtype=np.int64)
    labels[:, parties] = np.arange(t)[:, None]
    # distinct in-range rows by construction
    return _valid_state(dims, labels,
                        np.full(t, 1.0 / math.sqrt(t), dtype=complex))


def level_epr(r: int, parties, party_count: int | None = None) -> PureState:
    """r-level maximally entangled pair: (1/sqrt r) sum_i |ii>."""
    parties = tuple(sorted({_integer(p, "party", 0) for p in parties}))
    if len(parties) != 2:
        raise ValueError(f"an EPR-type state needs exactly 2 parties, got {parties}")
    return level_ghz(r, parties, party_count)


def epr(parties, party_count: int | None = None) -> PureState:
    """The EPR pair (|00> + |11>)/sqrt 2 on two distinct parties."""
    return level_epr(2, parties, party_count)


def ghz(n: int) -> PureState:
    """The n-party GHZ state (|0...0> + |1...1>)/sqrt 2 (n >= 2)."""
    return level_ghz(2, range(_integer(n, "n")))


def psi(c0: float, c1: float) -> PureState:
    """The tripartite seed state c0|000> + c1|1>(|11>+|22>)/sqrt2, dims (2,3,3)."""
    _check_unit(c0, c1)
    return PureState((2, 3, 3), [(0, 0, 0), (1, 1, 1), (1, 2, 2)],
                     [c0, c1 / SQ2, c1 / SQ2])


def _check_unit(*cs):
    cs = tuple(_number(c, "coefficient") for c in cs)
    if any(c < 0 for c in cs):
        raise ValueError(f"coefficients must be non-negative, got {cs}")
    _unit_sum(sum(c * c for c in cs), "squared coefficients")


@dataclass(frozen=True)
class CanonicalComponent:
    """One term of a StateSpec.

    ``support`` of size >= 2 carries a level-``level`` canonical state;
    support of size 1 marks a pure product component (every party parked on
    a single label). Labels are assigned by the spec, not stored here.
    """

    coefficient: float
    support: tuple[int, ...]
    level: int = 2

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(sorted({
            _integer(p, "support entry", 0)
            for p in _listed(self.support, "support")})))
        object.__setattr__(self, "coefficient",
                           _number(self.coefficient, "coefficient"))
        object.__setattr__(self, "level", _integer(self.level, "level", 2))
        if not self.support:
            raise ValueError(f"bad support {self.support}")
        if not 0.0 < self.coefficient <= 1.0 + NORM_TOL:
            raise ValueError(f"coefficient must be in (0,1], got {self.coefficient}")

    @property
    def terms(self) -> int:
        """Kets of the component's state: its level, or 1 for a product."""
        return self.level if len(self.support) >= 2 else 1

    def width(self, party: int) -> int:
        """Local label-range width this component occupies on ``party``."""
        return self.terms if party in self.support else 1


@dataclass(frozen=True)
class StateSpec:
    """Component list defining a multipartite state of the shared family."""

    party_count: int
    components: tuple[CanonicalComponent, ...]

    def __post_init__(self):
        comps = tuple(c for c in self.components if c.coefficient > 0.0)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "party_count",
                           _integer(self.party_count, "party count", 2))
        _check_budget("the state specification", "state parties",
                      self.party_count)
        if not comps:
            raise ValueError("spec has no nonzero components")
        for c in comps:
            _integer(c.support[-1], "support entry", 0, self.party_count)
        _unit_sum(sum(c.coefficient**2 for c in comps), "squared coefficients")

    def local_dims(self) -> tuple[int, ...]:
        return tuple(sum(c.width(p) for c in self.components)
                     for p in range(self.party_count))

    def offsets(self, i: int) -> tuple[int, ...]:
        """Per-party label offset of component ``i`` (cumulative widths)."""
        return tuple(sum(c.width(p) for c in self.components[:i])
                     for p in range(self.party_count))

    def product_labels(self, i: int) -> dict[int, int]:
        """Realized parked label per non-correlated party of component ``i``."""
        comp = self.components[i]
        offs = self.offsets(i)
        return {p: offs[p] for p in range(self.party_count)
                if comp.width(p) == 1}

    def component_state(self, i: int) -> PureState:
        """Component ``i`` embedded in the full label space, normalized."""
        comp = self.components[i]
        spread = [comp.width(p) > 1 for p in range(self.party_count)]
        labels = np.outer(np.arange(comp.terms), spread) + self.offsets(i)
        return PureState(self.local_dims(), labels,
                         np.full(comp.terms, 1.0 / math.sqrt(comp.terms)))

    def squared_coefficients(self) -> tuple[float, ...]:
        return tuple(c.coefficient**2 for c in self.components)


def psi_spec(c0: float, c1: float) -> StateSpec:
    _check_unit(c0, c1)
    comps = []
    if c0 > 0:
        comps.append(CanonicalComponent(c0, (0,)))
    if c1 > 0:
        comps.append(CanonicalComponent(c1, (1, 2)))
    return StateSpec(3, tuple(comps))


def psi_prime_spec(c0: float, c1: float, c2: float, c3: float) -> StateSpec:
    _check_unit(c0, c1, c2, c3)
    supports = [(0,), (1, 2), (0, 2), (0, 1)]
    comps = [CanonicalComponent(c, s)
             for c, s in zip((c0, c1, c2, c3), supports) if c > 0]
    return StateSpec(3, tuple(comps))


def spec_draws(party_count: int) -> int:
    """Uniform doubles ``random_spec`` reads for ``party_count`` parties:
    one for the component count, then party_count + 3 for each of up to
    4 components."""
    return 1 + 4 * (party_count + 3)


def random_spec(party_count: int, rng: np.random.Generator) -> StateSpec:
    """Random member of the family: random supports, levels, and weights.

    Reads p = ``party_count`` and exactly ``spec_draws(p)`` = 1 + 4 (p + 3)
    uniform doubles u through ``uniform_draws``, so ``rng`` may be an int
    seed (its root stream, formed without numpy.random), a Generator, a
    SeedSequence, or a float array of exactly that many draws; a seed S
    gives the layout of ``default_rng(S)``. The first double gives
    2 + floor(3u) components. Component i reads the p + 3 doubles from
    1 + i (p + 3): a support size 1 + floor(p u), the support as the
    parties with the smallest of the next p doubles (a uniform subset), a
    level 2 + floor(2u) and a weight u + 0.1 (normalized, square-rooted).
    The doubles of components past the count are read and unused.

    Disjoint label ranges keep the components locally orthogonal whatever
    the draw, so every sample is a valid input to the block machinery.
    """
    p = _integer(party_count, "party count", 2)
    _check_budget("the state specification", "state parties", p)
    from .locc import uniform_draws

    u = uniform_draws(rng, spec_draws(p))
    rows = u[1:].reshape(4, p + 3)[:2 + int(3 * u[0])]
    sizes = 1 + (p * rows[:, 0]).astype(np.int64)
    levels = 2 + (2 * rows[:, p + 1]).astype(np.int64)
    # floor keeps every coefficient safely nonzero
    w = rows[:, p + 2] + 0.1
    w = np.sqrt(w / w.sum())
    return StateSpec(p, tuple(
        CanonicalComponent(float(c), np.argsort(keys)[:size].tolist(), level)
        for c, keys, size, level in zip(w, rows[:, 1:p + 1], sizes, levels)))


def psi_general(spec: StateSpec) -> PureState:
    """Assemble the spec's state: sum_i c_i |component_i>.

    Disjoint per-party label ranges make the components locally orthogonal
    by construction; this is re-verified here against the trace criterion.
    """
    from .locc import check_local_orthogonality

    parts = [spec.component_state(i) for i in range(len(spec.components))]
    if len(parts) > 1 and not check_local_orthogonality(parts):
        raise ValueError("spec components are not locally orthogonal")
    return PureState(
        spec.local_dims(), np.concatenate([part.labels for part in parts]),
        np.concatenate([c.coefficient * part.amps
                        for c, part in zip(spec.components, parts)]))


def copies(s: PureState, n: int) -> PureState:
    """N-fold tensor power with per-party mixed-radix label flattening.

    Copy 0 is the most significant digit of each party's flattened label.
    Refuses supports beyond the explicit budget; large-N questions have
    analytic paths (block probabilities, expected yields, fidelity).
    """
    n = _integer(n, "n", 1)
    _check_copies(s.support_size, n)
    out = s
    for _ in range(n - 1):
        out = tensor(out, s)
    return out


def _check_copies(size: int, n: int) -> None:
    """Refuse the n-copy power of a ``size``-term state over budget."""
    what = f"the {n}-copy power of a {size}-term state"
    _check_budget(what, "explicit copies", n)
    _check_budget(what, "explicit terms", lambda: size**n,
                  n * math.log2(max(size, 1)))


# -- StateSpec serialization (consumed by the CLI --spec flag) --------------

def spec_to_dict(spec: StateSpec) -> dict:
    comps = []
    for i, c in enumerate(spec.components):
        entry = {"c": c.coefficient, "support": list(c.support)}
        if c.level != 2:
            entry["level"] = c.level
        entry["product_labels"] = {str(p): l
                                   for p, l in spec.product_labels(i).items()}
        comps.append(entry)
    return {"m": spec.party_count, "components": comps}


def spec_from_dict(data: dict) -> StateSpec:
    try:
        m, raw = data["m"], data["components"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"spec object needs 'm' and 'components': {exc}")
    raw = _listed(raw, "components")
    spec = StateSpec(m, tuple(CanonicalComponent(
        e["c"], e["support"], e.get("level", 2)) for e in raw))
    for i, entry in enumerate(raw):
        declared = entry.get("product_labels")
        if declared is None:
            continue
        realized = spec.product_labels(i)
        declared = {int(p): _integer(l, "product label")
                    for p, l in declared.items()}
        if declared != realized:
            raise ValueError(
                f"component {i}: declared product labels {declared} do not "
                f"match the label-range construction {realized}")
    return spec


def spec_to_json(spec: StateSpec) -> str:
    import json

    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def spec_from_json(text: str) -> StateSpec:
    import json

    return spec_from_dict(json.loads(text))

