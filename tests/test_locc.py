"""Local operators, POVMs, sampling, transcripts, and orthogonality checks."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import dense_matrix, psi_prime, reduced_density, terms
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprghz.canonical import (CanonicalComponent, StateSpec, copies, psi,
                              psi_prime_spec, psi_spec)
from eprghz.extraction import block_measurement_povm
from eprghz.hilbert import NORM_TOL, PureState, relabel, states_equal
from eprghz.locc import (
    ImpossibleOutcomeError, LocalOperator, Povm, Transcript, _shared_density,
    apply_element, apply_operator, as_generator, check_completeness,
    check_local_orthogonality, diagonal_operator, outcome_probabilities,
    permutation_operator, sample, stream_uniforms, trial_seeds,
    uniform_draws,
)
from eprghz.preparation import ghz_weighting_povm, row_shorten_povm


# -- operator constructors ---------------------------------------------------

def test_identity_and_diagonal(dense):
    op = diagonal_operator(1, np.ones(3))
    assert op.party == 1 and op.dim == 3
    assert np.allclose(dense(op), np.eye(3))
    d = diagonal_operator(0, [0.6, 0.8])
    assert np.allclose(dense(d), np.diag([0.6, 0.8]))


def test_local_operator_is_a_diagonal_weighting():
    assert [f.name for f in dataclasses.fields(LocalOperator)] == [
        "party", "weights"]
    for values, kind in (([True, False], bool), ([1, 0], float),
                         ([0.5, 1j], complex)):
        assert LocalOperator(0, values).weights.dtype == kind
    diag = np.full(4, 0.5)
    assert LocalOperator(0, diag).weights is diag     # cast without a copy
    with pytest.raises(ValueError):
        LocalOperator(0, [])
    with pytest.raises(ValueError):
        LocalOperator(0, [[1.0, 0.0]])


def test_permutation_operator(dense):
    # partial maps are completed by the identity, then checked bijective
    party, old, new = permutation_operator(0, [0, 1], [1, 0], 3)
    assert party == 0
    m = dense((party, old, new), 3)
    assert np.allclose(m @ m.conj().T, np.eye(3))
    assert m[1, 0] == 1.0 and m[2, 2] == 1.0
    with pytest.raises(ValueError):
        permutation_operator(0, [0], [1], 3)    # 0 and 1 both land on 1
    with pytest.raises(ValueError):
        permutation_operator(0, [0], [5], 3)
    with pytest.raises(ValueError):
        permutation_operator(0, [0], [-1], 3)
    with pytest.raises(ValueError):
        permutation_operator(0, [5], [0], 3)
    with pytest.raises(ValueError):
        permutation_operator(0, [0, 1], [1], 3)         # sides differ
    with pytest.raises(ValueError):
        permutation_operator(0, [0, 0, 1], [1, 2, 0], 3)   # old 0 repeated


def _dense_vector(state) -> np.ndarray:
    vec = np.zeros(state.local_dims, dtype=complex)
    for label, a in terms(state).items():
        vec[label] = a
    return vec


def _contract(matrix, vec, party) -> np.ndarray:
    """``matrix`` applied on axis ``party`` of a dense amplitude tensor."""
    return np.moveaxis(np.tensordot(matrix, vec, axes=(1, party)), 0, party)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2),
       st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
def test_local_operations_apply_like_their_dense_matrices(seed, party,
                                                          parties):
    """A diagonal weighting (complex and zero weights) and a permutation
    shared by several parties, against dense contraction of the dense
    amplitude tensor with each operation's matrix."""
    rng = np.random.default_rng(seed)
    dims = (3, 3, 3)
    support = sorted(rng.choice(27, size=int(rng.integers(1, 28)),
                                replace=False).tolist())
    vec = rng.standard_normal(len(support)) + 1j * rng.standard_normal(
        len(support))
    s = PureState(dims, [np.unravel_index(i, dims) for i in support], vec)
    weights = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * (
        rng.random(3) < 0.7)
    op = LocalOperator(party, weights)
    out = apply_operator(s, op)
    assert out.local_dims == dims
    assert np.allclose(_dense_vector(out),
                       _contract(dense_matrix(op), _dense_vector(s), party),
                       atol=1e-12)
    old = rng.permutation(3)[:int(rng.integers(0, 4))]
    new = rng.permutation(old)
    perm = permutation_operator(tuple(parties), old, new, 3)
    want = _dense_vector(s)
    for p in parties:
        want = _contract(dense_matrix(perm, 3), want, p)
    got = relabel(s, *perm)
    assert got.local_dims == dims
    assert np.array_equal(got.amps, s.amps)      # row order kept
    assert np.array_equal(_dense_vector(got), want)


# -- applying operators ------------------------------------------------------

def test_apply_operator_is_linear_no_renormalize():
    s = psi(0.6, 0.8)
    half = apply_operator(s, diagonal_operator(0, [0.5, 0.5]))
    assert half.norm() == pytest.approx(0.5)


def test_apply_operator_dim_mismatch():
    with pytest.raises(ValueError):
        apply_operator(psi(0.6, 0.8), diagonal_operator(0, np.ones(3)))


def test_apply_element_probability():
    s = psi(0.6, 0.8)
    post, prob = apply_element(s, diagonal_operator(0, [True, False]))
    assert prob == pytest.approx(0.36)
    assert terms(post) == pytest.approx({(0, 0, 0): 1.0})
    post, prob = apply_element(s, diagonal_operator(1, [False, True, False]))
    assert prob == pytest.approx(0.32)
    assert states_equal(post, PureState((2, 3, 3), [(1, 1, 1)], [1.0]))


def test_impossible_outcome_raises():
    product = PureState((2, 3, 3), [(0, 0, 0)], [1.0])
    with pytest.raises(ImpossibleOutcomeError):
        apply_element(product, diagonal_operator(0, [False, True]))


# -- POVMs -------------------------------------------------------------------

def test_povm_validation():
    with pytest.raises(ValueError):
        Povm(0, ())
    with pytest.raises(ValueError):
        Povm(0, (diagonal_operator(0, np.ones(2)),
                 diagonal_operator(1, np.ones(2))))
    with pytest.raises(ValueError):
        Povm(0, (diagonal_operator(0, np.ones(2)),
                 diagonal_operator(0, np.ones(3))))


def test_check_completeness():
    half = math.sqrt(0.5)
    p = Povm(0, (diagonal_operator(0, [half, half]),
                 diagonal_operator(0, [half, half])))
    assert check_completeness(p)
    broken = Povm(0, (diagonal_operator(0, [half, half]),))
    assert not check_completeness(broken)


def _package_povms():
    """Every kind of POVM the package builds, plus the negative control
    (a block measurement with its last element dropped)."""
    povms = []
    for lam in ([1.0], (0.64, 0.48, 0.48, 0.36),
                np.full(5, 1.0 / math.sqrt(5.0))):
        povms.append(ghz_weighting_povm(lam)[0])
    for g, keep in enumerate((4, 2, 2, 1)):
        povms.append(row_shorten_povm(range(4 * g, 4 * g + 4), keep,
                                      dim=16)[0])
    three = StateSpec(3, (CanonicalComponent(math.sqrt(0.4), (0,)),
                          CanonicalComponent(math.sqrt(0.35), (1, 2), 3),
                          CanonicalComponent(math.sqrt(0.25), (0, 1))))
    for spec, n in ((psi_spec(0.6, 0.8), 3),
                    (psi_prime_spec(0.6, 0.5, 0.4, math.sqrt(0.23)), 2),
                    (three, 2)):
        for party in (0, 1, 2):
            povms.append(block_measurement_povm(spec, n, party)[0])
    block = block_measurement_povm(psi_spec(0.6, 0.8), 3)[0]
    povms.append(Povm(block.party, block.elements[:-1]))
    return povms


@pytest.mark.parametrize("povm", _package_povms())
def test_completeness_agrees_with_dense_oracle(dense, povm):
    total = sum(dense(e).conj().T @ dense(e) for e in povm.elements)
    oracle = np.abs(total - np.eye(povm.dim)).max() <= NORM_TOL
    assert check_completeness(povm) == oracle


def test_dense_oracle_sees_the_negative_control(dense):
    # the oracle itself must fail on the dropped element, or the
    # agreement above would be vacuous for it
    povm = _package_povms()[-1]
    total = sum(dense(e).conj().T @ dense(e) for e in povm.elements)
    assert np.abs(total - np.eye(povm.dim)).max() == pytest.approx(1.0)
    assert not check_completeness(povm)


def test_outcome_probabilities():
    povm = Povm(0, (diagonal_operator(0, [True, False]),
                    diagonal_operator(0, [False, True])))
    probs = outcome_probabilities(psi(0.6, 0.8), povm)
    assert probs == pytest.approx([0.36, 0.64])
    incomplete = Povm(0, (diagonal_operator(0, [True, False]),))
    with pytest.raises(ValueError):
        outcome_probabilities(psi(0.6, 0.8), incomplete)


@pytest.mark.parametrize("case", ["block", "libm_squares"])
def test_probabilities_match_the_term_by_term_rule(case):
    # reference: build each branch as a dict in support order and add
    # abs(amplitude) ** 2 one term after another; transcripts print 17
    # digits, so the vectorized rule must agree exactly
    rng = np.random.default_rng(11)
    if case == "block":
        c = np.sqrt(rng.dirichlet(np.ones(4)))
        state = copies(psi_prime(*c), 4)
        povm, _ = block_measurement_povm(psi_prime_spec(*c), 4, party=1)
    else:
        # magnitudes whose libm square x ** 2 differs in the last bit
        # from x * x, the square numpy's vector power takes
        xs = [x for x in rng.uniform(0.1, 0.3, 50_000).tolist()
              if x ** 2 != x * x][:15]
        xs.append(math.sqrt(1.0 - sum(x * x for x in xs)))
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 16))
        state = PureState((1, 16, 16), [(0, i, i) for i in range(16)],
                          np.array(xs) * phases)
        povm = row_shorten_povm(range(16), 8)[0]
    want = []
    for e in povm.elements:
        branch = {}
        for l, a in terms(state).items():
            x = l[povm.party]
            if e.weights[x]:
                branch[l] = np.complex128(e.weights[x]) * a
        total = 0.0
        for v in branch.values():
            total += abs(v) ** 2
        want.append(total)
    assert outcome_probabilities(state, povm).tolist() == want
    j = int(np.argmax(want))
    assert apply_element(state, povm.elements[j])[1] == want[j]


def test_sample_rejects_incomplete_povm():
    incomplete = Povm(0, (diagonal_operator(0, [True, False]),))
    with pytest.raises(ValueError):
        sample(psi(0.6, 0.8), incomplete, 0)


def test_sample_deterministic_under_seed():
    povm = Povm(0, (diagonal_operator(0, [True, False]),
                    diagonal_operator(0, [False, True])))
    s = psi(0.6, 0.8)
    a = sample(s, povm, 42)
    b = sample(s, povm, 42)
    assert a[0] == b[0]
    assert a[2] == b[2]
    assert states_equal(a[1], b[1])


def test_sample_frequencies():
    povm = Povm(0, (diagonal_operator(0, [True, False]),
                    diagonal_operator(0, [False, True])))
    s = psi(0.6, 0.8)
    gen = np.random.default_rng(7)
    hits = sum(sample(s, povm, gen)[0] for _ in range(2000))
    # p = 0.64, 4 sigma ~ 0.043
    assert abs(hits / 2000 - 0.64) < 0.043


# -- transcripts -------------------------------------------------------------

def test_transcript_format():
    t = Transcript()
    t.extend(["weighting", "shorten_row0"], [0, 1], [3, 1], [0.25, 0.5])
    text = t.to_text()
    lines = text.splitlines()
    assert lines[0] == "step\tparty\toutcome\tprobability"
    assert lines[1] == "weighting\t0\t3\t0.25"
    assert len(t.steps) == 2
    assert math.prod(t.probabilities) == pytest.approx(0.125)


def test_transcript_rejects_bad_probability():
    t = Transcript()
    with pytest.raises(ValueError):
        t.extend(["m"], 0, [0], [1.5])
    with pytest.raises(ValueError):
        t.extend(["m"], 0, [0], [-0.2])


# an integer of each kind extend takes: Python ints, numpy ints and ids
# past int64
_IDS = st.one_of(st.integers(0, 2**63 - 1),
                 st.integers(0, 2**31).map(np.int64),
                 st.integers(0, 127).map(np.int8),
                 st.integers(2**63, 2**80))
_PROBS = st.sampled_from([0.0, 5e-324, 1.0 - 1e-10, 1.0, 1.0 + 1e-10,
                          0.25, 0.1 + 0.2])


@st.composite
def _runs(draw):
    """Arguments of one ``extend``: step names as a range or a tuple, one
    party for the run or one per row, and integer columns as lists, int64
    arrays (when every id fits) or object arrays."""
    size = draw(st.integers(0, 5))
    steps = draw(st.sampled_from([range(size), tuple(
        f"s{j}" for j in range(size))]))
    parties = draw(st.one_of(
        st.integers(0, 4), st.integers(0, 4).map(np.int64),
        st.lists(st.integers(0, 4), min_size=size, max_size=size)))
    outcomes = draw(st.lists(_IDS, min_size=size, max_size=size))
    form = draw(st.sampled_from(["list", "int64", "object"]))
    if form == "object":
        outcomes = np.array(outcomes, dtype=object)
    elif form == "int64" and all(v < 2**63 for v in outcomes):
        outcomes = np.array(outcomes, dtype=np.int64)
    probs = draw(st.lists(_PROBS, min_size=size, max_size=size))
    prefix = draw(st.sampled_from(["", "trial", "branch3."]))
    return steps, parties, outcomes, probs, prefix


@given(st.lists(_runs(), max_size=4))
@example([])
@example([(["trial0", "trial1", "trial2"], 0, [3, 2**70, 0],
           np.array([0.25, 1.0, 5e-324]), ""),
          (["b0.w", "b0.w", "x"], np.array([2, 1, 0]), np.array([1, 7, 1]),
           [1.0 + 1e-10, -1e-10, 0.1 + 0.2], "")])
@settings(max_examples=80, deadline=None)
def test_extended_rows_read_back_as_their_own_lines(runs):
    """Rows read back through ``column`` are Python values that spell one
    f-string line per row, as given: the writer's oracle for ``to_text``."""
    t, lines = Transcript(), []
    for steps, parties, outcomes, probs, prefix in runs:
        t.extend(steps, parties, outcomes, probs, prefix=prefix)
        for j, name in enumerate(steps):
            party = parties[j] if np.ndim(parties) else parties
            lines.append(f"{prefix}{name}\t{int(party)}\t"
                         f"{int(outcomes[j])}\t{probs[j]:.17g}")
    columns = [t.column(i)[:] for i in range(4)]
    assert all(type(v) is int for v in columns[1] + columns[2])
    assert [f"{s}\t{p}\t{o}\t{q:.17g}" for s, p, o, q in zip(*columns)] \
        == lines
    assert t.to_text() == "\n".join(
        ["step\tparty\toutcome\tprobability"] + lines) + "\n"


@pytest.mark.parametrize("bad", [True, np.True_, 1.5, np.float64(2.0), "3"],
                         ids=repr)
@pytest.mark.parametrize("column, form", [
    (1, "scalar"), (1, "list"), (1, "object"), (1, "array"),
    (2, "list"), (2, "object"), (2, "array")])
def test_a_run_with_a_non_integer_id_appends_nothing(bad, column, form):
    """A bool, float or numeric string among the parties (column 1) or
    outcomes (column 2) is refused before anything is appended, whether
    alone, in a list, in an object array or as the dtype of an array."""
    values = {"scalar": bad, "list": [0, bad], "array": np.array([bad, bad]),
              "object": np.array([0, bad], dtype=object)}[form]
    t, before = Transcript(), Transcript()
    for each in (t, before):
        each.extend(range(2), 1, [2**70, 4], [0.5, 0.5], prefix="trial")
    run = [["a", "b"], [0, 1], [5, 6], [0.5, 0.5]]
    run[column] = values
    what = ("party", "outcome")[column - 1]
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got "):
        t.extend(*run)
    assert t == before and len(t._runs) == 1


@pytest.mark.parametrize("probabilities", [
    ["0.5", True], [0.5, True], [0.5, np.True_], np.array([0.5, "0.5"]),
    np.array([True, False]), np.array([0.5, True], dtype=object)], ids=repr)
def test_a_run_with_a_non_number_probability_appends_nothing(probabilities):
    """A bool or string probability, in a list or an array of any dtype
    but float, is refused before anything is appended."""
    t = Transcript()
    with pytest.raises(ValueError, match="^probability must be a number, "):
        t.extend(["a", "b"], 0, [0, 1], probabilities)
    assert not t._runs


def test_a_float_array_of_probabilities_passes_by_its_dtype():
    t = Transcript()
    t.extend(["a", "b"], 0, [0, 1], np.array([0.5, 1.0], dtype=np.float32))
    t.extend(["c"], 0, [0], [np.float64(0.25)])
    assert t.probabilities == [0.5, 1.0, 0.25]


def test_numbered_steps_are_spelt_only_when_read():
    """A numbered run of step names is held as its range; ``steps`` and
    ``to_text`` spell it as one name per row would."""
    t, one = Transcript(), Transcript()
    t.extend(["w"], 1, [0], [0.5])
    t.extend(range(3), 0, np.array([2, 0, 1]), [0.25, 0.5, 0.25],
             prefix="trial")
    t.extend(["a", "b"], 2, [1, 1], [1.0, 1.0], prefix="branch7.")
    prefix, steps, party, outcomes, probs = t._runs[1]
    assert (prefix, steps, party) == ("trial", range(3), 0)
    assert outcomes.dtype == np.int64 and probs.dtype == float
    rows = [("w", 1, 0, 0.5), ("trial0", 0, 2, 0.25), ("trial1", 0, 0, 0.5),
            ("trial2", 0, 1, 0.25), ("branch7.a", 2, 1, 1.0),
            ("branch7.b", 2, 1, 1.0)]
    for step, *rest in rows:
        one.extend([step], *([v] for v in rest))
    assert t == one and t.steps == one.steps
    assert list(zip(*(t.column(i)[:] for i in range(4)))) == rows
    # a transcript equals only a transcript
    assert (t == 1) is False and t != [t]
    assert t.to_text() == one.to_text()


def test_transcript_keeps_its_own_copy_of_extended_arrays():
    """Arrays given to ``extend`` are copied: changing them afterwards, or
    the lists given, leaves the transcript as it was."""
    parties, outcomes = np.array([0, 1, 2]), np.array([5, 6, 7])
    probs, names = np.array([0.25, 0.5, 0.25]), ["a", "b", "c"]
    t, want = Transcript(), Transcript()
    t.extend(names, parties, outcomes, probs)
    want.extend(["a", "b", "c"], [0, 1, 2], [5, 6, 7], [0.25, 0.5, 0.25])
    parties[:], outcomes[:], probs[:] = 2, 9, 1.0
    names[0] = "z"
    assert t == want and t.to_text() == want.to_text()


def test_bulk_transcript_rejects_bad_rows():
    t = Transcript()
    for bad in (1.5, float("nan"), -0.2):
        with pytest.raises(ValueError, match=f"^probability {bad} outside"):
            t.extend(["a", "b"], 0, [0, 1], [0.5, bad])
    with pytest.raises(ValueError, match="differ in length"):
        t.extend(["a", "b"], 0, [0], [0.5, 0.5])
    assert t == Transcript()


def test_column_reads_are_python_values():
    """Rows given as numpy scalars and arrays read back as str, int, int
    and float."""
    t = Transcript()
    t.extend([np.str_("s")], np.array([1]), np.array([np.int64(2)]),
             [np.float64(0.5)])
    row = [t.column(i)[:][0] for i in range(4)]
    assert [type(x) for x in row] == [str, int, int, float]
    assert row == ["s", 1, 2, 0.5]


# -- randomness plumbing -----------------------------------------------------

def test_as_generator_accepts_all_forms():
    g1 = as_generator(5)
    g2 = as_generator(np.random.SeedSequence(5))
    assert g1.random() == g2.random()
    gen = np.random.default_rng(1)
    assert as_generator(gen) is gen


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from([0, 2**32 - 1]),
                 st.integers(0, 2**32).map(lambda k: 2**64 + k),
                 st.integers(0, 2**32).map(lambda k: 2**200 + k),
                 st.integers(0, 2**160)),
       st.integers(1, 9))
@example(0, 1)
@example(2**32 - 1, 2**16)
@example(2**64 + 7, 2**16 + 1)
@example(2**200 + 3, 2**16 + 1)
def test_trial_uniforms_equal_each_trial_streams_first_double(seed, trials):
    """Each trial's first uniform, as explicit extraction draws them in
    bulk, against numpy itself: one Generator per spawned SeedSequence.
    2**16 + 1 trials cross the kernel's chunk edge."""
    want = np.array([as_generator(ss).random()
                     for ss in trial_seeds(seed, trials)])
    got = stream_uniforms(seed, 1, np.arange(trials))[:, 0]
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_trial_uniforms_refuse_a_bad_seed_as_numpy_does():
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence(-3)
    with pytest.raises(ValueError) as kernel_error:
        stream_uniforms(-3, 1, np.arange(4))
    assert str(kernel_error.value) == str(numpy_error.value)
    assert stream_uniforms(5, 1, np.arange(0)).shape == (0, 1)


@pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 5])
@pytest.mark.parametrize("count", [0, 1, 2, 17, 40])
def test_stream_uniforms_equal_numpy_generators(seed, count):
    """The first ``count`` doubles of the root stream and of spawned
    streams, bit for bit against numpy's own Generator, for seeds of one,
    two and five entropy words."""
    want = np.random.default_rng(seed).random(count)
    got = stream_uniforms(seed, count)
    assert got.shape == (count,) and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    children = trial_seeds(seed, 6)
    keys = [5, 0, 3]
    want = np.array([np.random.default_rng(children[k]).random(count)
                     for k in keys]).reshape(len(keys), count)
    got = stream_uniforms(seed, count, keys)
    assert got.shape == (len(keys), count)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # one double at a time from a Generator is the same stream
    gen = np.random.default_rng(seed)
    assert [gen.random() for _ in range(count)] == \
        stream_uniforms(seed, count).tolist()


def test_stream_uniforms_refuse_bad_input():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        stream_uniforms(-1, 3)
    with pytest.raises(ValueError, match="count"):
        stream_uniforms(1, -1)
    with pytest.raises(ValueError, match="spawn keys"):
        stream_uniforms(1, 2, [2**32])
    assert stream_uniforms(1, 3, []).shape == (0, 3)


def test_uniform_draws_of_every_source():
    """An int seed's root stream, a Generator, a SeedSequence and the
    draws themselves all give the same doubles."""
    want = np.random.default_rng(11).random(5)
    for rng in (11, np.int64(11), np.random.default_rng(11),
                np.random.SeedSequence(11), want):
        assert np.array_equal(uniform_draws(rng, 5), want)
    with pytest.raises(ValueError, match="need 5 draws"):
        uniform_draws(want[:4], 5)


def test_trial_seeds_deterministic_and_distinct():
    a = trial_seeds(9, 4)
    b = trial_seeds(9, 4)
    assert len(a) == 4
    draws_a = [as_generator(s).random() for s in a]
    draws_b = [as_generator(s).random() for s in b]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 4


# -- local orthogonality -----------------------------------------------------

def test_local_orthogonality_of_spec_components():
    for spec in (psi_spec(0.6, 0.8), psi_prime_spec(0.5, 0.5, 0.5, 0.5)):
        parts = [spec.component_state(i) for i in range(len(spec.components))]
        assert check_local_orthogonality(parts)


def test_local_orthogonality_detects_overlap():
    # globally orthogonal but sharing label 0 on party 0
    a = PureState((2, 2), [(0, 0)], [1.0])
    b = PureState((2, 2), [(0, 1)], [1.0])
    assert not check_local_orthogonality([a, b])
    assert check_local_orthogonality([a])
    with pytest.raises(ValueError):
        check_local_orthogonality([a, PureState((3, 3), [(0, 0)], [1.0])])


def _random_component(rng, dims):
    labels = {tuple(int(rng.integers(d)) for d in dims)
              for _ in range(int(rng.integers(1, 7)))}
    amps = [complex(rng.normal(), rng.normal()) for _ in labels]
    return PureState(dims, list(labels), amps).normalized()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_shared_density_overlap_matches_reduced_density(seed):
    """The overlap on the shared labels equals Tr[rho_a rho_b] from the
    full dense one-party densities (the independent oracle)."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(2, 4)))
    a, b = _random_component(rng, dims), _random_component(rng, dims)
    for party in range(len(dims)):
        shared = np.intersect1d(a.labels[:, party], b.labels[:, party])
        rho_a, rho_b = (reduced_density(s, party) for s in (a, b))
        got_a, got_b = (_shared_density(s, party, shared) for s in (a, b))
        assert np.allclose(got_a, rho_a[np.ix_(shared, shared)], atol=1e-12)
        assert abs(np.vdot(got_a, got_b)) == \
            pytest.approx(abs(np.vdot(rho_a, rho_b)), abs=1e-12)
    oracle = all(abs(np.vdot(reduced_density(a, p),
                             reduced_density(b, p))) <= 1e-12
                 for p in range(len(dims)))
    assert check_local_orthogonality([a, b]) == oracle


# -- block measurement is party-independent ----------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_block_povm_party_independent_psi(n):
    spec = psi_spec(0.6, 0.8)
    state = copies(psi(0.6, 0.8), n)
    reference = None
    for party in (0, 1, 2):
        povm, indices = block_measurement_povm(spec, n, party=party)
        assert check_completeness(povm)
        probs = outcome_probabilities(state, povm)
        if reference is None:
            reference = probs
        else:
            assert probs == pytest.approx(reference, abs=1e-12)
    assert indices.tolist() == [[k, n - k] for k in range(n + 1)]


def test_block_povm_party_independent_psi_prime():
    spec = psi_prime_spec(0.5, 0.5, 0.5, 0.5)
    state = copies(psi_prime(0.5, 0.5, 0.5, 0.5), 2)
    results = []
    for party in (0, 1, 2):
        povm, _ = block_measurement_povm(spec, 2, party=party)
        results.append(outcome_probabilities(state, povm))
    assert results[1] == pytest.approx(results[0], abs=1e-12)
    assert results[2] == pytest.approx(results[0], abs=1e-12)
