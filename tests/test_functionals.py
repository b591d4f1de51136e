"""Trace parts, tail-state singular parts, norm bounds, and the quotient."""

import numpy as np
import pytest

import commlab
from commlab import (
    FunctionalSpec,
    HermitianTuple,
    NotConverged,
    OperatorModelSpec,
    SampleSpec,
    TailStateSpec,
    TracePart,
    conjugate_gauge,
    coordinate_tail_states,
    detect_limit,
    e_norm_max,
    eval_functional,
    eval_singular_part,
    eval_trace_part,
    functional_norm_bounds,
    gauge_norm,
    gauge_value,
    generate_test_set,
    instantiate_model,
    quotient_norm_bounds,
    reduce_to_trace,
    schatten,
)
from commlab import functionals
from commlab.idealops import band_commutator
from commlab.qau import PATIENCE, STOP_TOLERANCE, SUFFICIENT

G2 = schatten(2)
EMPTY = np.zeros((0, 0), dtype=np.complex128)


def diag_pair():
    """Single-operator tuple diag(0, 1) with zero bandwidth."""
    return HermitianTuple.from_matrices([np.diag([0.0, 1.0])])


def random_block(rng, s):
    return rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))


def embed(block, dim):
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[: block.shape[0], : block.shape[0]] = block
    return out


# -------------------------------------------------------- limit detection


def test_detect_limit_constant_sequence():
    assert detect_limit([3.0] * 8) == 3.0


def test_detect_limit_too_short():
    with pytest.raises(NotConverged) as err:
        detect_limit([1.0] * 5)
    assert err.value.sequence == (1.0,) * 5


@pytest.mark.parametrize("values, rule", [
    ([1.0] * 5 + [np.nan], "plain"),
    ([1.0] + [np.inf] * 6, "plain"),
    ([1.0] + [np.inf] * 6, "cesaro"),
    ([1.0] * 3 + [-np.inf, np.inf] + [1.0] * 3, "cesaro"),
], ids=["nan-last", "inf-run", "cesaro-inf-run", "cesaro-inf-pair"])
def test_detect_limit_refuses_non_finite_values(values, rule):
    # a delta to nan compares false against the tolerance, and inf - inf is nan;
    # under cesaro the running means are not formed, so no warning is raised
    with pytest.raises(NotConverged, match="non-finite value"):
        detect_limit(values, rule=rule)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-9])
def test_detection_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    # a delta compares false against a nan tolerance, so every sequence would settle
    with pytest.raises(ValueError, match="detection tolerance must be positive and finite"):
        detect_limit([1, 2, 3, 4, 5, 6, 7], tol=tol)
    with pytest.raises(ValueError, match="detection tolerance must be positive and finite"):
        coordinate_tail_states(range(10, 20), detection_tol=tol)


def test_detect_limit_unknown_rule():
    with pytest.raises(ValueError):
        detect_limit([0.0] * 8, rule="median")


# ------------------------------------------------------------ trace parts


def test_eval_picks_out_matrix_entry():
    tau = diag_pair()
    tp = TracePart(x=np.array([[1.0]]), ys=(EMPTY,), gauge=G2)
    rng = np.random.default_rng(41)
    s = random_block(rng, 2)
    s = (s + s.conj().T) / 2
    assert eval_trace_part(tp, tau, s) == pytest.approx(s[0, 0], abs=1e-14)


def test_eval_commutator_slot_hand_example():
    tau = diag_pair()
    y = np.array([[0.0, 0.0], [1.0, 0.0]])  # single 1 at (2,1)
    tp = TracePart(x=EMPTY, ys=(y,), gauge=G2)
    rng = np.random.default_rng(42)
    s = random_block(rng, 2)
    s = (s + s.conj().T) / 2
    assert eval_trace_part(tp, tau, s) == pytest.approx(-s[0, 1], abs=1e-14)


@pytest.mark.parametrize("make", [
    lambda v: TracePart(x=[[v]], ys=(EMPTY,), gauge=G2),
    lambda v: TracePart(x=EMPTY, ys=(np.array([[1.0, v], [0.0, 1.0]]),), gauge=G2),
    lambda v: TailStateSpec(windows=((3, 4),), states=(np.array([[1.0, v], [v, 0.0]]),)),
], ids=["trace-x", "trace-y", "tail-state"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_blocks_refuse_non_finite_entries(make, value):
    with pytest.raises(ValueError, match="blocks must have finite entries"):
        make(value)


def test_eval_refuses_oversized_supports():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 8)
    tp = TracePart(x=np.eye(9), ys=(EMPTY, EMPTY), gauge=G2)
    with pytest.raises(ValueError):
        eval_trace_part(tp, tau, np.eye(8))


def test_eval_stable_under_reinstantiation():
    # The value only sees fixed leading corners of S, so growing the ambient
    # dimension with the same corner cannot move it.
    rng = np.random.default_rng(43)
    x = random_block(rng, 3)
    ys = (random_block(rng, 4), random_block(rng, 4))
    spec = OperatorModelSpec(name="lap-pos")
    small = instantiate_model(spec, 16)
    big = instantiate_model(spec, 48)
    tp = TracePart(x=x, ys=ys, gauge=G2)
    corner = random_block(rng, 16)
    a = eval_trace_part(tp, small, corner)
    b = eval_trace_part(tp, big, embed(corner, 48))
    assert a == pytest.approx(b, abs=1e-12)


def test_reduce_identity_cases():
    tau = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=2), 8)
    rng = np.random.default_rng(44)
    x = random_block(rng, 4)
    plain = TracePart(x=x, ys=(EMPTY, EMPTY), gauge=G2)
    assert np.array_equal(reduce_to_trace(plain, tau), x)
    # diagonal y commutes with the diagonal model, contributing nothing
    y = np.diag(rng.standard_normal(3)).astype(np.complex128)
    commuting = TracePart(x=x, ys=(y, EMPTY), gauge=G2)
    assert np.allclose(reduce_to_trace(commuting, tau), x, atol=1e-14)


def test_reduce_matches_direct_evaluation():
    rng = np.random.default_rng(45)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 24)
    tp = TracePart(x=random_block(rng, 4),
                   ys=(random_block(rng, 4), random_block(rng, 4)),
                   gauge=G2)
    xp = reduce_to_trace(tp, tau)
    for _ in range(20):
        s = random_block(rng, 24)
        s = (s + s.conj().T) / 2
        direct = eval_trace_part(tp, tau, s)
        via_xp = complex(np.trace(embed(xp, 24) @ s))
        assert abs(direct - via_xp) < 1e-10


# ---------------------------------------------------------- tail states


def test_singular_constant_diagonal():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 64)
    ts = coordinate_tail_states(range(40, 50))
    value = eval_singular_part(ts, tau.matrices[1])
    assert value == pytest.approx(2.0, abs=1e-14)


def test_singular_vanishes_exactly_on_finite_support():
    ts = coordinate_tail_states(range(20, 30))
    s = np.zeros((32, 32), dtype=np.complex128)
    s[:10, :10] = np.eye(10)
    assert eval_singular_part(ts, s) == 0.0


def test_oscillation_needs_cesaro():
    n = 48
    s = np.diag([(-1.0) ** j for j in range(1, n + 1)])
    plain = coordinate_tail_states(range(1, 41))
    with pytest.raises(NotConverged) as err:
        eval_singular_part(plain, s)
    assert len(err.value.sequence) == 40
    cesaro = coordinate_tail_states(range(1, 41), limit_rule="cesaro",
                                    detection_tol=0.06)
    assert eval_singular_part(cesaro, s) == pytest.approx(0.0, abs=1e-12)


def test_tail_state_validation():
    with pytest.raises(ValueError):
        coordinate_tail_states([5, 5, 6])  # starts must strictly increase
    with pytest.raises(ValueError):
        # a weighted point mass is not a state unless its trace is one
        TailStateSpec(windows=((3, 3),), states=(np.array([[2.0]]),))
    with pytest.raises(ValueError, match="hermitian"):
        # its hermitian part is a density matrix, but its trace norm is sqrt(5),
        # so the singular part's certified norm bound of one would be false
        TailStateSpec(windows=((3, 4),), states=(np.array([[0.5, 1.0], [-1.0, 0.5]]),))


def test_singular_depth_validation():
    ts = coordinate_tail_states(range(4, 16))
    with pytest.raises(ValueError):
        eval_singular_part(ts, np.eye(8))  # windows outrun the matrix


# ------------------------------------------------------ whole functionals


def test_functional_spec_needs_a_part():
    with pytest.raises(ValueError):
        FunctionalSpec()


def test_trace_only_functional_matches_part():
    rng = np.random.default_rng(46)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 24)
    tp = TracePart(x=random_block(rng, 3),
                   ys=(random_block(rng, 3), random_block(rng, 3)), gauge=G2)
    phi = FunctionalSpec(trace_part=tp)
    s = random_block(rng, 24)
    assert eval_functional(phi, tau, s) == eval_trace_part(tp, tau, s)


def test_mixed_functional_sums_parts():
    rng = np.random.default_rng(47)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 64)
    tp = TracePart(x=random_block(rng, 3),
                   ys=(random_block(rng, 3), random_block(rng, 3)), gauge=G2)
    ts = coordinate_tail_states(range(40, 50))
    phi = FunctionalSpec(trace_part=tp, singular_part=ts)
    s = tau.matrices[1]
    want = eval_trace_part(tp, tau, s) + eval_singular_part(ts, s)
    assert eval_functional(phi, tau, s) == pytest.approx(want, abs=1e-14)


def test_singular_only_functional_kills_finite_support():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 48)
    phi = FunctionalSpec(singular_part=coordinate_tail_states(range(30, 40)))
    s = embed(np.eye(8), 48)
    assert eval_functional(phi, tau, s) == 0.0


# ------------------------------------------------------------ norm bounds


def norm_bounds(phi, tau, spec):
    """functional_norm_bounds in schatten-2 on the test set drawn from spec."""
    return functional_norm_bounds(phi, tau, G2, generate_test_set(spec, tau, G2))


def test_norm_bounds_rank_one_trace_part():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 32)
    tp = TracePart(x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2)
    phi = FunctionalSpec(trace_part=tp)
    bounds = norm_bounds(phi, tau, SampleSpec(seed=5, count=8))
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)
    assert bounds.lower == pytest.approx(1.0, abs=1e-9)
    assert bounds.skipped == 0


def test_norm_bounds_zero_functional():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 32)
    phi = FunctionalSpec(trace_part=TracePart.zero(2, G2))
    bounds = norm_bounds(phi, tau, SampleSpec(seed=6, count=4))
    assert bounds.lower == 0.0 and bounds.upper == 0.0


def test_norm_bounds_singular_state():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 64)
    phi = FunctionalSpec(singular_part=coordinate_tail_states(range(40, 50)))
    spec = SampleSpec(seed=7, count=6, kinds=("finitely-supported",), support=6)
    bounds = norm_bounds(phi, tau, spec)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)
    assert bounds.lower == pytest.approx(1.0, abs=1e-9)
    # finitely supported samples evaluate to zero, none fail to converge
    assert bounds.skipped == 0


def test_norm_bounds_counts_nonconvergent_samples():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 64)
    # three windows cannot carry the five-delta detection run
    phi = FunctionalSpec(singular_part=coordinate_tail_states([40, 44, 48]))
    bounds = norm_bounds(phi, tau, SampleSpec(seed=8, count=5))
    assert bounds.skipped == 1 + 5  # the identity and every draw
    assert bounds.lower == 0.0


def test_norm_bounds_sandwich_on_random_functionals():
    rng = np.random.default_rng(49)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 48)
    for i in range(5):
        tp = TracePart(x=random_block(rng, 4),
                       ys=(random_block(rng, 4), random_block(rng, 4)), gauge=G2)
        phi = FunctionalSpec(trace_part=tp)
        bounds = norm_bounds(phi, tau, SampleSpec(seed=50 + i, count=10))
        assert bounds.lower <= bounds.upper + 1e-9


def test_norm_bounds_refuse_a_test_set_normed_in_another_gauge():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 32)
    phi = FunctionalSpec(trace_part=TracePart(x=np.array([[1.0]]), ys=(EMPTY, EMPTY),
                                              gauge=schatten(1)))
    ops = generate_test_set(SampleSpec(seed=9, count=2), tau, G2)
    with pytest.raises(ValueError, match="another gauge"):
        functional_norm_bounds(phi, tau, schatten(1), ops)


SAMPLE_SPEC_REFUSALS = [({"count": -1}, "count must be nonnegative"),
                        ({"support": 0}, "support must be a positive integer"),
                        ({"support": -3}, "support must be a positive integer"),
                        ({"bandwidth": -1}, "bandwidth must be nonnegative"),
                        ({"kinds": ("gaussian",)}, "unknown test operator kind"),
                        ({"kinds": ()}, "kinds must be nonempty")]


@pytest.mark.parametrize("fields, message", SAMPLE_SPEC_REFUSALS,
                         ids=[f"{k}={v}" for f, _ in SAMPLE_SPEC_REFUSALS for k, v in f.items()])
def test_sample_spec_refuses_what_the_config_refuses(fields, message):
    # support 0 or bandwidth -1 drew all-zero operators before
    with pytest.raises(ValueError, match=message):
        SampleSpec(seed=1, **fields)


def test_sample_spec_keeps_its_kinds_as_a_tuple():
    kinds = ["banded", "finitely-supported"]
    spec = SampleSpec(seed=1, kinds=kinds)
    assert spec.kinds == tuple(kinds)
    assert spec == SampleSpec(seed=1, kinds=tuple(kinds))
    assert hash(spec) == hash(SampleSpec(seed=1, kinds=tuple(kinds)))


# --------------------------------------------------------------- quotient


def test_predual_aliases_are_the_trace_part_names():
    # bench/ reads these aliases; the tests use the names they stand for
    assert commlab.PredualElement is commlab.TracePart
    assert commlab.pairing is commlab.eval_trace_part


def test_quotient_null_element_certifies_zero():
    rng = np.random.default_rng(51)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    ys = [embed(random_block(rng, 4), 6) for _ in range(2)]
    x = np.zeros((7, 7), dtype=np.complex128)
    for t, y in zip(tau.matrices, ys):
        ye = embed(y, 7)
        tc = t[:7, :7]
        x += tc @ ye - ye @ tc
    pe = TracePart(x=x, ys=tuple(ys), gauge=G2)
    bounds = quotient_norm_bounds(pe, tau, G2, window=12,
                                  sample_spec=SampleSpec(seed=9, count=6))
    assert bounds.upper <= 1e-6
    assert bounds.lower <= bounds.upper + 1e-6


def test_quotient_rank_one_is_pinned():
    tau = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=2), 24)
    pe = TracePart(x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2)
    bounds = quotient_norm_bounds(pe, tau, G2, window=10,
                                  sample_spec=SampleSpec(seed=10, count=6))
    assert bounds.lower == pytest.approx(1.0, abs=1e-6)
    assert bounds.upper == pytest.approx(1.0, abs=1e-6)


def test_quotient_sandwich_random_elements():
    rng = np.random.default_rng(52)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    for i in range(10):
        pe = TracePart(x=random_block(rng, 4),
                       ys=(random_block(rng, 4), random_block(rng, 4)),
                       gauge=G2)
        bounds = quotient_norm_bounds(pe, tau, G2, window=10,
                                      sample_spec=SampleSpec(seed=60 + i, count=8))
        assert bounds.lower <= bounds.upper + 1e-6


def test_quotient_duality_consistency():
    rng = np.random.default_rng(53)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    pe = TracePart(x=random_block(rng, 4),
                   ys=(random_block(rng, 4), random_block(rng, 4)), gauge=G2)
    spec = SampleSpec(seed=11, count=10)
    bounds = quotient_norm_bounds(pe, tau, G2, window=10, sample_spec=spec)
    for op in generate_test_set(spec, tau, G2):
        lhs = abs(eval_trace_part(pe, tau, op.matrix))
        assert lhs <= bounds.upper * e_norm_max(tau, G2, op.matrix) + 1e-8


def svd_subgradient(gauge, m):
    """U f(sigma) V*, the SVD construction for the schatten and sup gauges."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=np.complex128))
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(u)
    f = np.zeros_like(s)
    if gauge.family == "sup":
        f[0] = 1.0
    elif gauge.p == 1:
        f[s > 1e-14 * s[0]] = 1.0
    else:
        f = (s / gauge_value(gauge, s)) ** (gauge.p - 1.0)
    return (u * f) @ vh


def two_pass_quotient(tp, tau, gauge, window, max_iterations):
    """Reference: the quotient solver's upper bound as a two-pass loop.

    Each trial's cost is taken by values-only SVDs; the next turn forms the
    best point's representative again and takes its subgradients by full
    SVDs.  The descent rule is spelled out here: start from the lower of
    w = 0 and the negated y blocks; step from the best point; a trial that
    gains a relative SUFFICIENT grows the step 1.5x, any other halves it and
    replaces the best point if lower; stop at PATIENCE consecutive halvings,
    a best value of at most STOP_TOLERANCE or a zero subgradient.  Returns
    (upper, iterations, stop reason).
    """
    trace_norm = schatten(1)
    dual = conjugate_gauge(gauge)
    work = min(tau.dimension, max(window, tp.support) + tau.bandwidth)
    xe = embed(tp.x, work)
    yes = [embed(y, work) for y in tp.ys]

    def representative(ws):
        first = xe.copy()
        for t, w in zip(tau.matrices, ws):
            first += band_commutator(t, w, tau.bandwidth)
        return first

    def cost(ws):
        return (gauge_norm(trace_norm, representative(ws))
                + sum(gauge_norm(dual, y + w) for y, w in zip(yes, ws)))

    def blocked(m):
        out = np.zeros_like(m)
        out[:window, :window] = m[:window, :window]
        return out

    zero = [np.zeros((work, work), dtype=np.complex128) for _ in range(tau.n)]
    negated = [blocked(-y) for y in yes]
    best, ws = min((cost(zero), zero), (cost(negated), negated), key=lambda start: start[0])
    step, halvings = None, 0
    for it in range(1, max_iterations + 1):
        if best <= STOP_TOLERANCE:
            return best, it - 1, "tolerance"
        d1 = svd_subgradient(trace_norm, representative(ws))
        grads = [blocked(band_commutator(t, d1, tau.bandwidth) + svd_subgradient(dual, y + w))
                 for t, y, w in zip(tau.matrices, yes, ws)]
        gnorm = np.sqrt(sum(float(np.linalg.norm(g)) ** 2 for g in grads))
        if gnorm <= 1e-15:
            return best, it - 1, "zero-gradient"
        step = best / gnorm ** 2 if step is None else step
        trial = [w - step * g for w, g in zip(ws, grads)]
        current = cost(trial)
        if current <= best * (1 - SUFFICIENT):
            step, halvings = 1.5 * step, 0
        else:
            step, halvings = step / 2, halvings + 1
        if current < best:
            best, ws = current, trial
        if halvings == PATIENCE:
            return best, it, "stall"
    return best, max_iterations, "budget"


@pytest.mark.parametrize("max_iterations", [0, 1, 3, 300])
@pytest.mark.parametrize("gauge", [G2, schatten(1)], ids=lambda g: g.label)
def test_quotient_matches_two_pass_reference(gauge, max_iterations):
    rng = np.random.default_rng(54)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    spec = SampleSpec(seed=12, count=4)
    ys = [embed(random_block(rng, 3), 6) for _ in range(2)]
    x = np.zeros((7, 7), dtype=np.complex128)
    for t, y in zip(tau.matrices, ys):
        x += band_commutator(t, embed(y, 7), tau.bandwidth)
    cases = [(TracePart(x=random_block(rng, 4),
                        ys=(random_block(rng, 4), random_block(rng, 4)), gauge=gauge), 10)
             for _ in range(2)]
    cases.append((TracePart(x=x, ys=tuple(ys), gauge=gauge), 12))
    ops = generate_test_set(spec, tau, gauge)
    for pe, window in cases:
        bounds = quotient_norm_bounds(pe, tau, gauge, window=window, sample_spec=spec,
                                      max_iterations=max_iterations)
        upper, iterations, stop_reason = two_pass_quotient(pe, tau, gauge, window,
                                                           max_iterations)
        lower = max(abs(eval_trace_part(pe, tau, op.matrix))
                    / max(op.operator_norm, op.commutator_norm) for op in ops)
        assert bounds.lower == lower
        assert (bounds.iterations, bounds.stop_reason) == (iterations, stop_reason)
        assert abs(bounds.upper - upper) <= 1e-10 * abs(upper)


def test_quotient_takes_one_svd_per_iterate(monkeypatch):
    # schatten-2: one SVD for the start, one for the -y candidate, one per iterate
    rng = np.random.default_rng(55)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    pe = TracePart(x=random_block(rng, 4),
                   ys=(random_block(rng, 4), random_block(rng, 4)), gauge=G2)
    calls = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    bounds = quotient_norm_bounds(pe, tau, G2, window=10,
                                  sample_spec=SampleSpec(seed=13, count=4), max_iterations=7)
    assert bounds.iterations == 7
    assert len(calls) == bounds.iterations + 2


@pytest.mark.parametrize("gauge", [G2, schatten(1)], ids=lambda g: g.label)
def test_quotient_drawn_test_set_gives_the_bracket_of_its_spec(gauge):
    rng = np.random.default_rng(56)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    spec = SampleSpec(seed=14, count=6, kinds=("random-hermitian", "banded"))
    ops = generate_test_set(spec, tau, gauge)
    for _ in range(3):
        pe = TracePart(x=random_block(rng, 4),
                       ys=(random_block(rng, 4), random_block(rng, 4)), gauge=gauge)
        want = quotient_norm_bounds(pe, tau, gauge, window=10, sample_spec=spec,
                                    max_iterations=20)
        got = quotient_norm_bounds(pe, tau, gauge, window=10, test_set=ops, max_iterations=20)
        assert got == want


def test_quotient_draws_a_sample_spec_once_per_spec_tuple_and_gauge(monkeypatch):
    # a run of calls on one (spec, tau, gauge) draws once; another tuple object,
    # spec or gauge draws again, and every bracket is that of a fresh draw.
    # The memo keys tau by identity, so these new tuples find no set drawn before.
    rng = np.random.default_rng(57)
    spec, other_spec = SampleSpec(seed=15, count=4), SampleSpec(seed=16, count=4)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    again = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    draws = []
    draw = functionals.generate_test_set
    monkeypatch.setattr(functionals, "generate_test_set",
                        lambda *args: draws.append(args) or draw(*args))

    def bracket(pe, spec, tau, gauge):
        got = quotient_norm_bounds(pe, tau, gauge, window=10, sample_spec=spec,
                                   max_iterations=5)
        want = quotient_norm_bounds(pe, tau, gauge, window=10, max_iterations=5,
                                    test_set=draw(spec, tau, gauge))
        assert got == want
        return len(draws)

    elements = {gauge: [TracePart(x=random_block(rng, 4), ys=(random_block(rng, 4),
                                                              random_block(rng, 4)), gauge=gauge)
                        for _ in range(3)] for gauge in (G2, schatten(1))}
    assert [bracket(pe, spec, tau, G2) for pe in elements[G2]] == [1, 1, 1]
    assert bracket(elements[G2][0], spec, again, G2) == 2
    assert bracket(elements[G2][0], other_spec, again, G2) == 3
    assert bracket(elements[schatten(1)][0], other_spec, again, schatten(1)) == 4
    assert bracket(elements[G2][1], spec, tau, G2) == 5  # the memo keeps one set


def test_quotient_takes_exactly_one_test_set_source():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 16)
    pe = TracePart(x=np.eye(2), ys=(EMPTY, EMPTY), gauge=G2)
    spec = SampleSpec(seed=1, count=2)
    for sources in ({}, {"sample_spec": spec, "test_set": generate_test_set(spec, tau, G2)}):
        with pytest.raises(ValueError, match="exactly one of sample_spec and test_set"):
            quotient_norm_bounds(pe, tau, G2, window=4, **sources)


def test_quotient_refuses_negative_max_iterations():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 16)
    pe = TracePart(x=np.eye(2), ys=(EMPTY, EMPTY), gauge=G2)
    with pytest.raises(ValueError, match="max_iterations"):
        quotient_norm_bounds(pe, tau, G2, window=4, sample_spec=SampleSpec(seed=1, count=2),
                             max_iterations=-1)


def test_quotient_window_validation():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 16)
    pe = TracePart(x=np.eye(2), ys=(EMPTY, EMPTY), gauge=G2)
    with pytest.raises(ValueError):
        quotient_norm_bounds(pe, tau, G2, window=16,
                             sample_spec=SampleSpec(seed=1, count=2))
    big = TracePart(x=np.eye(16), ys=(EMPTY, EMPTY), gauge=G2)
    with pytest.raises(ValueError):
        quotient_norm_bounds(big, tau, G2, window=4,
                             sample_spec=SampleSpec(seed=1, count=2))
