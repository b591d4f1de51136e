"""Recovery of trace parts through unit schedules, with certificates."""

import numpy as np
import pytest

from commlab import (
    FunctionalSpec,
    NotConverged,
    OperatorModelSpec,
    SampleSpec,
    SolverParams,
    TracePart,
    build_schedule,
    commutator_tuple,
    conjugate_gauge,
    coordinate_tail_states,
    decompose,
    eval_functional,
    eval_singular_part,
    eval_trace_part,
    gauge_norm,
    generate_test_set,
    instantiate_model,
    operator_norm,
    optimize_unit,
    projection_check,
    ramp_unit,
    recover_ac_part,
    recovery_error_bound,
    schatten,
    sup_gauge,
)

G2 = schatten(2)
EMPTY = np.zeros((0, 0), dtype=np.complex128)

# Eight marching windows: detection needs six values, and the trace part
# becomes exact once the floor covers its support, so the tail of the
# sequence is constant.
WINDOWS = [(4, 8), (8, 12), (12, 16), (16, 24), (24, 32), (32, 44), (44, 60), (60, 80)]
DIM = 96
TAIL_RANGE = range(81, 93)  # strictly past the largest cap


def lap(dim=DIM):
    return instantiate_model(OperatorModelSpec(name="lap-pos"), dim)


def random_block(rng, s):
    return rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))


def random_trace_part(rng, support=4):
    return TracePart(x=random_block(rng, support),
                     ys=(random_block(rng, support), random_block(rng, support)),
                     gauge=G2)


def hermitian(rng, dim):
    m = random_block(rng, dim)
    return (m + m.conj().T) / 2


# --------------------------------------------------------------- recovery


def test_recover_trace_only_rank_one():
    tau = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=2), 64)
    sched = build_schedule(tau, G2, [(3, 6), (6, 10), (10, 16), (16, 22),
                                     (22, 30), (30, 40), (40, 50), (50, 60)])
    tp = TracePart(x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2)
    phi = FunctionalSpec(trace_part=tp)
    rng = np.random.default_rng(61)
    s = hermitian(rng, 64)
    rec = recover_ac_part(phi, sched, tau, s)
    assert abs(rec.limit - s[0, 0]) < 1e-8
    assert len(rec.sequence) == 8


def test_recover_singular_only_is_zero():
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(singular_part=coordinate_tail_states(TAIL_RANGE))
    rng = np.random.default_rng(62)
    s = hermitian(rng, DIM)
    rec = recover_ac_part(phi, sched, tau, s)
    assert rec.limit == 0.0
    assert all(v == 0.0 for v in rec.sequence)


def test_recover_mixed_splits_the_value():
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    rng = np.random.default_rng(63)
    tp = random_trace_part(rng)
    phi = FunctionalSpec(trace_part=tp,
                         singular_part=coordinate_tail_states(TAIL_RANGE))
    s = tau.matrices[1]  # constant tail diagonal, so the direct value exists
    rec = recover_ac_part(phi, sched, tau, s)
    trace_value = eval_trace_part(tp, tau, s)
    tail_value = eval_singular_part(phi.singular_part, s)
    assert abs(rec.limit - trace_value) < 1e-8
    assert abs(eval_functional(phi, tau, s) - rec.limit - tail_value) < 1e-8


def test_recover_reports_sequence_on_failure():
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=TracePart(
        x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2))
    rng = np.random.default_rng(64)
    s = hermitian(rng, DIM)
    with pytest.raises(NotConverged) as err:
        recover_ac_part(phi, sched, tau, s, depth=5)
    assert len(err.value.sequence) == 5


def test_recover_dimension_checks():
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=TracePart(
        x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2))
    with pytest.raises(ValueError):
        recover_ac_part(phi, sched, tau, np.eye(12))
    with pytest.raises(ValueError):
        recover_ac_part(phi, sched, tau, np.eye(DIM), depth=0)


# ------------------------------------------------------------ error bound


def test_bound_reduces_without_commutator_slots():
    rng = np.random.default_rng(65)
    tau = lap(48)
    x = random_block(rng, 5)
    tp = TracePart(x=x, ys=(EMPTY, EMPTY), gauge=G2)
    unit = ramp_unit(tau, 6, 20)
    s = hermitian(rng, 48)
    got = recovery_error_bound(tp, tau, G2, unit, s)
    xe = np.zeros((20, 20), dtype=np.complex128)
    xe[:5, :5] = x
    want = np.sum(np.linalg.svd(xe - xe @ unit.matrix[:20, :20],
                                compute_uv=False)) * operator_norm(s)
    assert got == pytest.approx(want, rel=1e-12)


def test_bound_vanishes_on_full_identity_unit():
    rng = np.random.default_rng(66)
    tau = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=2), 16)
    unit = optimize_unit(tau, G2, 16, 16).unit  # degenerate window: the identity
    assert np.array_equal(unit.matrix, np.eye(16))
    tp = TracePart(x=random_block(rng, 4),
                   ys=(random_block(rng, 4), random_block(rng, 4)), gauge=G2)
    s = hermitian(rng, 16)
    assert recovery_error_bound(tp, tau, G2, unit, s) == 0.0
    assert eval_trace_part(tp, tau, unit.matrix @ s) == eval_trace_part(tp, tau, s)


def test_bound_dominates_measured_gap_on_seeded_instances():
    rng = np.random.default_rng(67)
    tau = lap(48)
    for _ in range(50):
        m = int(rng.integers(3, 10))
        r = int(rng.integers(m + 2, 44))
        unit = ramp_unit(tau, m, r)
        tp = random_trace_part(rng, support=int(rng.integers(2, 7)))
        s = hermitian(rng, 48)
        gap = abs(eval_trace_part(tp, tau, s)
                  - eval_trace_part(tp, tau, unit.matrix @ s))
        bound = recovery_error_bound(tp, tau, G2, unit, s)
        assert gap <= bound + 1e-9


def test_bounds_nonincreasing_along_ramp_schedule():
    rng = np.random.default_rng(68)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    assert all(a >= b for a, b in zip(sched.commutator_norms,
                                      sched.commutator_norms[1:]))
    tp = random_trace_part(rng)
    s = hermitian(rng, DIM)
    bounds = [recovery_error_bound(tp, tau, G2, u, s) for u in sched.steps]
    for a, b in zip(bounds, bounds[1:]):
        assert b <= a + 1e-12


def test_bound_input_validation():
    rng = np.random.default_rng(69)
    tau = lap(32)
    unit = ramp_unit(tau, 4, 12)
    tp = random_trace_part(rng)
    with pytest.raises(ValueError):
        recovery_error_bound(tp, tau, schatten(1), unit, np.eye(32))
    with pytest.raises(ValueError):
        recovery_error_bound(tp, tau, G2, unit, np.eye(8))


# ------------------------------------- corner terms against dense products


CORNER_DIM = 64
CORNER_WINDOWS = [(2, 4), (4, 8), (8, 16), (16, 24), (20, 32), (24, 40), (32, 48), (40, 56)]


@pytest.fixture(scope="module")
def corner_case():
    """Ramp and optimized-then-monotonized schedules with three operands."""
    tau = lap(CORNER_DIM)
    schedules = [build_schedule(tau, G2, CORNER_WINDOWS),
                 build_schedule(tau, G2, CORNER_WINDOWS, mode="optimized-then-monotonized",
                                params=SolverParams(max_iterations=40))]
    assert any(np.count_nonzero(u.matrix - np.diag(np.diag(u.matrix)))
               for u in schedules[1].steps)
    rng = np.random.default_rng(70)
    i, j = np.indices((CORNER_DIM, CORNER_DIM))
    finite = np.zeros((CORNER_DIM, CORNER_DIM), dtype=np.complex128)
    finite[:6, :6] = hermitian(rng, 6)
    operands = [hermitian(rng, CORNER_DIM),
                np.where(np.abs(i - j) <= 3, hermitian(rng, CORNER_DIM), 0), finite]
    # X wider than the first cap, Y blocks of two sizes
    blocks = (random_block(rng, 6), random_block(rng, 3), random_block(rng, 5))
    return tau, schedules, operands, blocks


def dense_bound(tp, tau, gauge, unit, s):
    """The docstring's three terms of recovery_error_bound, as N x N products."""
    dim = tau.dimension
    a = np.asarray(unit.matrix)
    x = np.zeros((dim, dim), dtype=np.complex128)
    x[:tp.x.shape[0], :tp.x.shape[0]] = tp.x
    s_norm = operator_norm(s)
    total = gauge_norm(schatten(1), x - x @ a) * s_norm
    for t, y in zip(tau.matrices, tp.ys):
        yn = gauge_norm(conjugate_gauge(gauge), y)
        total += gauge_norm(gauge, (np.eye(dim) - a) @ (s @ t - t @ s)) * yn
        total += gauge_norm(gauge, a @ t - t @ a) * yn * s_norm
    return total


@pytest.mark.parametrize("gauge", [schatten(1), G2, sup_gauge()], ids=lambda g: g.label)
def test_bound_matches_dense_terms(corner_case, gauge):
    tau, schedules, operands, (x, y1, y2) = corner_case
    tp = TracePart(x=x, ys=(y1, y2), gauge=gauge)
    for sched in schedules:
        for unit in sched.steps:
            for s in operands:
                got = recovery_error_bound(tp, tau, gauge, unit, s)
                assert got == pytest.approx(dense_bound(tp, tau, gauge, unit, s), rel=1e-12)


@pytest.mark.parametrize("gauge", [schatten(1), G2, sup_gauge()], ids=lambda g: g.label)
def test_recovery_sequence_matches_dense_products(corner_case, gauge):
    tau, schedules, operands, (x, y1, y2) = corner_case
    phi = FunctionalSpec(trace_part=TracePart(x=x, ys=(y1, y2), gauge=gauge),
                         singular_part=coordinate_tail_states(range(57, 64)))
    for sched in schedules:
        for s in operands:
            got = recover_ac_part(phi, sched, tau, s).sequence
            want = [eval_functional(phi, tau, u.matrix @ s) for u in sched.steps]
            scale = max(abs(v) for v in want)
            assert np.abs(np.subtract(got, want)).max() <= 1e-12 * scale


# -------------------------------------------------------------- decompose


def sample_ops(tau, seed, count=6):
    return generate_test_set(
        SampleSpec(seed=seed, count=count,
                   kinds=("finitely-supported", "banded"), support=5),
        tau, G2)


def test_decompose_mixed_functional():
    rng = np.random.default_rng(71)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    tp = random_trace_part(rng)
    phi = FunctionalSpec(trace_part=tp,
                         singular_part=coordinate_tail_states(TAIL_RANGE),
                         label="mixed")
    ops = sample_ops(tau, seed=72)
    report = decompose(phi, sched, tau, G2, ops)
    assert report.status == "ok"
    assert report.diagnostics == ()
    for rec, op in zip(report.per_s, ops):
        want = eval_trace_part(tp, tau, op.matrix)
        assert rec.limit is not None
        assert abs(rec.limit - want) < 1e-8
        assert rec.sound
        assert rec.gaps[-1] <= 1e-6
    assert report.residuals  # finitely supported members were checked
    for _, gap in report.residuals:
        assert gap <= 1e-10
    assert report.additivity.ok
    assert report.idempotence_gap <= 1e-9


def test_decompose_zero_functional():
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=TracePart.zero(2, G2), label="zero")
    ops = sample_ops(tau, seed=73, count=4)
    report = decompose(phi, sched, tau, G2, ops)
    assert report.status == "ok"
    assert all(rec.limit == 0.0 for rec in report.per_s)
    assert all(v == 0.0 for rec in report.per_s for v in rec.sequence)
    assert all(gap == 0.0 for _, gap in report.residuals)
    assert report.additivity.lower == 0.0
    assert report.idempotence_gap == 0.0


def test_decompose_trace_only_additivity():
    rng = np.random.default_rng(74)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=random_trace_part(rng), label="trace-only")
    ops = sample_ops(tau, seed=75)
    report = decompose(phi, sched, tau, G2, ops)
    assert report.status == "ok"
    assert report.additivity.upper_tail == 0.0
    assert report.additivity.lower <= report.additivity.upper_trace + 1e-6
    for _, gap in report.residuals:
        assert gap <= 1e-10


def test_decompose_flags_nonconvergence():
    rng = np.random.default_rng(76)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=random_trace_part(rng))
    ops = sample_ops(tau, seed=77, count=3)
    report = decompose(phi, sched, tau, G2, ops, depth=5)
    assert report.status == "failed"
    assert any("did not converge" in d for d in report.diagnostics)
    assert any(rec.limit is None for rec in report.per_s)


def test_decompose_aligns_gauge_for_singular_only():
    tau = lap()
    sched = build_schedule(tau, schatten(1), WINDOWS)
    phi = FunctionalSpec(singular_part=coordinate_tail_states(TAIL_RANGE))
    ops = sample_ops(tau, seed=78, count=3)
    report = decompose(phi, sched, tau, schatten(1), ops)
    assert report.status == "ok"
    assert report.additivity.upper_trace == 0.0
    assert report.additivity.upper_tail == 1.0


# ------------------------------------------------------------- projection


def test_projection_singular_only_recovers_zero():
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(singular_part=coordinate_tail_states(TAIL_RANGE))
    ops = sample_ops(tau, seed=79, count=4)
    for op in ops:
        assert recover_ac_part(phi, sched, tau, op.matrix).limit == 0.0
    report = projection_check([phi, phi], sched, tau, G2, ops)
    assert all(g <= 1e-12 for g in report.idempotence_gaps)
    assert all(g <= 1e-8 for g in report.linearity_gaps)


def test_projection_trace_only_fixed_point():
    rng = np.random.default_rng(81)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    tp = random_trace_part(rng)
    phi = FunctionalSpec(trace_part=tp)
    ops = sample_ops(tau, seed=82, count=4)
    for op in ops:
        rec = recover_ac_part(phi, sched, tau, op.matrix)
        assert abs(rec.limit - eval_functional(phi, tau, op.matrix)) < 1e-9
    report = projection_check([phi, phi], sched, tau, G2, ops)
    assert all(g <= 1e-9 for g in report.idempotence_gaps)


def test_projection_linearity_on_random_pair():
    rng = np.random.default_rng(83)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phis = [FunctionalSpec(trace_part=random_trace_part(rng),
                           singular_part=coordinate_tail_states(TAIL_RANGE))
            for _ in range(2)]
    ops = sample_ops(tau, seed=84, count=5)
    report = projection_check(phis, sched, tau, G2, ops, coeffs=(2.0, -1.0))
    assert len(report.linearity_gaps) == 1
    assert report.linearity_gaps[0] <= 1e-8
    assert all(g <= 1e-9 for g in report.idempotence_gaps)
    assert all(g == 0.0 for g in report.additivity_gaps)
