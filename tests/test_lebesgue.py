"""Recovery of trace parts through unit schedules, with certificates."""

from dataclasses import fields, replace
import json
from pathlib import Path

import numpy as np
import pytest

import commlab
from commlab import (
    FunctionalSpec,
    GaugeSpec,
    NormBounds,
    NotConverged,
    OperatorModelSpec,
    SampleSpec,
    TracePart,
    build_schedule,
    conjugate_gauge,
    coordinate_tail_states,
    decompose,
    detect_limit,
    e_norm_max,
    e_norm_sum,
    eval_functional,
    eval_singular_part,
    eval_trace_part,
    functional_norm_bounds,
    gauge_norm,
    generate_test_set,
    instantiate_model,
    ky_fan,
    ky_fan_dual,
    measure_test_operator,
    operator_norm,
    optimize_unit,
    projection_check,
    quotient_norm_bounds,
    ramp_unit,
    recover_ac_part,
    recovery_error_bound,
    schatten,
    sup_gauge,
)
from commlab import functionals, gauges, idealops, lebesgue, sampling
from commlab.gauges import gauge_value
from commlab.idealops import embed

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


def measured(tau, s, gauge=G2):
    """S as it stands, as the TestOperator that recovery_error_bound reads."""
    return measure_test_operator("S", "random-hermitian", s, tau, gauge)


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
    sched = build_schedule(tau, G2, WINDOWS[:5])
    # a schedule on the first five windows is the first five steps of the full one
    full = build_schedule(tau, G2, WINDOWS)
    assert all(np.array_equal(a.block, b.block) for a, b in zip(sched.steps, full.steps[:5]))
    phi = FunctionalSpec(trace_part=TracePart(
        x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2))
    rng = np.random.default_rng(64)
    s = hermitian(rng, DIM)
    with pytest.raises(NotConverged) as err:
        recover_ac_part(phi, sched, tau, s)
    assert len(err.value.sequence) == 5


def test_recover_failing_step_carries_the_recovery_values():
    # the tail windows 30..38 lie under the sixth cap (44), whose ramp falls along
    # them, so the singular part first fails to converge at step 6
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(
        trace_part=TracePart(x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2),
        singular_part=coordinate_tail_states(range(30, 39)))
    with pytest.raises(NotConverged, match="step 6") as err:
        recover_ac_part(phi, sched, tau, np.eye(DIM))
    assert err.value.sequence == (1.0,) * 5

    (report,) = decompose([phi], sched, tau, G2, sample_ops(tau, seed=65, count=3))

    assert report.status == ("failed" if report.diagnostics else "ok")
    assert report.status == "failed"
    assert report.per_s[0].s_id == "identity"
    assert report.per_s[0].sequence == (1.0,) * 5
    for rec in report.per_s:
        assert len(rec.sequence) == len(rec.gaps) <= len(rec.bounds)


def test_recover_dimension_checks():
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=TracePart(
        x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2))
    with pytest.raises(ValueError):
        recover_ac_part(phi, sched, tau, np.eye(12))
    # a schedule built on a tuple of another dimension
    other = build_schedule(lap(DIM + 8), G2, WINDOWS)
    with pytest.raises(ValueError):
        recover_ac_part(phi, other, tau, np.eye(DIM))


# ------------------------------------------------------------ error bound


def test_bound_reduces_without_commutator_slots():
    rng = np.random.default_rng(65)
    tau = lap(48)
    x = random_block(rng, 5)
    tp = TracePart(x=x, ys=(EMPTY, EMPTY), gauge=G2)
    unit = ramp_unit(tau, 6, 20)
    s = hermitian(rng, 48)
    got = recovery_error_bound(tp, tau, G2, unit, measured(tau, s))
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
    assert recovery_error_bound(tp, tau, G2, unit, measured(tau, s)) == 0.0
    assert eval_trace_part(tp, tau, unit.matrix @ s) == eval_trace_part(tp, tau, s)


def extremal_case(gauge):
    """(gap, bound) with Y = 0 and S the adjoint polar factor of M = X (I - A), a
    unitary: the gap |Tr(M S)| is |M|_1, the X term at ||S|| = 1, so the bound is attained."""
    rng = np.random.default_rng(95)
    tau = lap(48)
    unit = ramp_unit(tau, 3, 12)
    tp = TracePart(x=random_block(rng, 8), ys=(EMPTY, EMPTY), gauge=gauge)
    u, _, vh = np.linalg.svd(embed(tp.x, 48) @ (np.eye(48) - unit.matrix))
    s = vh.conj().T @ u.conj().T
    gap = abs(eval_trace_part(tp, tau, s) - eval_trace_part(tp, tau, unit.matrix @ s))
    return gap, recovery_error_bound(tp, tau, gauge, unit, measured(tau, s, gauge))


@pytest.mark.parametrize("gauge", [schatten(1), G2, sup_gauge()], ids=lambda g: g.label)
def test_bound_dominates_measured_gap_on_seeded_instances(gauge):
    # supports 4..12 reach past the floors 2..6, so most gaps are nonzero;
    # every other case takes an optimized unit
    rng = np.random.default_rng(67)
    tau = lap(48)
    nonzero = 0
    for case in range(50):
        m = int(rng.integers(2, 7))
        r = int(rng.integers(m + 2, 44))
        unit = optimize_unit(tau, gauge, m, r, 10).unit if case % 2 else ramp_unit(tau, m, r)
        support = int(rng.integers(4, 13))
        ys = (random_block(rng, int(rng.integers(1, support + 1))), random_block(rng, support))
        tp = TracePart(x=random_block(rng, support), ys=ys, gauge=gauge)
        s = hermitian(rng, 48)
        gap = abs(eval_trace_part(tp, tau, s)
                  - eval_trace_part(tp, tau, unit.matrix @ s))
        bound = recovery_error_bound(tp, tau, gauge, unit, measured(tau, s, gauge))
        assert gap <= bound + 1e-9
        nonzero += gap > 1e-6
    assert nonzero >= 40
    gap, bound = extremal_case(gauge)
    assert gap <= bound + 1e-9
    assert gap == pytest.approx(bound, rel=1e-12)


def test_a_halved_bound_fails_the_extremal_case(monkeypatch):
    certificate = lebesgue._certificate
    monkeypatch.setattr(lebesgue, "_certificate", lambda *args: certificate(*args) / 2)
    for gauge in (schatten(1), G2, sup_gauge()):
        gap, bound = extremal_case(gauge)
        assert gap > bound + 1e-9


def test_bounds_nonincreasing_along_ramp_schedule():
    rng = np.random.default_rng(68)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    assert all(a >= b for a, b in zip(sched.commutator_norms,
                                      sched.commutator_norms[1:]))
    tp = random_trace_part(rng)
    op = measured(tau, hermitian(rng, DIM))
    bounds = [recovery_error_bound(tp, tau, G2, u, op) for u in sched.steps]
    for a, b in zip(bounds, bounds[1:]):
        assert b <= a + 1e-12


def test_bound_input_validation():
    rng = np.random.default_rng(69)
    tau = lap(32)
    unit = ramp_unit(tau, 4, 12)
    tp = random_trace_part(rng)
    op = measured(tau, np.eye(32))
    with pytest.raises(ValueError):
        recovery_error_bound(tp, tau, schatten(1), unit, op)
    # an operator measured on a tuple of another dimension
    with pytest.raises(ValueError, match="dimension"):
        recovery_error_bound(tp, tau, G2, unit, measured(lap(8), np.eye(8)))
    # a unit built on a tuple of another dimension
    with pytest.raises(ValueError, match="dimension"):
        recovery_error_bound(tp, tau, G2, ramp_unit(lap(40), 4, 12), op)


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_row_route_is_range_safe(size):
    # the leading rows of the terms, as rectangles whose squares overflow or go
    # subnormal; the suite turns a RuntimeWarning into an error
    rng = np.random.default_rng(92)
    tau = lap(48)
    unit = ramp_unit(tau, 3, 20)
    tp = random_trace_part(rng, support=6)
    s = hermitian(rng, 48)
    for gauge in (schatten(1), G2, sup_gauge()):
        rect = size * rng.standard_normal((3, 48))
        want = gauge_value(gauge, np.linalg.svd(rect / size, compute_uv=False)) * size
        assert gauges._rect_norm(gauge, rect) == pytest.approx(want, rel=1e-13, abs=0.0)
        tp = replace(tp, gauge=gauge)
        got = recovery_error_bound(tp, tau, gauge, unit, measured(tau, size * s, gauge))
        want = recovery_error_bound(tp, tau, gauge, unit, measured(tau, s, gauge)) * size
        assert np.isfinite(got) and got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gauges_equal_by_value_so_a_relabelled_trace_part_is_bounded():
    assert conjugate_gauge(schatten(1)) == sup_gauge()
    assert conjugate_gauge(conjugate_gauge(sup_gauge())) == sup_gauge()
    assert hash(conjugate_gauge(schatten(1))) == hash(sup_gauge())
    labelled = GaugeSpec("schatten", p=2.0, label="p2")
    assert labelled == G2 and labelled != schatten(3)
    rng = np.random.default_rng(70)
    tau = lap(32)
    unit = ramp_unit(tau, 4, 12)
    x, y0, y1 = (random_block(rng, 4) for _ in range(3))
    op = measured(tau, hermitian(rng, 32))
    got = recovery_error_bound(TracePart(x=x, ys=(y0, y1), gauge=labelled), tau, G2, unit, op)
    assert got == recovery_error_bound(TracePart(x=x, ys=(y0, y1), gauge=G2), tau, G2, unit, op)


# ------------------------------------- corner terms against dense products


CORNER_DIM = 64
CORNER_WINDOWS = [(2, 4), (4, 8), (8, 16), (16, 24), (20, 32), (24, 40), (32, 48), (40, 56)]


@pytest.fixture(scope="module")
def corner_case():
    """Ramp and optimized-then-monotonized schedules with three operands."""
    tau = lap(CORNER_DIM)
    schedules = [build_schedule(tau, G2, CORNER_WINDOWS),
                 build_schedule(tau, G2, CORNER_WINDOWS, mode="optimized-then-monotonized",
                                max_iterations=40)]
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
    """The docstring's three terms of recovery_error_bound: N x N products, cut to
    the leading sy rows (and, in the middle term, columns) where each Y_j lives."""
    dim = tau.dimension
    a = np.asarray(unit.matrix)
    x = np.zeros((dim, dim), dtype=np.complex128)
    x[:tp.x.shape[0], :tp.x.shape[0]] = tp.x
    s_norm = operator_norm(s)
    total = gauge_norm(schatten(1), x - x @ a) * s_norm
    for t, y in zip(tau.matrices, tp.ys):
        sy = y.shape[0]
        yn = gauge_norm(conjugate_gauge(gauge), y)
        total += gauge_norm(gauge, ((np.eye(dim) - a) @ (s @ t - t @ s))[:sy, :sy]) * yn
        rows = np.linalg.svd((a @ t - t @ a)[:sy], compute_uv=False)
        total += gauge_value(gauge, rows) * yn * s_norm
    return total


@pytest.mark.parametrize("gauge", [schatten(1), G2, sup_gauge()], ids=lambda g: g.label)
def test_bound_matches_dense_terms(corner_case, gauge):
    tau, schedules, operands, (x, y1, y2) = corner_case
    tp = TracePart(x=x, ys=(y1, y2), gauge=gauge)
    ops = [measured(tau, s, gauge) for s in operands]
    for sched in schedules:
        for unit in sched.steps:
            for s, op in zip(operands, ops):
                got = recovery_error_bound(tp, tau, gauge, unit, op)
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


# Floors cover rows 1..15, so on a tail state over rows 9..15 every A_k S
# reads as S: the window rows lie inside every cap and carry the value.
INSIDE_WINDOWS = [(16, 24), (20, 28), (24, 32), (28, 36), (32, 40), (36, 44)]
INSIDE_TAIL = range(9, 16)


@pytest.fixture(scope="module")
def inside_case(corner_case):
    """Schedules, operands with a constant diagonal on the tail rows, functionals."""
    tau, _, operands, (x, y1, y2) = corner_case
    schedules = [build_schedule(tau, G2, INSIDE_WINDOWS),
                 build_schedule(tau, G2, INSIDE_WINDOWS, mode="optimized-then-monotonized",
                                max_iterations=40)]
    rows = np.arange(8, 15)
    flat = []
    for s in operands:
        s = np.array(s, dtype=np.complex128)
        s[rows, rows] = 0.5
        flat.append(s)
    trace = FunctionalSpec(trace_part=TracePart(x=x, ys=(y1, y2), gauge=G2))
    tail = FunctionalSpec(singular_part=coordinate_tail_states(INSIDE_TAIL))
    phis = {"trace": trace, "tail": tail,
            "trace-and-tail": FunctionalSpec(trace_part=trace.trace_part,
                                             singular_part=tail.singular_part)}
    return tau, schedules, flat, phis


@pytest.mark.parametrize("name", ["trace", "tail", "trace-and-tail"])
def test_row_only_recovery_matches_dense_products(inside_case, name):
    tau, schedules, operands, phis = inside_case
    phi = phis[name]
    for sched in schedules:
        for s in operands:
            got = recover_ac_part(phi, sched, tau, s).sequence
            want = [eval_functional(phi, tau, u.matrix @ s) for u in sched.steps]
            scale = max(abs(v) for v in want)
            assert scale > 0.0
            assert np.abs(np.subtract(got, want)).max() <= 1e-12 * scale


@pytest.mark.parametrize("gauge", [schatten(1), G2, sup_gauge()], ids=lambda g: g.label)
def test_decompose_bounds_are_bitwise_those_of_recovery_error_bound(corner_case, gauge):
    # decompose reads the unit norms the schedules carry, so they are built in this gauge
    tau, _, operands, (x, y1, y2) = corner_case
    schedules = [build_schedule(tau, gauge, CORNER_WINDOWS),
                 build_schedule(tau, gauge, CORNER_WINDOWS, mode="optimized-then-monotonized",
                                max_iterations=40)]
    tp = TracePart(x=x, ys=(y1, y2), gauge=gauge)
    ops = tuple(measure_test_operator(f"S-{i}", "banded", s, tau, gauge)
                for i, s in enumerate(operands + [np.eye(CORNER_DIM)]))
    for sched in schedules:
        (report,) = decompose([FunctionalSpec(trace_part=tp)], sched, tau, gauge, ops)
        for rec, op in zip(report.per_s, ops, strict=True):
            assert rec.bounds == tuple(recovery_error_bound(tp, tau, gauge, unit, op)
                                       for unit in sched.steps)


def test_decompose_of_several_functionals_gives_each_its_own_report():
    # phi reads Y on the first member only and psi on the second, so the pair
    # takes shrunk norms for both members where each alone takes one
    rng = np.random.default_rng(86)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=TracePart(x=random_block(rng, 3),
                                              ys=(random_block(rng, 4), EMPTY), gauge=G2),
                         singular_part=coordinate_tail_states(TAIL_RANGE))
    psi = FunctionalSpec(trace_part=TracePart(x=EMPTY, ys=(EMPTY, random_block(rng, 2)),
                                              gauge=G2), label="psi")
    ops = sample_ops(tau, seed=87, count=4)
    both = decompose([phi, psi], sched, tau, G2, ops)
    (alone_phi,) = decompose([phi], sched, tau, G2, ops)
    (alone_psi,) = decompose([psi], sched, tau, G2, ops)
    assert [r.phi_id for r in both] == ["phi-0", "psi"]
    assert both[0] == alone_phi
    assert both[1] == alone_psi
    assert replace(decompose([phi, phi], sched, tau, G2, ops)[1], phi_id="phi-0") == alone_phi
    assert all(r.status == "ok" and r.schedule_id == "ramp-8" for r in both)


@pytest.mark.parametrize("count", [1, 2, 5])
def test_decompose_takes_each_operators_commutators_once(monkeypatch, count):
    # one strip of [T_j, S] per operator and one of [T_j, A_k] per unit serve
    # every functional, in every gauge and schedule mode
    rng = np.random.default_rng(88)
    tau = lap()
    blocks = [(random_block(rng, 4), random_block(rng, 4), random_block(rng, 4))
              for _ in range(count)]
    calls = []
    original = lebesgue.commutator_strip

    def counting(tau, s, rows, cols):
        calls.append(s)
        return original(tau, s, rows, cols)

    monkeypatch.setattr(lebesgue, "commutator_strip", counting)
    for gauge, mode in [(G2, "ramp"), (G2, "optimized-then-monotonized"),
                        (schatten(1), "ramp")]:
        sched = build_schedule(tau, gauge, WINDOWS, mode=mode, max_iterations=10)
        phis = [FunctionalSpec(trace_part=TracePart(x=x, ys=(y1, y2), gauge=gauge))
                for x, y1, y2 in blocks]
        ops = sample_ops(tau, seed=89, count=3, gauge=gauge)
        calls.clear()
        reports = decompose(phis, sched, tau, gauge, ops)
        assert len(reports) == count
        assert [id(s) for s in calls] == ([id(u.block) for u in sched.steps]
                                          + [id(op.matrix) for op in ops])


@pytest.mark.parametrize("mode", ["ramp", "optimized-then-monotonized"])
@pytest.mark.parametrize("gauge", [schatten(1), G2, sup_gauge(), ky_fan(3), ky_fan_dual(3)],
                         ids=lambda g: g.label)
def test_decompose_forms_no_n_sized_operand(monkeypatch, gauge, mode):
    # every commutator, strip and norm, wherever the modules bind them: the
    # operands and results (a strip's input S is read on its leading corner only)
    rng = np.random.default_rng(98)
    tau = lap()
    sched = build_schedule(tau, gauge, WINDOWS, mode=mode, max_iterations=10)
    tp = replace(random_trace_part(rng, support=6), gauge=gauge)
    phi = FunctionalSpec(trace_part=tp, singular_part=coordinate_tail_states(TAIL_RANGE))
    ops = sample_ops(tau, seed=94, count=3, gauge=gauge)
    shapes = []

    def recording(name, original):
        def call(*args):
            out = original(*args)
            arrays = (out,) if name == "commutator_strip" else (args[1], out)
            shapes.extend((name, np.shape(a)) for a in arrays if np.ndim(a) >= 2)
            return out
        return call

    for name, home in [("band_commutator", idealops), ("commutator_strip", idealops),
                       ("gauge_norm", gauges), ("_rect_norm", gauges)]:
        for module in (functionals, gauges, idealops, lebesgue):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(home, name)))
    (report,) = decompose([phi], sched, tau, gauge, ops)
    assert report.status == "ok"
    for op in ops:
        recovery_error_bound(tp, tau, gauge, sched.steps[-1], op)
    assert {name for name, _ in shapes} == {"band_commutator", "commutator_strip",
                                            "gauge_norm", "_rect_norm"}
    assert all(max(shape[-2:]) < DIM for _, shape in shapes)


def test_decompose_forms_each_product_once(monkeypatch):
    # every A_k S and every S reaches the trace part's evaluation: count the arrays
    rng = np.random.default_rng(86)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phis = [FunctionalSpec(trace_part=random_trace_part(rng),
                           singular_part=coordinate_tail_states(TAIL_RANGE)),
            FunctionalSpec(trace_part=random_trace_part(rng))]
    ops = sample_ops(tau, seed=87, count=3)
    seen = []
    original = functionals.eval_trace_part

    def recording(tp, tau, s):
        seen.append(s)
        return original(tp, tau, s)

    monkeypatch.setattr(functionals, "eval_trace_part", recording)
    reports = decompose(phis, sched, tau, G2, ops)
    assert all(r.status == "ok" for r in reports)
    matrices = [id(op.matrix) for op in ops]
    products = [s for s in seen if id(s) not in matrices]
    assert len({id(s) for s in products}) == len(products)
    assert len(products) == len(phis) * len(ops) * len(sched)
    assert sorted(id(s) for s in seen if id(s) in matrices) == sorted(matrices * len(phis))


def test_decompose_idempotence_gap_matches_a_two_pass_reference():
    # the tail coordinates 13..20 lie past the first two caps and under the later
    # floors, so the identity's recovery keeps its tail value 1 and the gap is nonzero
    rng = np.random.default_rng(90)
    tau = lap()
    sched = build_schedule(tau, G2, [(4, 8), (8, 12), (24, 32), (32, 40),
                                     (40, 48), (48, 56), (56, 64), (64, 72)])
    tp = random_trace_part(rng)
    phi = FunctionalSpec(trace_part=tp, singular_part=coordinate_tail_states(range(13, 21)))
    ops = sample_ops(tau, seed=91, count=3)
    (report,) = decompose([phi], sched, tau, G2, ops)
    reference = 0.0
    for rec, op in zip(report.per_s, ops):
        if rec.limit is not None:
            again = recover_ac_part(FunctionalSpec(trace_part=tp), sched, tau, op.matrix)
            reference = max(reference, abs(again.limit - rec.limit))
    assert report.per_s[0].limit is not None
    assert report.idempotence_gap == reference
    assert reference > 0.5


def test_decompose_takes_no_n_sized_svd(monkeypatch):
    dim = 256
    tau = lap(dim)
    sched = build_schedule(tau, G2, [(4 * m, 4 * r) for m, r in CORNER_WINDOWS])
    phi = FunctionalSpec(trace_part=random_trace_part(np.random.default_rng(78)),
                         singular_part=coordinate_tail_states(range(dim - 6, dim + 1)))
    sizes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        sizes.append(max(np.shape(a)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    ops = generate_test_set(SampleSpec(seed=79, count=2, kinds=("finitely-supported", "banded")),
                            tau, G2)
    (report,) = decompose([phi], sched, tau, G2, ops)
    assert report.status == ("failed" if report.diagnostics else "ok")
    assert [op.op_id for op in ops] == ["identity", "finitely-supported-0", "banded-1"]
    assert report.status == "ok"
    assert sizes and max(sizes) < dim


def test_test_set_carries_operator_norms():
    tau = lap(64)
    ops = generate_test_set(SampleSpec(seed=82, count=3,
                                       kinds=("random-hermitian", "banded", "finitely-supported")),
                            tau, G2)
    assert ops[0].operator_norm == 1.0
    for op in ops:
        assert op.operator_norm == pytest.approx(operator_norm(op.matrix), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [40, 512])
@pytest.mark.parametrize("model", ["lap-pos", "shift-parts"])
def test_test_set_carried_norms_match_a_recompute(model, dim):
    # lap-pos is real, shift-parts complex; the identity and every kind
    tau = instantiate_model(OperatorModelSpec(name=model), dim)
    ops = generate_test_set(SampleSpec(seed=83, count=3,
                                       kinds=("random-hermitian", "banded", "finitely-supported")),
                            tau, G2)
    assert [op.kind for op in ops[1:]] == ["random-hermitian", "banded", "finitely-supported"]
    assert (ops[0].operator_norm, ops[0].commutator_norm) == (1.0, 0.0)
    for op in ops:
        s_norm, c_norm = op.operator_norm, op.commutator_norm
        assert max(s_norm, c_norm) == pytest.approx(e_norm_max(tau, G2, op.matrix),
                                                    rel=1e-12, abs=0.0)
        assert s_norm + c_norm == pytest.approx(e_norm_sum(tau, G2, op.matrix),
                                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", ["lap-pos", "shift-parts"])
def test_test_set_draws_are_measured_draws_scaled_to_norm_one(model):
    # the raw draws come from the same generator, in the same order
    tau = instantiate_model(OperatorModelSpec(name=model), DIM)
    spec = SampleSpec(seed=84, count=6, kinds=sampling.KINDS, support=5, bandwidth=2)
    ops = generate_test_set(spec, tau, G2)
    rng = np.random.default_rng(spec.seed)
    for i, got in enumerate(ops[1:]):
        kind = spec.kinds[i % len(spec.kinds)]
        raw = sampling._sample_matrix(rng, kind, DIM, spec.support, spec.bandwidth)
        want = measure_test_operator(f"{kind}-{i}", kind, raw, tau, G2)
        assert raw.flags.writeable and not want.matrix.flags.writeable  # a read-only view
        norm = max(want.operator_norm, want.commutator_norm)
        assert norm > 1e-14
        assert (got.op_id, got.kind, got.gauge) == (want.op_id, kind, G2)
        assert np.array_equal(got.matrix, want.matrix / norm)
        assert got.operator_norm == want.operator_norm / norm
        assert got.commutator_norm == want.commutator_norm / norm
        assert not got.matrix.flags.writeable


def test_decompose_takes_no_n_sized_eigvalsh(monkeypatch):
    # the test set carries each operator's norm, so decompose does not take it again
    dim = 256
    tau = lap(dim)
    sched = build_schedule(tau, G2, [(4 * m, 4 * r) for m, r in CORNER_WINDOWS])
    phi = FunctionalSpec(trace_part=random_trace_part(np.random.default_rng(80)),
                         singular_part=coordinate_tail_states(range(dim - 6, dim + 1)))
    ops = generate_test_set(SampleSpec(seed=81, count=2), tau, G2)
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a, *args, **kwargs):
        sizes.append(max(np.shape(a)))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    (report,) = decompose([phi], sched, tau, G2, ops)
    assert report.status == ("failed" if report.diagnostics else "ok")
    assert [op.kind for op in ops] == ["identity", "random-hermitian", "random-hermitian"]
    assert report.status == "ok"
    assert dim not in sizes


# -------------------------------------------------------------- decompose


def sample_ops(tau, seed, count=6, gauge=G2):
    return generate_test_set(
        SampleSpec(seed=seed, count=count,
                   kinds=("finitely-supported", "banded"), support=5),
        tau, gauge)


def test_decompose_mixed_functional():
    rng = np.random.default_rng(71)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    tp = random_trace_part(rng)
    phi = FunctionalSpec(trace_part=tp,
                         singular_part=coordinate_tail_states(TAIL_RANGE),
                         label="mixed")
    ops = sample_ops(tau, seed=72)
    (report,) = decompose([phi], sched, tau, G2, ops)
    assert report.status == ("failed" if report.diagnostics else "ok")
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
    (report,) = decompose([phi], sched, tau, G2, ops)
    assert report.status == ("failed" if report.diagnostics else "ok")
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
    (report,) = decompose([phi], sched, tau, G2, ops)
    assert report.status == ("failed" if report.diagnostics else "ok")
    assert report.status == "ok"
    assert report.additivity.upper_tail == 0.0
    assert report.additivity.lower <= report.additivity.upper_trace + 1e-6
    for _, gap in report.residuals:
        assert gap <= 1e-10


def test_decompose_flags_nonconvergence():
    rng = np.random.default_rng(76)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS[:5])
    phi = FunctionalSpec(trace_part=random_trace_part(rng))
    ops = sample_ops(tau, seed=77, count=3)
    (report,) = decompose([phi], sched, tau, G2, ops)
    assert report.status == ("failed" if report.diagnostics else "ok")
    assert report.status == "failed"
    assert any("did not converge" in d for d in report.diagnostics)
    assert any(rec.limit is None for rec in report.per_s)


@pytest.mark.parametrize("windows, tail, message", [
    # the tail windows 30..38 lie under the sixth cap, so the singular part fails at step 6
    (WINDOWS, range(30, 39), "step 6: no stabilized tail of length 5 at tolerance 1e-09"),
    (WINDOWS[:5], None, "need at least 6 values, got 5"),
], ids=["tail-inside-caps", "five-windows"])
def test_decompose_diagnostic_carries_the_not_converged_message(windows, tail, message):
    tau = lap()
    sched = build_schedule(tau, G2, windows)
    phi = FunctionalSpec(
        trace_part=TracePart(x=np.array([[1.0]]), ys=(EMPTY, EMPTY), gauge=G2),
        singular_part=None if tail is None else coordinate_tail_states(tail))
    (report,) = decompose([phi], sched, tau, G2, sample_ops(tau, seed=65, count=3))
    assert report.status == ("failed" if report.diagnostics else "ok")
    assert report.per_s[0].limit is None
    assert report.diagnostics[0] == f"identity: recovery did not converge: {message}"
    failing = [rec.s_id for rec in report.per_s if rec.limit is None]
    assert [d.split(":")[0] for d in report.diagnostics
            if "recovery did not converge: " in d] == failing


def test_decompose_and_norm_bounds_share_the_sampled_lower():
    # the tail coordinates settle on the identity and on finitely supported draws,
    # not on random-hermitian ones, which both sides skip and count
    rng = np.random.default_rng(84)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phi = FunctionalSpec(trace_part=random_trace_part(rng),
                         singular_part=coordinate_tail_states(TAIL_RANGE))
    spec = SampleSpec(seed=85, count=4, kinds=("finitely-supported", "random-hermitian"))
    (report,) = decompose([phi], sched, tau, G2, generate_test_set(spec, tau, G2))
    assert report.status == ("failed" if report.diagnostics else "ok")
    bounds = functional_norm_bounds(phi, tau, G2, generate_test_set(spec, tau, G2))
    assert bounds.skipped == 2
    assert (report.additivity.lower, report.additivity.skipped) == (bounds.lower, bounds.skipped)
    assert bounds == report.additivity


def test_norm_bounds_fields_are_the_additivity_artifact_keys():
    schema = json.loads((Path(commlab.__file__).parent / "schemas"
                         / "decomposition.schema.json").read_text(encoding="utf-8"))
    additivity = schema["properties"]["reports"]["items"]["properties"]["additivity"]
    assert [f.name for f in fields(NormBounds)] == additivity["required"]


def test_decompose_aligns_gauge_for_singular_only():
    tau = lap()
    sched = build_schedule(tau, schatten(1), WINDOWS)
    phi = FunctionalSpec(singular_part=coordinate_tail_states(TAIL_RANGE))
    ops = sample_ops(tau, seed=78, count=3, gauge=schatten(1))
    (report,) = decompose([phi], sched, tau, schatten(1), ops)
    assert report.status == ("failed" if report.diagnostics else "ok")
    assert report.status == "ok"
    assert report.additivity.upper_trace == 0.0
    assert report.additivity.upper_tail == 1.0


def test_decompose_refuses_a_test_set_normed_in_another_gauge():
    # the carried commutator norms are Schatten-2 ones; Schatten-1 norms are
    # at least as large, so reading them in schatten(1) would inflate the lower bound
    tau = lap()
    sched = build_schedule(tau, schatten(1), WINDOWS)
    phi = FunctionalSpec(singular_part=coordinate_tail_states(TAIL_RANGE))
    ops = sample_ops(tau, seed=78, count=3)
    with pytest.raises(ValueError, match="another gauge"):
        decompose([phi], sched, tau, schatten(1), ops)
    with pytest.raises(ValueError, match="another gauge"):
        projection_check([phi, phi], sched, tau, schatten(1), ops)


GAUGE_RULE_CASES = [(entry, carrier) for entry in ("decompose", "projection_check")
                    for carrier in ("trace part", "test set", "schedule")] + [
    ("recovery_error_bound", "trace part"), ("recovery_error_bound", "test set"),
    ("functional_norm_bounds", "trace part"),
    ("functional_norm_bounds", "test set"), ("quotient_norm_bounds", "trace part"),
    ("quotient_norm_bounds", "test set")]


@pytest.mark.parametrize("entry, carrier", GAUGE_RULE_CASES,
                         ids=[f"{e}-{c.replace(' ', '-')}" for e, c in GAUGE_RULE_CASES])
def test_entry_points_refuse_an_input_in_another_gauge(entry, carrier):
    # the computation runs in schatten-2; only the named input is built in schatten-1
    tau, rng = lap(), np.random.default_rng(91)

    def gauge_of(name):
        return schatten(1) if name == carrier else G2

    tp = TracePart(x=random_block(rng, 3), ys=(random_block(rng, 3), EMPTY),
                   gauge=gauge_of("trace part"))
    phi = FunctionalSpec(trace_part=tp)
    sched = build_schedule(tau, gauge_of("schedule"), WINDOWS)
    ops = sample_ops(tau, seed=92, count=2, gauge=gauge_of("test set"))
    calls = {
        "decompose": lambda: decompose([phi], sched, tau, G2, ops),
        "projection_check": lambda: projection_check([phi, phi], sched, tau, G2, ops),
        "recovery_error_bound": lambda: recovery_error_bound(tp, tau, G2, sched.steps[0],
                                                             ops[1]),
        "functional_norm_bounds": lambda: functional_norm_bounds(phi, tau, G2, ops),
        "quotient_norm_bounds": lambda: quotient_norm_bounds(tp, tau, G2, window=4, test_set=ops),
    }
    with pytest.raises(ValueError, match=f"{carrier} is in another gauge"):
        calls[entry]()


TUPLE_RULE_CASES = [(entry, carrier) for entry in ("decompose", "projection_check")
                    for carrier in ("test set", "schedule")] + [
    ("recover_ac_part", "schedule"), ("recovery_error_bound", "test set"),
    ("functional_norm_bounds", "test set"), ("quotient_norm_bounds", "test set")]


@pytest.mark.parametrize("entry, carrier", TUPLE_RULE_CASES,
                         ids=[f"{e}-{c.replace(' ', '-')}" for e, c in TUPLE_RULE_CASES])
def test_entry_points_refuse_an_input_measured_on_another_tuple(entry, carrier):
    # the computation runs on lap-pos; only the named input is measured on a
    # diagonal grid of three members at the same dimension
    tau, rng = lap(), np.random.default_rng(93)

    def tuple_of(name):
        return instantiate_model(OperatorModelSpec(name="diagonal-grid", n=3), DIM) \
            if name == carrier else tau

    tp = TracePart(x=random_block(rng, 3), ys=(random_block(rng, 3), EMPTY), gauge=G2)
    phi = FunctionalSpec(trace_part=tp)
    sched = build_schedule(tuple_of("schedule"), G2, WINDOWS)
    ops = sample_ops(tuple_of("test set"), seed=94, count=2)
    calls = {
        "decompose": lambda: decompose([phi], sched, tau, G2, ops),
        "projection_check": lambda: projection_check([phi, phi], sched, tau, G2, ops),
        "recover_ac_part": lambda: recover_ac_part(phi, sched, tau, np.eye(DIM)),
        "recovery_error_bound": lambda: recovery_error_bound(tp, tau, G2, sched.steps[0],
                                                             ops[1]),
        "functional_norm_bounds": lambda: functional_norm_bounds(phi, tau, G2, ops),
        "quotient_norm_bounds": lambda: quotient_norm_bounds(tp, tau, G2, window=4, test_set=ops),
    }
    with pytest.raises(ValueError, match=f"{carrier} was measured on another tuple"):
        calls[entry]()


def test_inputs_measured_on_an_equal_tuple_built_again_are_accepted():
    # equal diagonals, another object: the check compares the storage, not identity
    rng = np.random.default_rng(95)
    phi = FunctionalSpec(trace_part=random_trace_part(rng))
    tau, again = lap(), lap()
    assert again is not tau
    same = decompose([phi], build_schedule(tau, G2, WINDOWS), tau, G2, sample_ops(tau, seed=96))
    other = decompose([phi], build_schedule(again, G2, WINDOWS), tau, G2,
                      sample_ops(again, seed=96))
    assert other == same


def test_tuple_records_compare_and_hash_by_identity():
    # HermitianTuple, TestOperator and UnitSchedule hold arrays: a field-wise
    # == raised ValueError and hash TypeError, so they compare by identity
    tau, again = lap(16), lap(16)
    records = [(tau, again),
               (sample_ops(tau, seed=97, count=1)[1], sample_ops(tau, seed=97, count=1)[1]),
               (build_schedule(tau, G2, [(2, 4)]), build_schedule(tau, G2, [(2, 4)]))]
    for record, twin in records:
        assert record == record and record != twin
        assert hash(record) == hash(record)
        assert len({record, twin}) == 2
    # the tuple check still accepts a record measured on an equal tuple built again
    gauges._check_tuple(tau, test_set=sample_ops(again, seed=97, count=1),
                        schedule=[build_schedule(again, G2, [(2, 4)])])


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


def test_projection_check_raises_when_recovery_does_not_settle():
    rng = np.random.default_rng(80)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS[:5])
    phi = FunctionalSpec(trace_part=random_trace_part(rng))
    ops = sample_ops(tau, seed=77, count=3)
    with pytest.raises(NotConverged):
        projection_check([phi, phi], sched, tau, G2, ops)


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
    report = projection_check(phis, sched, tau, G2, ops)
    assert len(report.linearity_gaps) == 1
    assert report.linearity_gaps[0] <= 1e-8
    assert all(g <= 1e-9 for g in report.idempotence_gaps)
    assert all(g == 0.0 for g in report.additivity_gaps)


def combined(first, second):
    """2 first - second on the trace parts, each block pair padded to the larger support."""
    def mix(u, v):
        size = max(u.shape[0], v.shape[0])
        out = np.zeros((size, size), dtype=np.complex128)
        out[:u.shape[0], :u.shape[0]] += 2.0 * u
        out[:v.shape[0], :v.shape[0]] -= v
        return out

    a, b = first.trace_part, second.trace_part
    return FunctionalSpec(trace_part=TracePart(
        x=mix(a.x, b.x), ys=tuple(mix(u, v) for u, v in zip(a.ys, b.ys)), gauge=a.gauge))


def test_projection_check_reads_linearity_off_one_decompose_pass(monkeypatch):
    # supports 3..7: each combination pads the smaller blocks
    rng = np.random.default_rng(85)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phis = [FunctionalSpec(trace_part=random_trace_part(rng, support=3 + i),
                           singular_part=coordinate_tail_states(TAIL_RANGE) if i % 2 else None)
            for i in range(5)]
    ops = sample_ops(tau, seed=86, count=3)
    combos = [combined(a, b) for a, b in zip(phis[0::2], phis[1::2])]
    reports = decompose(phis + combos, sched, tau, G2, ops)
    want = tuple(max(abs(c.limit - (2.0 * a.limit - b.limit))
                     for a, b, c in zip(first.per_s, second.per_s, combo.per_s, strict=True))
                 for first, second, combo in zip(reports[0:4:2], reports[1:4:2], reports[5:]))
    recover, calls = lebesgue._recover, []

    def counted(*args):
        calls.append(None)
        return recover(*args)

    monkeypatch.setattr(lebesgue, "_recover", counted)
    report = projection_check(phis, sched, tau, G2, ops)
    assert len(report.linearity_gaps) == 2
    assert report.linearity_gaps == want
    assert 0.0 < max(want) <= 1e-8
    assert len(calls) == (len(phis) + len(combos)) * len(ops)


def test_projection_linearity_check_fails_on_a_nonlinear_recovery(monkeypatch):
    rng = np.random.default_rng(96)
    tau = lap()
    sched = build_schedule(tau, G2, WINDOWS)
    phis = [FunctionalSpec(trace_part=random_trace_part(rng, support=3 + i)) for i in range(4)]
    ops = sample_ops(tau, seed=97, count=3)
    assert max(projection_check(phis, sched, tau, G2, ops).linearity_gaps) <= 1e-8
    recover = lebesgue._recover

    def bent(*args):
        rec, traces = recover(*args)
        values = [v + 1e-6 * abs(v) for v in rec.sequence]
        return lebesgue.RecoveryResult(tuple(values), detect_limit(values)), traces

    monkeypatch.setattr(lebesgue, "_recover", bent)
    assert min(projection_check(phis, sched, tau, G2, ops).linearity_gaps) > 1e-8
