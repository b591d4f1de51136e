"""Ramps, the window optimizer, estimation tables, and monotone schedules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commlab import (
    HermitianTuple,
    MonotonizationError,
    OperatorModelSpec,
    build_schedule,
    commutator_tuple,
    gauge_norm,
    instantiate_model,
    k_estimate,
    ky_fan,
    optimize_unit,
    ramp_unit,
    schatten,
    sup_gauge,
    tuple_gauge_norm,
)
from commlab.idealops import embed
from commlab.qau import _descend

LAP = OperatorModelSpec(name="lap-pos")
GRID2 = OperatorModelSpec(name="diagonal-grid", n=2)


def ramp_diagonal(m, r, n):
    """The ramp profile from its defining formula, independent of the library."""
    j = np.arange(1, n + 1, dtype=float)
    return np.clip((r - j) / float(r - m), 0.0, 1.0)


def tridiag_commutator_frobenius(scale, diag_a):
    """|[T, A]|_2 for tridiagonal T (off-diagonal -scale) and diagonal A.

    [T, A] has entries T_ij (a_j - a_i), which live only on the two
    off-diagonals; the norm is assembled entrywise with no matrix algebra.
    """
    d = np.diff(diag_a)
    return float(np.sqrt(2.0 * np.sum((scale * d) ** 2)))


def random_feasible_block(rng, dim, r):
    """A random matrix with 0 <= A <= I supported in the leading r corner."""
    m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    m = (m + m.conj().T) / 2
    lam, w = np.linalg.eigh(m)
    span = lam.max() - lam.min()
    clipped = (lam - lam.min()) / (span if span > 0 else 1.0)
    block = (w * clipped) @ w.conj().T
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[:r, :r] = block
    return out


# ----------------------------------------------------------------- ramps


def test_ramp_documented_profile():
    tau = instantiate_model(GRID2, 6)
    unit = ramp_unit(tau, 2, 4)
    want = np.diag([1.0, 1.0, 0.5, 0.0, 0.0, 0.0])
    assert np.array_equal(unit.matrix, want)
    assert np.array_equal(np.diag(unit.matrix), ramp_diagonal(2, 4, 6))
    # stored as its read-only cap block; `matrix` is the N x N view of it
    assert unit.block.shape == (4, 4)
    assert not unit.block.flags.writeable
    assert np.array_equal(unit.matrix, embed(unit.block, 6))


def test_ramp_commutes_with_diagonal_model():
    tau = instantiate_model(GRID2, 10)
    unit = ramp_unit(tau, 3, 8)
    assert tuple_gauge_norm(commutator_tuple(tau, unit.matrix), schatten(1)) == 0.0


@pytest.mark.parametrize("window", [(2, 6), (4, 12), (10, 26)])
def test_ramp_frobenius_cost_matches_entrywise_oracle(window):
    m, r = window
    tau = instantiate_model(LAP, 32)
    unit = ramp_unit(tau, m, r)
    got = tuple_gauge_norm(commutator_tuple(tau, unit.matrix), schatten(2))
    want = tridiag_commutator_frobenius(1.0, ramp_diagonal(m, r, 32))
    assert abs(got - want) < 1e-10
    # and the closed form for the even ramp: scale * sqrt(2 / width)
    assert abs(got - np.sqrt(2.0 / (r - m))) < 1e-10


def test_ramp_certificate_fields():
    tau = instantiate_model(LAP, 20)
    unit = ramp_unit(tau, 4, 10)
    cert = unit.certificate
    assert cert.min_eigenvalue >= -1e-10
    assert cert.max_eigenvalue <= 1.0 + 1e-10
    assert cert.floor_residual <= 1e-10
    assert np.all(unit.matrix[10:, :] == 0)
    assert np.all(unit.matrix[:, 10:] == 0)


def test_ramp_window_validation():
    tau = instantiate_model(LAP, 16)
    with pytest.raises(ValueError):
        ramp_unit(tau, 0, 4)
    with pytest.raises(ValueError):
        ramp_unit(tau, 5, 4)
    with pytest.raises(ValueError):
        ramp_unit(tau, 4, 16)  # cap + bandwidth exceeds the dimension


# -------------------------------------------------------------- optimizer


def phase_conjugate(tau, seed):
    """D T_j D* for a random diagonal unitary D: complex, banded, equivalent to tau."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, tau.dimension))
    return HermitianTuple.from_matrices([d[:, None] * t * d.conj() for t in tau.matrices])


@pytest.mark.parametrize("gauge", [schatten(2), sup_gauge()], ids=lambda g: g.label)
def test_real_tuple_matches_its_complex_phase_conjugate(gauge):
    # D fixes every diagonal unit, the ramp included, and D [T, A] D* has the
    # singular values of [T, A].  Schatten-2's subgradient K / |K|_F is unique,
    # so the two paths agree step by step.  [T, A] is antisymmetric for real
    # symmetric T and A, so its top singular value is double and the sup
    # paths may take different subgradients: only the start, the ramp above
    # and the shift pairing below are shared.
    real = instantiate_model(LAP, 40)
    cplx = phase_conjugate(real, 8)
    assert (real.dtype, cplx.dtype) == (np.float64, np.complex128)
    a = optimize_unit(real, gauge, 4, 20)
    b = optimize_unit(cplx, gauge, 4, 20)
    assert a.unit.block.dtype == np.float64
    assert a.trace[0][1] == pytest.approx(b.trace[0][1], rel=1e-9, abs=0)
    grid = dict(floors=[2, 4], caps=[16, 20])
    ta, tb = k_estimate(real, gauge, **grid), k_estimate(cplx, gauge, **grid)
    if gauge == schatten(2):
        assert len(a.trace) == len(b.trace)
        assert [v for _, v, _ in a.trace] == pytest.approx([v for _, v, _ in b.trace],
                                                           rel=1e-9, abs=0)
        assert [(c.iterations, c.status) for c in ta.cells] == \
            [(c.iterations, c.status) for c in tb.cells]
        assert [c.beta for c in ta.cells] == pytest.approx([c.beta for c in tb.cells],
                                                           rel=1e-9, abs=0)
        return
    for tau, res, table in ((real, a, ta), (cplx, b, tb)):
        windows = [(4, 20, res.value)] + [(c.floor_m, c.cap_r, c.beta) for c in table.cells]
        for m, r, value in windows:
            ramp = build_schedule(tau, gauge, [(m, r)]).commutator_norms[0]
            assert shift_pairing_bound(1.0, gauge, m, r) <= value <= ramp


def test_optimizer_exact_zero_on_commuting_model():
    tau = instantiate_model(GRID2, 12)
    for g in [schatten(1), schatten(2), ky_fan(2)]:
        res = optimize_unit(tau, g, 3, 8)
        assert res.value == 0.0


def test_optimizer_beats_ramp_on_lap_pos():
    tau = instantiate_model(LAP, 200)
    res = optimize_unit(tau, schatten(2), 10, 50)
    assert res.value <= np.sqrt(2.0 / 40.0) * (1 - 1e-3)
    cert = res.unit.certificate
    assert cert.min_eigenvalue >= -1e-10
    assert cert.floor_residual <= 1e-10
    assert cert.max_eigenvalue <= 1.0 + 1e-10


def test_optimizer_never_worse_than_warm_start():
    tau = instantiate_model(OperatorModelSpec(name="shift-parts"), 40)
    for g in [schatten(1), schatten(2), ky_fan(3)]:
        ramp_value = tuple_gauge_norm(
            commutator_tuple(tau, ramp_unit(tau, 3, 12).matrix), g)
        res = optimize_unit(tau, g, 3, 12, max_iterations=300)
        assert res.value <= ramp_value + 1e-8


def test_optimizer_trace_is_monotone_in_best():
    tau = instantiate_model(LAP, 60)
    res = optimize_unit(tau, schatten(2), 5, 20, max_iterations=100)
    bests = [b for _, _, b in res.trace]
    assert all(b1 >= b2 for b1, b2 in zip(bests, bests[1:]))
    assert res.value == bests[-1]


def test_optimizer_moves_on_a_huge_tuple():
    # the subgradient's norm overflows a plain sum of squares at this scale, and
    # so would the Gram matrix of the sup gauge's commutators without its rescale
    tau = instantiate_model(OperatorModelSpec(name="lap-pos", parameters=(1e300, 400)), 32)
    for gauge in (schatten(2), sup_gauge()):
        res = optimize_unit(tau, gauge, 2, 8)
        assert len({value for _, value, _ in res.trace}) > 1, gauge.label


@pytest.mark.parametrize("gauge", [schatten(2), sup_gauge()], ids=lambda g: g.label)
def test_optimizer_stops_before_its_budget_on_the_kest_lap256_grid(gauge):
    # the benchmark's k-estimate grid: schatten-2 beats every ramp; a sup cell may keep it
    tau = instantiate_model(OperatorModelSpec(name="lap-pos", parameters=(1, 400)), 256)
    for m in (8, 16):
        for r in (48, 96, 144):
            res = optimize_unit(tau, gauge, m, r)
            assert res.stop_reason != "budget"
            ramp = res.trace[0][1]
            assert res.value < ramp if gauge == schatten(2) else res.value <= ramp


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(center=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
       start=st.floats(-1.0, 1.0), max_iterations=st.integers(0, 60))
def test_descent_never_rises_and_keeps_its_budget(center, start, max_iterations):
    # |x - c|_1 on the box [-1, 1]^n: convex and sharp at its minimizer
    c = np.array(center)

    def evaluate(x):
        return float(np.abs(x - c).sum()), np.sign(x - c)

    x0 = np.full(c.shape, start)
    value0, g0 = evaluate(x0)
    x, value, stop_reason, trace = _descend(x0, value0, g0, evaluate,
                                            lambda y: np.clip(y, -1.0, 1.0), max_iterations)
    bests = [best for _, _, best in trace]
    assert trace[0] == (0, value0, value0)
    assert all(b1 >= b2 for b1, b2 in zip(bests, bests[1:]))
    assert value == bests[-1] == evaluate(x)[0] <= value0
    assert all(v >= best for _, v, best in trace)
    assert len(trace) - 1 <= max_iterations
    assert stop_reason in ("tolerance", "zero-gradient", "stall", "budget")
    assert (stop_reason == "budget") <= (len(trace) - 1 == max_iterations)
    assert np.all(np.abs(x) <= 1.0)


def test_descent_with_no_budget_returns_its_start():
    x0, g0 = np.ones(3), np.ones(3)
    x, value, stop_reason, trace = _descend(x0, 3.0, g0, None, None, 0)
    assert (x is x0, value, stop_reason, trace) == (True, 3.0, "budget", [(0, 3.0, 3.0)])


@pytest.mark.parametrize("solve", [
    lambda tau, n: optimize_unit(tau, schatten(2), 2, 8, max_iterations=n),
    lambda tau, n: k_estimate(tau, schatten(2), [2], [8], max_iterations=n),
    lambda tau, n: build_schedule(tau, schatten(2), [(2, 8)], max_iterations=n),
], ids=["optimize_unit", "k_estimate", "build_schedule"])
def test_negative_max_iterations_is_refused(solve):
    with pytest.raises(ValueError, match=r"max_iterations out of range: -1"):
        solve(instantiate_model(LAP, 16), -1)


@pytest.mark.parametrize("window", [(16, 32), (160, 256)], ids=lambda w: "%d-%d" % w)
@pytest.mark.parametrize("gauge", [schatten(2), sup_gauge()], ids=lambda g: g.label)
def test_ramp_value_agrees_between_optimizer_and_schedule(gauge, window):
    # both take [T_j, A] on the same (cap + bandwidth) corner, so bitwise equal
    tau = instantiate_model(LAP, 512)
    start = optimize_unit(tau, gauge, *window, max_iterations=0).value
    assert start == build_schedule(tau, gauge, [window]).commutator_norms[0]


def test_degenerate_window_returns_projection():
    tau = instantiate_model(LAP, 16)
    res = optimize_unit(tau, schatten(2), 6, 6)
    want = np.zeros((16, 16))
    want[:6, :6] = np.eye(6)
    assert np.array_equal(res.unit.matrix, want)
    # the feasible set is one point, so no step can be taken
    assert (res.iterations, res.stop_reason) == (0, "zero-gradient")


@pytest.mark.parametrize("model, window, max_iterations, want", [
    (GRID2, (3, 8), 100, (0, "tolerance")),  # the ramp commutes with a diagonal model
    (LAP, (8, 16), 2000, (53, "stall")),
    (LAP, (4, 12), 5, (5, "budget")),
    (LAP, (4, 12), 0, (0, "budget")),
], ids=["tolerance", "stall", "budget", "budget-0"])
def test_optimizer_reports_its_iterations_and_stop_reason(model, window, max_iterations, want):
    res = optimize_unit(instantiate_model(model, 32), schatten(2), *window,
                        max_iterations=max_iterations)
    assert (res.iterations, res.stop_reason) == want
    assert res.iterations == len(res.trace) - 1
    if res.stop_reason == "stall":  # it stalls below the ramp, not at it
        assert res.value < res.trace[0][1]


def test_optimizer_factors_each_commutator_once_per_iterate(monkeypatch):
    # The start is valued as build_schedule values it: one value-only SVD per
    # member.  The sup subgradient takes no SVD but one eigh of the Gram
    # matrix of a (cap + bandwidth)-sized commutator: one for the start's
    # argmax member, then one per member per iterate, which gives both its
    # norm and its subgradient.  The window projection's eigh of the
    # (cap - floor)-sized tail is told apart by its shape.
    tau = instantiate_model(LAP, 64)
    floor_m, cap_r = 4, 20
    svd_calls, eigh_sizes = [], []
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def recording_svd(a, *args, **kwargs):
        svd_calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def recording_eigh(a, *args, **kwargs):
        eigh_sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    res = optimize_unit(tau, sup_gauge(), floor_m, cap_r, max_iterations=10)
    assert res.iterations == 10
    assert svd_calls == [False] * tau.n
    assert eigh_sizes.count(cap_r + tau.bandwidth) == 1 + tau.n * res.iterations
    assert eigh_sizes.count(cap_r - floor_m) == res.iterations
    assert len(eigh_sizes) == 1 + (tau.n + 1) * res.iterations


def test_objective_convexity_surrogate():
    rng = np.random.default_rng(31)
    tau = instantiate_model(LAP, 24)
    g = schatten(2)
    for lam in (0.25, 0.5, 0.75):
        a = random_feasible_block(rng, 24, 12)
        b = random_feasible_block(rng, 24, 12)
        fa = tuple_gauge_norm(commutator_tuple(tau, a), g)
        fb = tuple_gauge_norm(commutator_tuple(tau, b), g)
        mix = tuple_gauge_norm(commutator_tuple(tau, lam * a + (1 - lam) * b), g)
        assert mix <= lam * fa + (1 - lam) * fb + 1e-9


# ---------------------------------------------------------- shift pairing
#
# V, the truncated unilateral shift, pairs every feasible unit to a constant:
# Tr(V*[V, A]) = Tr(A(I - V V*)) = A_00 = 1 and Tr(V*[V*, A]) = 0.  [T_j, A]
# lives on indices m - 1 .. r, where V* has r - m + 1 ones, so Hoelder gives
# max_j |[T_j, A]|_p >= c / (r - m + 1)^(1 - 1/p) for any solver: c = s for
# lap-pos, whose second member is s (2I - V - V*), and c = 1/2 for
# shift-parts, whose members give V = T_1 + i T_2.

SHIFT_PAIRING = {"lap-pos": (OperatorModelSpec(name="lap-pos", parameters=(2.5, 400)), 2.5),
                 "shift-parts": (OperatorModelSpec(name="shift-parts"), 0.5)}
PAIRING_GAUGES = [schatten(1), schatten(2), sup_gauge()]


def shift_pairing_bound(c, gauge, floor_m, cap_r):
    exponent = 1.0 if gauge == sup_gauge() else 1.0 - 1.0 / gauge.p
    return c / (cap_r - floor_m + 1) ** exponent


def random_unit(rng, floor_m, cap_r):
    """A random feasible cap block: I_m (+) C with 0 <= C <= I, complex."""
    block = np.zeros((cap_r, cap_r), dtype=np.complex128)
    block[:floor_m, :floor_m] = np.eye(floor_m)
    block[floor_m:, floor_m:] = random_feasible_block(rng, cap_r - floor_m, cap_r - floor_m)
    return block


@pytest.mark.parametrize("gauge", PAIRING_GAUGES, ids=lambda g: g.label)
@pytest.mark.parametrize("model", SHIFT_PAIRING)
def test_shift_pairing_bounds_every_unit_from_below(model, gauge):
    spec, c = SHIFT_PAIRING[model]
    tau = instantiate_model(spec, 128)
    floors, caps = [4, 8], [16, 32, 48]
    rng = np.random.default_rng(24)
    table = k_estimate(tau, gauge, floors, caps, max_iterations=300)
    for m in floors:
        for r in caps:
            bound = shift_pairing_bound(c, gauge, m, r) * (1 - 1e-12)
            ramp = build_schedule(tau, gauge, [(m, r)]).commutator_norms[0]
            assert bound <= table.cell(m, r).beta <= ramp
            for _ in range(3):
                a = embed(random_unit(rng, m, r), tau.dimension)
                assert tuple_gauge_norm(commutator_tuple(tau, a), gauge) >= bound


def test_criterion_4_trace_table_lies_between_the_pairing_and_the_ramp():
    # criterion 4's schatten-1 table on lap-pos (s = 1): every cell in [s, ramp]
    tau = instantiate_model(LAP, 400)
    caps = [20, 40, 80, 160]
    table = k_estimate(tau, schatten(1), floors=[10], caps=caps, jobs=2)
    for r in caps:
        ramp = build_schedule(tau, schatten(1), [(10, r)]).commutator_norms[0]
        assert 1.0 <= table.cell(10, r).beta <= ramp


# -------------------------------------------------------------- k tables


def test_k_table_zero_on_commuting_model():
    tau = instantiate_model(GRID2, 24)
    table = k_estimate(tau, schatten(1), floors=[2, 4], caps=[8, 12, 16])
    assert all(c.beta == 0.0 for c in table.cells)
    assert table.estimate == 0.0


def test_k_table_monotone_and_summary():
    tau = instantiate_model(LAP, 64)
    table = k_estimate(tau, schatten(2), floors=[4, 8], caps=[12, 16, 24],
                       max_iterations=200)
    assert table.monotonicity_violations() == ()
    beta = {(c.floor_m, c.cap_r): c.beta for c in table.cells}
    want = max(min(beta[(m, r)] for r in table.caps) for m in table.floors)
    assert table.estimate == want
    assert all(c.status in ("ok", "chained") for c in table.cells)
    assert all(c.beta >= 0.0 for c in table.cells)


@pytest.mark.parametrize("gauge", [schatten(2), sup_gauge(), ky_fan(3)], ids=lambda g: g.label)
@pytest.mark.parametrize("jobs", [2, 3], ids=lambda j: f"jobs-{j}")
def test_k_table_deterministic_under_jobs(jobs, gauge):
    # more cells than workers, handed out largest cap first; every gauge but
    # schatten-2 takes its SVDs in the workers
    tau = instantiate_model(LAP, 48)
    grid = dict(floors=[4, 8], caps=[12, 20, 28], max_iterations=120)
    serial = k_estimate(tau, gauge, **grid)
    threaded = k_estimate(tau, gauge, **grid, jobs=jobs)
    assert serial.cells == threaded.cells
    assert serial.estimate == threaded.estimate


@pytest.mark.parametrize("jobs", [0, -1])
def test_k_table_refuses_jobs_below_one(jobs):
    tau = instantiate_model(LAP, 32)
    with pytest.raises(ValueError, match="jobs"):
        k_estimate(tau, schatten(2), floors=[4], caps=[12], jobs=jobs)


def test_k_table_rejects_infeasible_cell():
    tau = instantiate_model(LAP, 32)
    with pytest.raises(ValueError):
        k_estimate(tau, schatten(2), floors=[4], caps=[16, 32])


# -------------------------------------------------------------- schedules


def test_schedule_commuting_model_all_zero():
    tau = instantiate_model(GRID2, 20)
    sched = build_schedule(tau, schatten(1), [(2, 4), (4, 8), (8, 16)])
    assert sched.commutator_norms == (0.0, 0.0, 0.0)


def test_schedule_ramp_norms_strictly_decreasing():
    tau = instantiate_model(LAP, 20)
    sched = build_schedule(tau, schatten(2), [(2, 4), (4, 8), (8, 16)])
    norms = sched.commutator_norms
    assert norms[0] > norms[1] > norms[2]
    for (m, r), norm in zip([(2, 4), (4, 8), (8, 16)], norms):
        assert abs(norm - np.sqrt(2.0 / (r - m))) < 1e-10


def test_schedule_single_window():
    tau = instantiate_model(LAP, 20)
    sched = build_schedule(tau, schatten(2), [(4, 10)])
    assert len(sched) == 1


@pytest.mark.parametrize("mode", ["ramp", "optimized-then-monotonized"])
def test_schedule_steps_monotone_and_norms_consistent(mode):
    tau = instantiate_model(LAP, 40)
    sched = build_schedule(tau, schatten(2), [(3, 6), (6, 12), (12, 24)],
                           mode=mode, max_iterations=150)
    for prev, cur in zip(sched.steps, sched.steps[1:]):
        diff = np.asarray(cur.matrix) - np.asarray(prev.matrix)
        lam = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
        assert lam[0] >= -1e-10
    assert (sched.mode, sched.gauge) == (mode, schatten(2))
    for unit, norms, norm in zip(sched.steps, sched.member_norms, sched.commutator_norms,
                                 strict=True):
        direct = tuple_gauge_norm(commutator_tuple(tau, unit.matrix), schatten(2))
        assert abs(norm - direct) <= 1e-10
        assert norm == max(norms)
        for k, member in zip(commutator_tuple(tau, unit.matrix), norms, strict=True):
            assert member == pytest.approx(gauge_norm(schatten(2), k), rel=1e-12, abs=1e-15)


def test_schedule_window_validation():
    tau = instantiate_model(LAP, 64)
    g = schatten(2)
    with pytest.raises(ValueError):
        build_schedule(tau, g, [])
    with pytest.raises(ValueError):
        build_schedule(tau, g, [(4, 4)])
    with pytest.raises(ValueError):
        build_schedule(tau, g, [(4, 8), (2, 12)])  # floors decrease
    with pytest.raises(ValueError):
        build_schedule(tau, g, [(4, 8), (6, 8)])  # caps stall
    with pytest.raises(ValueError):
        build_schedule(tau, g, [(2, 16), (4, 24), (8, 32)])  # march violated
    with pytest.raises(ValueError):
        build_schedule(tau, g, [(2, 4)], mode="no-such-mode")


def test_monotonization_error_type_exists():
    assert issubclass(MonotonizationError, Exception)
