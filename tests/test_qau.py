"""Ramps, the window optimizer, estimation tables, and monotone schedules."""

import numpy as np
import pytest

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
    return HermitianTuple.from_matrices(
        [d[:, None] * t * d.conj() for t in tau.matrices], bandwidth=tau.bandwidth)


@pytest.mark.parametrize("gauge", [schatten(2), sup_gauge()], ids=lambda g: g.label)
def test_real_tuple_matches_its_complex_phase_conjugate(gauge):
    # D fixes every diagonal unit, the ramp included, and D [T, A] D* has the
    # singular values of [T, A].  Schatten-2's subgradient K / |K|_F is unique,
    # so the two paths agree step by step.  [T, A] is antisymmetric for real
    # symmetric T and A, so its top singular value is double and the sup
    # paths may take different subgradients: on these windows both keep the
    # ramp's value, and only values and iteration counts are compared.
    real = instantiate_model(LAP, 40)
    cplx = phase_conjugate(real, 8)
    assert (real.dtype, cplx.dtype) == (np.float64, np.complex128)
    a = optimize_unit(real, gauge, 4, 20)
    b = optimize_unit(cplx, gauge, 4, 20)
    assert a.unit.block.dtype == np.float64
    assert len(a.trace) == len(b.trace)
    assert a.value == pytest.approx(b.value, rel=1e-9, abs=0)
    if gauge == schatten(2):
        assert [v for _, v, _ in a.trace] == pytest.approx([v for _, v, _ in b.trace],
                                                           rel=1e-9, abs=0)
    grid = dict(floors=[2, 4], caps=[16, 20])
    ta, tb = k_estimate(real, gauge, **grid), k_estimate(cplx, gauge, **grid)
    assert [(c.iterations, c.status) for c in ta.cells] == \
        [(c.iterations, c.status) for c in tb.cells]
    assert [c.beta for c in ta.cells] == pytest.approx([c.beta for c in tb.cells],
                                                       rel=1e-9, abs=0)


def test_optimizer_exact_zero_on_commuting_model():
    tau = instantiate_model(GRID2, 12)
    for g in [schatten(1), schatten(2), ky_fan(2)]:
        res = optimize_unit(tau, g, 3, 8)
        assert res.value == 0.0


def test_optimizer_beats_ramp_on_lap_pos():
    tau = instantiate_model(LAP, 200)
    res = optimize_unit(tau, schatten(2), 10, 50)
    assert res.value <= np.sqrt(2.0 / 40.0) + 1e-8
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
    # the subgradient's norm overflows a plain sum of squares at this scale
    tau = instantiate_model(OperatorModelSpec(name="lap-pos", parameters=(1e300, 400)), 32)
    res = optimize_unit(tau, schatten(2), 2, 8)
    assert len({value for _, value, _ in res.trace}) > 1


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


@pytest.mark.parametrize("jobs", [2, 3], ids=lambda j: f"jobs-{j}")
def test_k_table_deterministic_under_jobs(jobs):
    # more cells than workers, handed out largest cap first
    tau = instantiate_model(LAP, 48)
    grid = dict(floors=[4, 8], caps=[12, 20, 28], max_iterations=120)
    serial = k_estimate(tau, schatten(2), **grid)
    threaded = k_estimate(tau, schatten(2), **grid, jobs=jobs)
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
