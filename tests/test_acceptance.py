"""Acceptance battery: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture, so the line is
visible in any run) and then asserts.  Tolerances are pinned in the asserts,
not configurable.
"""

import copy
import itertools
import time
import numpy as np
import pytest
from scipy.optimize import linprog

from commlab import (
    FunctionalSpec,
    OperatorModelSpec,
    SampleSpec,
    TailStateSpec,
    TracePart,
    build_schedule,
    commutator_tuple,
    conjugate_gauge,
    coordinate_tail_states,
    e_norm_max,
    eval_functional,
    eval_trace_part,
    gauge_norm,
    gauge_value,
    generate_test_set,
    holder_check,
    instantiate_model,
    k_estimate,
    ky_fan,
    measure_test_operator,
    operator_norm,
    parse_config,
    projection_check,
    quotient_norm_bounds,
    recover_ac_part,
    recovery_error_bound,
    run_experiment,
    schatten,
    sup_gauge,
)

GAUGES = [schatten(1), schatten(1.5), schatten(2), schatten(3),
          ky_fan(1), ky_fan(2), ky_fan(3), ky_fan(4), sup_gauge()]

G2 = schatten(2)


def announce(capsys, number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {title}{tail}")


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng, dim):
    m = random_matrix(rng, dim)
    return (m + m.conj().T) / 2


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_matrix(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def lp_ky_fan_dual(t, k):
    t = np.asarray(t, dtype=float)
    n = t.size
    rows = [np.zeros(n)]
    rows[0][: min(k, n)] = 1.0
    b = [1.0]
    for i in range(n - 1):
        row = np.zeros(n)
        row[i + 1], row[i] = 1.0, -1.0
        rows.append(row)
        b.append(0.0)
    res = linprog(-t, A_ub=np.array(rows), b_ub=np.array(b),
                  bounds=[(0, None)] * n, method="highs")
    assert res.status == 0, res.message
    return -res.fun


@pytest.fixture(scope="module")
def lap400():
    return instantiate_model(OperatorModelSpec(name="lap-pos"), 400)


@pytest.fixture(scope="module")
def lap128():
    return instantiate_model(OperatorModelSpec(name="lap-pos"), 128)


# schedule reused by the functional criteria at dimension 128: eight
# marching windows whose caps stay clear of the tail-state region
W128 = [(6, 12), (12, 20), (20, 30), (30, 44), (44, 58), (58, 72), (72, 86), (86, 100)]
TAIL128 = range(101, 114)


def test_criterion_1_gauge_axioms(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    ok = True
    for i in range(500):
        dim = 2 + (i % 11)
        m = random_matrix(rng, dim)
        n = random_matrix(rng, dim)
        a = random_matrix(rng, dim)
        b = random_matrix(rng, dim)
        u = random_unitary(rng, dim)
        v = random_unitary(rng, dim)
        for g in GAUGES:
            nm = gauge_norm(g, m)
            tri = gauge_norm(g, m + n) - (nm + gauge_norm(g, n))
            uni = abs(gauge_norm(g, u @ m @ v) - nm)
            ideal = gauge_norm(g, a @ m @ b) - operator_norm(a) * nm * operator_norm(b)
            scale = 1.0 + nm
            worst = max(worst, tri / scale, uni / scale, ideal / scale)
            if tri > 1e-9 * scale or uni > 1e-9 * scale or ideal > 1e-9 * scale:
                ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    announce(capsys, 1, "gauge axioms on 500 seeded matrices", ok,
             f"worst relative violation {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_trace_duality(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    holder_ok = True
    for g in GAUGES:
        for _ in range(200):
            x = random_matrix(rng, 6)
            y = random_matrix(rng, 6)
            if not holder_check(x, y, g).ok:
                holder_ok = False
    grid_worst = 0.0
    levels3 = [0.0, 0.5, 1.0]
    levels4 = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    grids = (
        [(t, k) for t in itertools.product(levels3, repeat=3) for k in (1, 2, 3)]
        + [(t, k) for t in itertools.product(levels4, repeat=4) for k in (1, 2, 3, 4)]
    )
    for t, k in grids:
        ts = tuple(sorted(t, reverse=True))
        got = gauge_value(conjugate_gauge(ky_fan(k)), ts)
        want = lp_ky_fan_dual(ts, k)
        grid_worst = max(grid_worst, abs(got - want))
    elapsed = time.perf_counter() - started
    ok = holder_ok and grid_worst <= 1e-6 and elapsed < 60.0
    announce(capsys, 2, "trace duality and Ky Fan conjugate oracle", ok,
             f"grid gap {grid_worst:.2e}, {elapsed:.1f}s")
    assert holder_ok
    assert grid_worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_3_commutator_exactness(capsys, lap400):
    big = instantiate_model(OperatorModelSpec(name="lap-pos"), 800)
    rng = np.random.default_rng(1003)
    ok = True
    for r in (380, 256, 57, 6):
        block = random_hermitian(rng, r)
        a_small = np.zeros((400, 400), dtype=np.complex128)
        a_small[:r, :r] = block
        a_big = np.zeros((800, 800), dtype=np.complex128)
        a_big[:r, :r] = block
        for ks, kb in zip(commutator_tuple(lap400, a_small),
                          commutator_tuple(big, a_big)):
            ks, kb = np.asarray(ks), np.asarray(kb)
            if not (np.array_equal(ks, kb[:400, :400])
                    and not kb[400:, :].any() and not kb[:, 400:].any()):
                ok = False
    announce(capsys, 3, "commutator truncation exactness at N=400 vs 800", ok)
    assert ok


def test_criterion_4_qau_optimizer(capsys, lap400):
    started = time.perf_counter()
    grid = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=2), 64)
    table0 = k_estimate(grid, G2, floors=[4, 8], caps=[16, 24, 32])
    zeros_ok = all(c.beta <= 1e-8 for c in table0.cells)

    caps = [20, 40, 80, 160]
    table2 = k_estimate(lap400, G2, floors=[10], caps=caps, jobs=2)
    env_ok = all(
        table2.cell(10, r).beta <= np.sqrt(2.0 / (r - 10)) + 1e-8 for r in caps)
    betas = [table2.cell(10, r).beta for r in caps]
    mono_ok = all(a >= b - 1e-6 for a, b in zip(betas, betas[1:]))

    table1 = k_estimate(lap400, schatten(1), floors=[10], caps=caps, jobs=2)
    b1 = [table1.cell(10, r).beta for r in caps]
    plateau_ok = (max(b1) - min(b1)) <= 0.2 * max(b1)

    elapsed = time.perf_counter() - started
    ok = zeros_ok and env_ok and mono_ok and plateau_ok and elapsed < 600.0
    announce(capsys, 4, "quasicentral unit optimizer tables", ok,
             f"envelope betas {['%.4f' % b for b in betas]}, "
             f"plateau spread {max(b1) - min(b1):.3f} of {max(b1):.3f}, {elapsed:.0f}s")
    assert zeros_ok, "diagonal model must give an all-zero table"
    assert env_ok, "lap-pos cells exceed the ramp envelope"
    assert mono_ok
    assert plateau_ok
    assert elapsed < 600.0


def test_criterion_5_recovery_certificates(capsys, lap400):
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    base = [(10, 20), (20, 40), (40, 70), (70, 110),
            (110, 160), (160, 220), (220, 290), (290, 370)]
    sound = True
    final_ok = True
    for trial in range(50):
        shift = int(rng.integers(0, 20))
        windows = [(m + shift, r + shift) for m, r in base]
        schedule = build_schedule(lap400, G2, windows)
        support = int(rng.integers(2, 9))
        tp = TracePart(x=random_matrix(rng, support),
                       ys=(random_matrix(rng, support), random_matrix(rng, support)),
                       gauge=G2)
        s = random_hermitian(rng, 400)
        target = eval_trace_part(tp, lap400, s)
        op = measure_test_operator("S", "random-hermitian", s, lap400, G2)
        for unit in schedule.steps:
            gap = abs(target - eval_trace_part(tp, lap400, unit.matrix @ s))
            bound = recovery_error_bound(tp, lap400, G2, unit, op)
            if gap > bound + 1e-9:
                sound = False
        if gap > 1e-6:  # the last step's gap
            final_ok = False
    elapsed = time.perf_counter() - started
    ok = sound and final_ok and elapsed < 300.0
    announce(capsys, 5, "recovery gaps certified on 50 seeded triples", ok,
             f"{elapsed:.0f}s")
    assert sound, "measured gap exceeded its certificate"
    assert final_ok, "final recovery gap above 1e-6"
    assert elapsed < 300.0


def _tail_spec(rng) -> TailStateSpec:
    """A varied tail: one-point windows or uniform blocks, seeded."""
    if rng.integers(2):
        start = 101 + int(rng.integers(0, 4))
        return coordinate_tail_states(range(start, start + 9))
    width = int(rng.integers(2, 4))
    windows = []
    states = []
    lo = 101
    for _ in range(8):
        windows.append((lo, lo + width - 1))
        states.append(np.eye(width, dtype=np.complex128) / width)
        lo += width
    return TailStateSpec(windows=tuple(windows), states=tuple(states))


def test_criterion_6_singular_annihilation(capsys, lap128):
    rng = np.random.default_rng(1006)
    schedule = build_schedule(lap128, G2, W128)
    ops = generate_test_set(
        SampleSpec(seed=1601, count=4, kinds=("finitely-supported", "banded"),
                   support=6),
        lap128, G2)

    annihilated = True
    for _ in range(20):
        phi = FunctionalSpec(singular_part=_tail_spec(rng))
        for op in ops:
            rec = recover_ac_part(phi, schedule, lap128, op.matrix)
            if any(abs(v) > 1e-12 for v in rec.sequence):
                annihilated = False

    recovered = True
    residual_ok = True
    for _ in range(20):
        support = int(rng.integers(2, 7))
        tp = TracePart(x=random_matrix(rng, support),
                       ys=(random_matrix(rng, support), random_matrix(rng, support)),
                       gauge=G2)
        phi = FunctionalSpec(trace_part=tp, singular_part=_tail_spec(rng))
        for op in ops:
            limit = recover_ac_part(phi, schedule, lap128, op.matrix).limit
            if abs(limit - eval_trace_part(tp, lap128, op.matrix)) > 1e-8:
                recovered = False
            if op.finitely_supported:
                direct = eval_functional(phi, lap128, op.matrix)
                if abs(direct - limit) > 1e-8:
                    residual_ok = False
    ok = annihilated and recovered and residual_ok
    announce(capsys, 6, "singular annihilation and trace-part recovery", ok)
    assert annihilated, "singular-only recovery value above 1e-12"
    assert recovered, "recovered limit missed the constructed trace part"
    assert residual_ok, "residual on a finitely supported operator above 1e-8"


def test_criterion_7_projection_identities(capsys, lap128):
    rng = np.random.default_rng(1007)
    schedule = build_schedule(lap128, G2, W128)
    ops = generate_test_set(
        SampleSpec(seed=1701, count=4, kinds=("finitely-supported", "banded"),
                   support=6),
        lap128, G2)
    phis = []
    for _ in range(40):  # 20 consecutive pairs
        support = int(rng.integers(2, 7))
        tp = TracePart(x=random_matrix(rng, support),
                       ys=(random_matrix(rng, support), random_matrix(rng, support)),
                       gauge=G2)
        tail = _tail_spec(rng) if rng.integers(2) else None
        phis.append(FunctionalSpec(trace_part=tp, singular_part=tail))
    report = projection_check(phis, schedule, lap128, G2, ops)
    idem = max(report.idempotence_gaps)
    lin = max(report.linearity_gaps)
    addv = max(report.additivity_gaps)
    ok = idem <= 1e-9 and lin <= 1e-8 and addv <= 1e-6
    announce(capsys, 7, "projection idempotence, linearity, norm sandwich", ok,
             f"gaps {idem:.1e} / {lin:.1e} / {addv:.1e}")
    assert len(report.linearity_gaps) == 20
    assert idem <= 1e-9
    assert lin <= 1e-8
    assert addv <= 1e-6


def test_criterion_8_predual_quotient(capsys):
    rng = np.random.default_rng(1008)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 40)
    samples = SampleSpec(seed=1801, count=6)

    null_ok = True
    for _ in range(20):
        ys = []
        for _ in range(2):
            y = np.zeros((6, 6), dtype=np.complex128)
            s = int(rng.integers(2, 6))
            y[:s, :s] = random_matrix(rng, s)
            ys.append(y)
        x = np.zeros((7, 7), dtype=np.complex128)
        for t, y in zip(tau.matrices, ys):
            ye = np.zeros((7, 7), dtype=np.complex128)
            ye[:6, :6] = y
            tc = t[:7, :7]
            x += tc @ ye - ye @ tc
        pe = TracePart(x=x, ys=tuple(ys), gauge=G2)
        bounds = quotient_norm_bounds(pe, tau, G2, window=12, sample_spec=samples)
        if bounds.upper > 1e-6:
            null_ok = False

    sandwich_ok = True
    duality_ok = True
    ops = generate_test_set(samples, tau, G2)
    for i in range(50):
        pe = TracePart(x=random_matrix(rng, 4),
                       ys=(random_matrix(rng, 4), random_matrix(rng, 4)),
                       gauge=G2)
        bounds = quotient_norm_bounds(pe, tau, G2, window=10, sample_spec=samples,
                                      max_iterations=400)
        if bounds.lower > bounds.upper + 1e-6:
            sandwich_ok = False
        for op in ops:
            if abs(eval_trace_part(pe, tau, op.matrix)) > \
                    bounds.upper * e_norm_max(tau, G2, op.matrix) + 1e-8:
                duality_ok = False
    ok = null_ok and sandwich_ok and duality_ok
    announce(capsys, 8, "predual quotient bounds and duality", ok)
    assert null_ok, "an element of the null subspace failed to certify zero"
    assert sandwich_ok
    assert duality_ok


def test_criterion_9_determinism(capsys, tmp_path):
    base = {
        "seed": 7,
        "model": {"name": "lap-pos", "parameters": [1.0, 400]},
        "dimension": 64,
        "gauges": [{"family": "schatten", "p": 2.0}],
        "solver": {"max_iterations": 150},
        "windows": {
            "floors": [4],
            "caps": [16, 24],
            "schedule": [[2, 4], [4, 8], [8, 16], [16, 24],
                         [20, 32], [24, 40], [32, 48], [40, 56]],
        },
        "functionals": [{
            "label": "phi-det",
            "trace_part": {"x": [[1.0]], "ys": [None, None]},
            "singular_part": {"windows": [[57 + i, 57 + i] for i in range(7)]},
        }],
        "test_set": {"count": 5, "kinds": ["finitely-supported", "banded"]},
    }
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        config = parse_config(copy.deepcopy(base))
        run_experiment(config, out, jobs=2)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    announce(capsys, 9, "byte-identical artifacts on rerun", identical,
             f"{len(names)} files compared")
    assert identical
