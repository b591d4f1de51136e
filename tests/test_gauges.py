"""Gauge evaluation, singular values, conjugates, and trace duality.

Expected values come from independent oracles where they are not pinned by
hand: an eigensolver route for singular values, the direct trace formula for
the Frobenius case, and a linear program for the Ky Fan dual supremum.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from commlab import (
    GaugeSpec,
    conjugate_gauge,
    gauge_norm,
    gauge_value,
    holder_check,
    ky_fan,
    ky_fan_dual,
    norm_subgradient,
    operator_norm,
    schatten,
    singular_values,
    sup_gauge,
)
from commlab.gauges import norm_value_and_subgradient


# ---------------------------------------------------------------- oracles


def eig_singular_values(m):
    """Singular values via the eigenvalues of M*M, no SVD involved."""
    m = np.asarray(m, dtype=np.complex128)
    lam = np.linalg.eigvalsh(m.conj().T @ m)
    return np.sqrt(np.clip(lam, 0.0, None))[::-1]


def lp_ky_fan_dual(t, k):
    """sup { sum s_i t_i : s nonincreasing, s >= 0, top-k sum of s <= 1 }.

    For nonincreasing s the Ky Fan k gauge is the sum of the first k
    entries, so the feasible set is a polytope and the supremum is a
    linear program.  Solved with the HiGHS backend, independent of any
    closed form.
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    a_ub = []
    b_ub = []
    row = np.zeros(n)
    row[: min(k, n)] = 1.0
    a_ub.append(row)
    b_ub.append(1.0)
    for i in range(n - 1):
        row = np.zeros(n)
        row[i + 1] = 1.0
        row[i] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    res = linprog(-t, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(0, None)] * n, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def random_matrix(rng, dim, complex_entries=True):
    m = rng.standard_normal((dim, dim))
    if complex_entries:
        m = m + 1j * rng.standard_normal((dim, dim))
    return m


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_matrix(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


ALL_GAUGES = [
    schatten(1),
    schatten(1.5),
    schatten(2),
    schatten(3),
    ky_fan(1),
    ky_fan(2),
    ky_fan(3),
    ky_fan_dual(2),
    sup_gauge(),
]


# ------------------------------------------------------- singular values


def test_singular_values_diagonal_sign():
    # Singular values of a diagonal are the absolute values, sorted.
    got = singular_values(np.diag([3.0, -4.0]))
    assert np.allclose(got, [4.0, 3.0], atol=1e-12)


def test_singular_values_rank_one_nilpotent():
    e = np.zeros((2, 2))
    e[0, 1] = 1.0
    assert np.allclose(singular_values(e), [1.0, 0.0], atol=1e-12)


def test_singular_values_against_eigensolver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_matrix(rng, 5)
        got = singular_values(m)
        want = eig_singular_values(m)
        assert got.shape == (5,)
        assert np.all(np.diff(got) <= 1e-12)
        assert np.max(np.abs(got - want)) < 1e-10


def test_singular_values_unitary_invariance():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 6)
    u = random_unitary(rng, 6)
    v = random_unitary(rng, 6)
    assert np.max(np.abs(singular_values(u @ m @ v) - singular_values(m))) < 1e-10


def test_singular_values_rejects_bad_input():
    with pytest.raises(ValueError):
        singular_values(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ------------------------------------------------------ gauge evaluation


def test_trace_gauge_on_diagonal():
    assert gauge_norm(schatten(1), np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)


def test_ky_fan_top_two():
    assert gauge_norm(ky_fan(2), np.diag([5.0, 3.0, 2.0])) == pytest.approx(8.0, abs=1e-12)


def test_frobenius_against_trace_formula():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = random_matrix(rng, 4)
        want = np.sqrt(abs(np.trace(m.conj().T @ m)))
        assert abs(gauge_norm(schatten(2), m) - want) < 1e-10


def test_normalization_on_unit_sequence():
    for g in ALL_GAUGES:
        assert gauge_value(g, [1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_gauge_value_homogeneous_and_monotone():
    rng = np.random.default_rng(10)
    for g in ALL_GAUGES:
        t = np.sort(rng.random(6))[::-1]
        s = t * rng.random(6)  # dominated entrywise, may be unsorted
        assert gauge_value(g, 2.5 * t) == pytest.approx(2.5 * gauge_value(g, t), rel=1e-12)
        assert gauge_value(g, s) <= gauge_value(g, t) + 1e-12


@pytest.mark.parametrize("p, scale", [(400, 10.0), (3, 1e110), (2, 1e200), (2, 1e-200)])
def test_schatten_norm_does_not_overflow(p, scale):
    # t ** p over- or underflows for these values unless t is scaled first
    want = pytest.approx(scale * 3 ** (1 / p), rel=1e-12, abs=0.0)
    m = scale * np.eye(3)
    assert gauge_norm(schatten(p), m) == want
    assert gauge_value(schatten(p), [scale] * 3) == want
    assert np.vdot(norm_subgradient(schatten(p), m), m).real == want  # Re<D, M> = |M|


def test_schatten_norm_of_a_complex_subnormal_matrix():
    # dividing a complex array by a subnormal scale goes through 1/scale = inf
    m = np.diag([3e-320 + 0j, 4e-320 + 0j])
    want = pytest.approx(5e-320, rel=1e-12, abs=0.0)
    value, d = norm_value_and_subgradient(schatten(2), m)
    assert gauge_norm(schatten(2), m.real) == want
    assert gauge_norm(schatten(2), m) == want
    assert value == want
    assert np.vdot(d, m).real == want  # Re<D, M> = |M|


def test_schatten2_overflow_of_a_complex_entry_gives_inf():
    # |1.5e308 + 1.5e308j| overflows although both parts are finite
    m = np.diag([1.5e308 + 1.5e308j, 1.0])
    assert gauge_norm(schatten(2), m) == np.inf
    value, d = norm_value_and_subgradient(schatten(2), m)
    assert value == np.inf
    assert not np.isnan(d).any()


def stack_cases():
    """A stack with a random, a zero and a complex subnormal slice, and a real stack."""
    rng = np.random.default_rng(12)
    subnormal = np.zeros((4, 4), dtype=np.complex128)
    subnormal[0, 0], subnormal[1, 2] = 3e-320, 4e-320j
    complex_stack = np.stack([random_matrix(rng, 4), np.zeros((4, 4), dtype=np.complex128),
                              subnormal, 1e200 * random_matrix(rng, 4)])
    return [complex_stack, np.stack([rng.standard_normal((4, 4)) for _ in range(3)])]


@pytest.mark.parametrize("g", [schatten(1), schatten(1.5), schatten(2), schatten(3), ky_fan(2),
                               ky_fan_dual(2), sup_gauge()], ids=lambda g: g.label)
def test_stacked_value_and_subgradient_match_the_slices_bitwise(g):
    for stack in stack_cases():
        values, d = norm_value_and_subgradient(g, stack)
        assert values.shape == (len(stack),) and d.shape == stack.shape
        assert d.dtype == np.promote_types(stack.dtype, float)
        for m, value, dm in zip(stack, values, d):
            want_value, want_d = norm_value_and_subgradient(g, m)
            assert value == want_value
            assert np.array_equal(dm, want_d)
            # Re<D, M> = |M|; products in the subnormal range keep only absolute precision
            assert float(np.vdot(dm, m).real) == pytest.approx(value, rel=1e-12, abs=1e-321)


def test_gauge_value_rejects_negative_entries():
    with pytest.raises(ValueError):
        gauge_value(schatten(1), [1.0, -0.5])


def test_sup_gauge_is_operator_norm():
    rng = np.random.default_rng(11)
    m = random_matrix(rng, 5)
    assert gauge_norm(sup_gauge(), m) == operator_norm(m)


def _banded_hermitian(rng, dim, width):
    i, j = np.indices((dim, dim))
    m = random_matrix(rng, dim)
    return np.where(np.abs(i - j) <= width, m + m.conj().T, 0.0)


def _support_six(rng):
    m = np.zeros((64, 64), dtype=np.complex128)
    m[:6, :6] = random_matrix(rng, 6)
    return m


OPERATOR_NORM_CASES = {
    "non-hermitian": lambda rng: random_matrix(rng, 9),
    "hermitian": lambda rng: (lambda m: m + m.conj().T)(random_matrix(rng, 9)),
    "support-6-in-64": _support_six,
    "banded-hermitian": lambda rng: _banded_hermitian(rng, 40, 3),
    "diagonal": lambda rng: np.diag(random_matrix(rng, 8)[0]),
    "zero": lambda rng: np.zeros((5, 5), dtype=np.complex128),
    "empty": lambda rng: np.zeros((0, 0)),
}


@pytest.mark.parametrize("case", OPERATOR_NORM_CASES)
def test_operator_norm_routes_match_the_svd(case):
    # diagonal, hermitian (eigvalsh) and general (SVD) corners, and zero padding
    m = OPERATOR_NORM_CASES[case](np.random.default_rng(12))
    s = np.linalg.svd(m, compute_uv=False)
    want = float(s[0]) if s.size else 0.0
    assert operator_norm(m) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_operator_norm_rejects_non_finite_and_non_square(entry):
    m = np.zeros((4, 4), dtype=np.complex128)
    m[3, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        operator_norm(m)
    with pytest.raises(ValueError, match="square"):
        operator_norm(np.ones((2, 3)))


def test_gauge_spec_validation():
    with pytest.raises(ValueError):
        schatten(0.5)
    with pytest.raises(ValueError):
        ky_fan(0)
    with pytest.raises(ValueError):
        GaugeSpec(family="sup", p=2.0)
    with pytest.raises(ValueError):
        GaugeSpec(family="no-such-family")


def test_triangle_inequality():
    rng = np.random.default_rng(12)
    for g in ALL_GAUGES:
        for _ in range(10):
            a = random_matrix(rng, 5)
            b = random_matrix(rng, 5)
            lhs = gauge_norm(g, a + b)
            rhs = gauge_norm(g, a) + gauge_norm(g, b)
            assert lhs <= rhs * (1 + 1e-9)


def test_unitary_invariance_of_norms():
    rng = np.random.default_rng(13)
    for g in ALL_GAUGES:
        m = random_matrix(rng, 6)
        u = random_unitary(rng, 6)
        v = random_unitary(rng, 6)
        assert gauge_norm(g, u @ m @ v) == pytest.approx(gauge_norm(g, m), rel=1e-9)


def test_ideal_property():
    rng = np.random.default_rng(14)
    for g in ALL_GAUGES:
        a = random_matrix(rng, 5)
        m = random_matrix(rng, 5)
        b = random_matrix(rng, 5)
        lhs = gauge_norm(g, a @ m @ b)
        rhs = operator_norm(a) * gauge_norm(g, m) * operator_norm(b)
        assert lhs <= rhs * (1 + 1e-9)


# ----------------------------------------------------------- conjugates


def test_conjugate_pairs():
    assert conjugate_gauge(schatten(2)) == schatten(2)
    g = conjugate_gauge(schatten(3))
    assert g.family == "schatten" and g.p == pytest.approx(1.5, abs=1e-15)
    assert conjugate_gauge(schatten(1)).family == "sup"
    assert conjugate_gauge(sup_gauge()) == schatten(1)
    assert conjugate_gauge(ky_fan(2)).family == "ky-fan-dual"
    assert conjugate_gauge(ky_fan_dual(3)) == ky_fan(3)


def test_trace_sup_boundary_is_flagged():
    assert conjugate_gauge(schatten(1)).notes != ""


def test_ky_fan_dual_formula_against_lp():
    # The defining supremum, solved as a linear program, must match the
    # closed form max(t_1, (t_1+t_2+t_3)/2) on the documented grid.
    for t in itertools.product([0.0, 0.5, 1.0], repeat=3):
        want = max(t[0], sum(t) / 2.0)
        got = lp_ky_fan_dual(t, 2)
        assert abs(got - want) < 1e-6, f"t={t}: lp {got} vs formula {want}"


def test_ky_fan_dual_gauge_matches_lp_on_sorted_vectors():
    # On nonincreasing vectors the implemented dual gauge is exactly the
    # supremum in the trace pairing.
    rng = np.random.default_rng(15)
    dual = conjugate_gauge(ky_fan(2))
    for _ in range(25):
        t = np.sort(rng.random(4))[::-1]
        assert gauge_value(dual, t) == pytest.approx(lp_ky_fan_dual(t, 2), abs=1e-6)


def test_conjugate_involution_on_samples():
    rng = np.random.default_rng(16)
    for g in [schatten(1.5), schatten(2), schatten(3), ky_fan(2), ky_fan(3)]:
        gg = conjugate_gauge(conjugate_gauge(g))
        for _ in range(10):
            t = np.sort(rng.random(5))[::-1]
            assert gauge_value(gg, t) == pytest.approx(gauge_value(g, t), rel=1e-6)


# -------------------------------------------------------- trace duality


def test_holder_equality_identity():
    rep = holder_check(np.eye(2), np.eye(2), schatten(2))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.ok


def test_holder_equality_rank_one():
    e = np.zeros((2, 2))
    e[0, 1] = 1.0
    rep = holder_check(e, e.conj().T, schatten(1))
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.ok


def test_holder_random_pairs():
    rng = np.random.default_rng(17)
    for g in [schatten(1), schatten(1.5), schatten(2), ky_fan(3)]:
        for _ in range(200):
            x = random_matrix(rng, 6)
            y = random_matrix(rng, 6)
            assert holder_check(x, y, g).ok


def test_holder_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        holder_check(np.eye(2), np.eye(3), schatten(2))


def test_subgradient_alignment_and_dual_feasibility():
    # The dual-aligned subgradient D at A pairs to exactly the norm and is
    # feasible for the conjugate unit ball; this is what the optimizer
    # relies on.
    rng = np.random.default_rng(18)
    for g in [schatten(1), schatten(1.5), schatten(2), schatten(3),
              ky_fan(1), ky_fan(2), sup_gauge()]:
        dual = conjugate_gauge(g)
        for _ in range(10):
            a = random_matrix(rng, 5)
            d = norm_subgradient(g, a)
            pairing = float(np.real(np.vdot(d, a)))
            assert pairing == pytest.approx(gauge_norm(g, a), rel=1e-8)
            assert gauge_norm(dual, d) <= 1.0 + 1e-8


def test_subgradient_of_zero_matrix():
    d = norm_subgradient(schatten(2), np.zeros((3, 3)))
    assert np.all(d == 0)
    for g in ALL_GAUGES:
        for dim in (0, 1, 5):
            value, d = norm_value_and_subgradient(g, np.zeros((dim, dim)))
            assert value == 0.0
            assert d.shape == (dim, dim) and np.all(d == 0)


def svd_subgradient_schatten2(m):
    """U diag(s / |s|_2) V*, the SVD construction of the schatten-2 subgradient."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=np.complex128))
    return (u * (s / np.sqrt((s * s).sum()))) @ vh


@pytest.mark.parametrize("dim", range(1, 13))
def test_schatten2_subgradient_matches_svd_construction(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(5):
        a = random_matrix(rng, dim)
        ref = svd_subgradient_schatten2(a)
        d = norm_subgradient(schatten(2), a)
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("g", [schatten(1), schatten(1.5), schatten(2), ky_fan(2),
                               ky_fan_dual(2), sup_gauge()], ids=lambda g: g.label)
def test_value_and_subgradient_agree_with_the_parts(g):
    rng = np.random.default_rng(19)
    for dim in (1, 4, 9):
        a = random_matrix(rng, dim)
        value, d = norm_value_and_subgradient(g, a)
        assert value == pytest.approx(gauge_norm(g, a), rel=1e-12)
        assert float(np.real(np.vdot(d, a))) == pytest.approx(value, rel=1e-12)


NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
              "imag-nan": complex(0.0, np.nan), "imag-inf": complex(0.0, np.inf),
              "imag--inf": complex(0.0, -np.inf)}


@pytest.mark.parametrize("g", [schatten(1), schatten(2), sup_gauge()], ids=lambda g: g.label)
@pytest.mark.parametrize("entry", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_subgradient_rejects_non_finite_and_non_square(g, entry):
    # schatten-2 finds a non-finite entry in the scan that scales its norm
    m = np.eye(3, dtype=np.complex128)
    m[1, 2] = entry
    stack = np.stack([np.eye(3, dtype=np.complex128), m])
    for call in (lambda: norm_subgradient(g, m), lambda: norm_subgradient(g, stack),
                 lambda: gauge_norm(g, m)):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            call()
    with pytest.raises(ValueError, match="square"):
        norm_subgradient(g, np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        gauge_norm(g, np.ones((2, 3)))
