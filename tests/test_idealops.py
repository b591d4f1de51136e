"""Operator models, commutators, and the commutant norms."""

import numpy as np
import pytest

from commlab import (
    HermitianTuple,
    OperatorModelSpec,
    commutator_tuple,
    e_norm_max,
    e_norm_sum,
    gauge_norm,
    instantiate_model,
    ky_fan,
    operator_norm,
    schatten,
    support_size,
    tuple_gauge_norm,
)
from commlab.idealops import DENSE_CORNER, band_commutator, embed

MODELS = [
    OperatorModelSpec(name="diagonal-grid", n=2),
    OperatorModelSpec(name="lap-pos"),
    OperatorModelSpec(name="shift-parts"),
]


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


# --------------------------------------------------------------- models


def test_diagonal_grid_documented_corner():
    tau = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=1), 3)
    want = np.diag([1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert np.array_equal(tau.matrices[0], want)


def test_lap_pos_tridiagonal_corner():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 4)
    t2 = np.asarray(tau.matrices[1])
    assert np.array_equal(np.diag(t2), [2.0, 2.0, 2.0, 2.0])
    assert np.array_equal(np.diag(t2, 1), [-1.0, -1.0, -1.0])
    assert np.array_equal(np.diag(t2, -1), [-1.0, -1.0, -1.0])
    # position operator follows the fixed grid, not the instantiation size
    assert tau.matrices[0][0, 0] == pytest.approx(1.0 / 400.0, abs=0)


@pytest.mark.parametrize("spec", MODELS, ids=lambda s: s.name)
def test_corner_consistency(spec):
    small = instantiate_model(spec, 8)
    big = instantiate_model(spec, 16)
    for a, b in zip(small.matrices, big.matrices):
        assert np.array_equal(np.asarray(a), np.asarray(b)[:8, :8])


@pytest.mark.parametrize("spec", MODELS, ids=lambda s: s.name)
def test_models_hermitian_and_banded(spec):
    tau = instantiate_model(spec, 12)
    for t in tau.matrices:
        t = np.asarray(t)
        assert np.abs(t - t.conj().T).max() <= 1e-12
        i, j = np.nonzero(t)
        if i.size:
            assert np.abs(i - j).max() <= tau.bandwidth


@pytest.mark.parametrize("spec, dtype", zip(MODELS, (np.float64, np.float64, np.complex128)),
                         ids=[s.name for s in MODELS])
def test_model_field(spec, dtype):
    tau = instantiate_model(spec, 8)
    assert tau.dtype == dtype
    assert all(t.dtype == dtype and not t.flags.writeable for t in tau.matrices)


def test_tuple_field_is_read_from_the_entries():
    # zero imaginary parts make a real tuple; one nonzero part makes all members complex
    real_valued = np.diag([1.0, 2.0]).astype(np.complex128)
    assert HermitianTuple.from_matrices([real_valued]).dtype == np.float64
    assert HermitianTuple.from_matrices([[[0, 1], [1, 0]]]).dtype == np.float64
    mixed = HermitianTuple.from_matrices([np.eye(2), [[0.0, -1j], [1j, 0.0]]])
    assert [t.dtype for t in mixed.matrices] == [np.complex128, np.complex128]


def test_embed_keeps_the_block_field():
    assert embed(np.eye(2), 4).dtype == np.float64
    assert embed(np.eye(2, dtype=np.complex128), 4).dtype == np.complex128
    assert np.array_equal(embed(np.eye(2), 4), np.diag([1.0, 1.0, 0.0, 0.0]))


def test_model_errors():
    with pytest.raises(ValueError):
        OperatorModelSpec(name="no-such-model")
    with pytest.raises(ValueError):
        instantiate_model(OperatorModelSpec(name="lap-pos"), 3)  # below 2b+2
    with pytest.raises(ValueError):
        OperatorModelSpec(name="lap-pos", n=3)


def test_hermitian_tuple_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianTuple.from_matrices([bad])


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_hermitian_tuple_rejects_non_finite(entry):
    # |t - t^H| is NaN here, and NaN > tol is False: finiteness is its own check
    with pytest.raises(ValueError, match="finite"):
        HermitianTuple.from_matrices([[[entry, 0.0], [0.0, 1.0]]], bandwidth=0)
    with pytest.raises(ValueError, match="finite"):
        HermitianTuple.from_matrices([np.eye(3), np.diag([1.0, entry, 2.0])])


def test_support_size():
    m = np.zeros((6, 6))
    assert support_size(m) == 0
    assert support_size(np.zeros((6, 6), dtype=np.complex128)) == 0
    m[2, 1] = 1.0
    assert support_size(m) == 3
    last_row = np.zeros((6, 6))
    last_row[5, 0] = 1.0
    assert support_size(last_row) == 6
    last_col = np.zeros((6, 6), dtype=np.complex128)
    last_col[0, 5] = 1j
    assert support_size(last_col) == 6


# ---------------------------------------------------------- commutators


def test_commuting_diagonals_give_exact_zero():
    tau = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=3), 6)
    s = np.diag(np.linspace(-1.0, 1.0, 6)).astype(np.complex128)
    for k in commutator_tuple(tau, s):
        assert np.all(np.asarray(k) == 0)


def test_commutator_hand_example():
    t = np.diag([0.0, 1.0]).astype(np.complex128)
    tau = HermitianTuple.from_matrices([t])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    got = commutator_tuple(tau, swap)[0]
    assert np.array_equal(got, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_commutator_trace_free_and_antihermitian():
    rng = np.random.default_rng(21)
    tau = HermitianTuple.from_matrices([random_hermitian(rng, 7) for _ in range(3)])
    s = random_hermitian(rng, 7)
    for k in commutator_tuple(tau, s):
        assert abs(np.trace(k)) < 1e-10
        assert np.abs(k + k.conj().T).max() < 1e-10


# Full-size operands take band_commutator's dense products at the first
# dimension and its diagonals at the second.
KERNEL_DIMS = (24, 96)
assert KERNEL_DIMS[0] <= DENSE_CORNER < KERNEL_DIMS[1]


def kernel_tuples():
    """Every built-in model, a random band-2 tuple and a dense random tuple."""
    tuples = []
    for dim in KERNEL_DIMS:
        suffix = "" if dim == KERNEL_DIMS[0] else f"-{dim}"
        rng = np.random.default_rng(28)
        tuples += [pytest.param(spec.name, instantiate_model(spec, dim),
                                id=spec.name + suffix) for spec in MODELS]
        i, j = np.indices((dim, dim))
        band2 = [np.where(np.abs(i - j) <= 2, random_hermitian(rng, dim), 0)
                 for _ in range(2)]
        tuples.append(pytest.param(
            "band-2", HermitianTuple.from_matrices(band2, bandwidth=2), id="band-2" + suffix))
        dense = [random_hermitian(rng, dim) for _ in range(2)]
        tuples.append(pytest.param("dense", HermitianTuple.from_matrices(dense),
                                   id="dense" + suffix))
    return tuples


def kernel_operands(dim):
    """A dense, a banded and a finitely supported operand."""
    rng = np.random.default_rng(29)
    i, j = np.indices((dim, dim))
    finite = np.zeros((dim, dim), dtype=np.complex128)
    finite[:7, :7] = random_hermitian(rng, 7)
    return [random_hermitian(rng, dim),
            np.where(np.abs(i - j) <= 3, random_hermitian(rng, dim), 0),
            finite]


@pytest.mark.parametrize("name, tau", kernel_tuples())
def test_commutator_matches_dense_reference(name, tau):
    for s in kernel_operands(tau.dimension):
        for t, got in zip(tau.matrices, commutator_tuple(tau, s)):
            want = t @ s - s @ t
            if name == "dense":  # bandwidth N - 1 takes the dense products
                assert np.array_equal(got, want)
            scale = operator_norm(t) * operator_norm(s)
            assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("name, tau", kernel_tuples())
def test_commutator_bitwise_on_diagonal_operands(name, tau):
    # Ramp units are real diagonal; their commutator norms (k-estimate
    # ramps, schedule commutator norms) must not move in the last bit.
    dim = tau.dimension
    rng = np.random.default_rng(30)
    ramp = np.diag(np.clip(np.linspace(1.5, -0.5, dim), 0.0, 1.0))
    ramp[dim // 2:] = 0.0  # finite support: the corner route
    operands = [ramp, np.diag(rng.standard_normal(dim))]
    if name in {spec.name for spec in MODELS}:
        # built-in entries are real or imaginary, so complex products are
        # exact roundings too; a general complex T may differ by an ulp
        operands.append(np.diag(rng.standard_normal(dim)
                                + 1j * rng.standard_normal(dim)))
    for s in operands:
        for t, got in zip(tau.matrices, commutator_tuple(tau, s)):
            assert np.array_equal(got, t @ s - s @ t)


@pytest.mark.parametrize("c", [20, 100], ids=["dense-corner", "diagonal-corner"])
@pytest.mark.parametrize("spec", MODELS, ids=lambda s: s.name)
def test_band_commutator_on_a_leading_corner(spec, c):
    # The full T with a c x c operand supported in its leading c - b block,
    # as qau, functionals and lebesgue call the kernel.
    rng = np.random.default_rng(31)
    tau = instantiate_model(spec, 160)
    b = tau.bandwidth
    s = np.zeros((160, 160), dtype=np.complex128)
    s[:c - b, :c - b] = random_hermitian(rng, c - b)
    for t in tau.matrices:
        got = band_commutator(t, s[:c, :c], b)
        want = (t @ s - s @ t)[:c, :c]
        assert got.shape == (c, c)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_commutator_dimension_mismatch():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 8)
    with pytest.raises(ValueError):
        commutator_tuple(tau, np.eye(5))


def test_truncation_exactness_across_dimensions():
    # With S supported in the first r coordinates and r + bandwidth within
    # the instantiation, commutators agree entrywise across dimensions.
    rng = np.random.default_rng(22)
    spec = OperatorModelSpec(name="lap-pos")
    small = instantiate_model(spec, 12)
    big = instantiate_model(spec, 30)
    r = 8
    s_small = np.zeros((12, 12), dtype=np.complex128)
    s_small[:r, :r] = random_hermitian(rng, r)
    s_big = np.zeros((30, 30), dtype=np.complex128)
    s_big[:r, :r] = s_small[:r, :r]
    for a, b in zip(commutator_tuple(small, s_small), commutator_tuple(big, s_big)):
        assert np.array_equal(np.asarray(a), np.asarray(b)[:12, :12])
        assert np.all(np.asarray(b)[12:, :] == 0)
        assert np.all(np.asarray(b)[:, 12:] == 0)


def test_leibniz_rule():
    rng = np.random.default_rng(23)
    tau = HermitianTuple.from_matrices([random_hermitian(rng, 6)])
    s = random_hermitian(rng, 6)
    r = random_hermitian(rng, 6)
    t = tau.matrices[0]
    lhs = commutator_tuple(tau, s @ r)[0]
    rhs = (t @ s - s @ t) @ r + s @ (t @ r - r @ t)
    assert np.abs(lhs - rhs).max() < 1e-10


# -------------------------------------------------------- tuple norms


def test_tuple_gauge_norm_examples():
    g = schatten(1)
    zero = np.zeros((2, 2))
    assert tuple_gauge_norm([zero, zero], g) == 0.0
    assert tuple_gauge_norm([np.diag([1.0]), np.diag([2.0])], g) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        tuple_gauge_norm([], g)


def test_tuple_gauge_norm_is_componentwise_max():
    rng = np.random.default_rng(24)
    g = schatten(2)
    mats = [rng.standard_normal((5, 5)) for _ in range(3)]
    want = max(gauge_norm(g, m) for m in mats)
    assert tuple_gauge_norm(mats, g) == pytest.approx(want, rel=1e-12)


def test_e_norms_on_identity_and_zero():
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 8)
    g = schatten(2)
    eye = np.eye(8, dtype=np.complex128)
    assert e_norm_sum(tau, g, eye) == pytest.approx(1.0, abs=1e-12)
    assert e_norm_max(tau, g, eye) == pytest.approx(1.0, abs=1e-12)
    assert e_norm_max(tau, g, np.zeros((8, 8))) == 0.0


def test_e_norm_on_commuting_diagonal():
    tau = instantiate_model(OperatorModelSpec(name="diagonal-grid", n=2), 6)
    s = np.diag(np.linspace(-1.0, 1.0, 6))
    assert e_norm_sum(tau, schatten(1), s) == pytest.approx(operator_norm(s), abs=1e-12)


def test_e_norm_max_recomputed_independently():
    rng = np.random.default_rng(25)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 10)
    g = schatten(2)
    for _ in range(5):
        s = random_hermitian(rng, 10)
        want = operator_norm(s)
        for t in tau.matrices:
            t = np.asarray(t)
            want = max(want, gauge_norm(g, t @ s - s @ t))
        assert e_norm_max(tau, g, s) == pytest.approx(want, abs=1e-10)


def test_norm_equivalence_and_involution():
    rng = np.random.default_rng(26)
    tau = instantiate_model(OperatorModelSpec(name="shift-parts"), 9)
    g = ky_fan(2)
    for _ in range(10):
        s = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        lo = e_norm_max(tau, g, s)
        hi = e_norm_sum(tau, g, s)
        assert lo <= hi <= 2 * lo + 1e-12
        assert abs(e_norm_sum(tau, g, s.conj().T) - hi) <= 1e-12


def test_e_norm_submultiplicative():
    rng = np.random.default_rng(27)
    tau = instantiate_model(OperatorModelSpec(name="lap-pos"), 8)
    g = schatten(2)
    for _ in range(10):
        s = rng.standard_normal((8, 8))
        t = rng.standard_normal((8, 8))
        lhs = e_norm_sum(tau, g, s @ t)
        rhs = e_norm_sum(tau, g, s) * e_norm_sum(tau, g, t)
        assert lhs <= rhs * (1 + 1e-9)
