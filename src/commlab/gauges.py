"""Symmetric gauge norms on singular values.

A gauge assigns a norm to a matrix through its nonincreasing sequence of
singular values.  Implemented families: Schatten p-norms, Ky Fan k-norms,
the sup gauge (operator norm), and the duals of the Ky Fan norms, which are
needed so that conjugation stays inside the implemented families.

Every gauge here is normalized so that the sequence (1, 0, 0, ...) has
value 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import numpy as np

SCHATTEN = "schatten"
KY_FAN = "ky-fan"
SUP = "sup"
KY_FAN_DUAL = "ky-fan-dual"

_FAMILIES = (SCHATTEN, KY_FAN, SUP, KY_FAN_DUAL)


@dataclass(frozen=True)
class GaugeSpec:
    """One member of the implemented gauge families.

    `p` is set for the schatten family, `k` for ky-fan and ky-fan-dual.
    At finite matrix size every operator has finite rank, so the usual
    distinction between a normed ideal and the closure of the finite-rank
    operators inside it is vacuous here: every family is mononorming.
    Two specs are equal when they name the same norm: `label` describes it
    and takes no part in comparison or hashing.
    """

    family: str
    p: float | None = None
    k: int | None = None
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown gauge family {self.family!r}")
        if self.family == SCHATTEN:
            if self.p is None or not np.isfinite(self.p) or self.p < 1:
                raise ValueError("schatten gauge needs a real exponent p >= 1")
            if self.k is not None:
                raise ValueError("schatten gauge takes no order k")
        elif self.family in (KY_FAN, KY_FAN_DUAL):
            if self.k is None or int(self.k) != self.k or self.k < 1:
                raise ValueError(f"{self.family} gauge needs a positive integer order k")
            if self.p is not None:
                raise ValueError(f"{self.family} gauge takes no exponent p")
        else:  # sup
            if self.p is not None or self.k is not None:
                raise ValueError("sup gauge takes no parameters")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.family == SCHATTEN:
            return f"schatten-{self.p:g}"
        if self.family == SUP:
            return "sup"
        return f"{self.family}-{self.k}"


def _check_gauge(gauge: GaugeSpec, **inputs) -> None:
    """Refuse each named input (trace parts, test operators, schedules) carrying another gauge."""
    for name, carriers in inputs.items():
        if any(c.gauge != gauge for c in carriers):
            raise ValueError(f"{name.replace('_', ' ')} is in another gauge than {gauge.label}")


def _check_tuple(tau, **inputs) -> None:
    """Refuse each named input (test operators, schedules) measured on a tuple other
    than tau: not tau itself and not of equal diagonals."""
    for name, carriers in inputs.items():
        if any(c.tau is not tau and not np.array_equal(c.tau.diagonals, tau.diagonals)
               for c in carriers):
            raise ValueError(f"{name.replace('_', ' ')} was measured on another tuple")


def schatten(p: float) -> GaugeSpec:
    return GaugeSpec(family=SCHATTEN, p=float(p))


def ky_fan(k: int) -> GaugeSpec:
    return GaugeSpec(family=KY_FAN, k=int(k))


def sup_gauge() -> GaugeSpec:
    return GaugeSpec(family=SUP)


def ky_fan_dual(k: int) -> GaugeSpec:
    return GaugeSpec(family=KY_FAN_DUAL, k=int(k))


def _as_sorted_values(values) -> np.ndarray:
    t = np.asarray(values, dtype=float).ravel()
    if t.size and not t.min() >= -1e-12:  # nan compares false, so it is refused too
        raise ValueError("gauge arguments must be nonnegative")
    t = np.clip(t, 0.0, None)
    # Symmetric gauges only see the multiset of values; sort defensively so
    # slightly unordered inputs evaluate canonically.
    return -np.sort(-t)


def gauge_value(gauge: GaugeSpec, values) -> float:
    """Evaluate the gauge on a nonnegative, nonincreasing sequence."""
    return _sorted_gauge_value(gauge, _as_sorted_values(values))


def _sorted_gauge_value(gauge: GaugeSpec, t: np.ndarray) -> float:
    """The gauge of t, already nonnegative and nonincreasing (as an SVD returns it)."""
    if t.size == 0:
        return 0.0
    if gauge.family == SCHATTEN:
        if gauge.p == 1:
            return float(t.sum())
        if t[0] == 0 or np.isinf(t[0]):
            return float(t[0])
        # scaled by the largest value so that t ** p cannot overflow
        return float(t[0] * ((t / t[0]) ** gauge.p).sum() ** (1.0 / gauge.p))
    if gauge.family == KY_FAN:
        return float(t[: gauge.k].sum())
    if gauge.family == KY_FAN_DUAL:
        return float(max(t[0], t.sum() / gauge.k))
    return float(t[0])


def _square(matrix, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim not in ndims or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    return m


_SMALLEST_NORMAL = np.finfo(float).tiny
_LARGEST = float(np.finfo(float).max)
_SMALLEST_SQUARABLE = math.sqrt(_SMALLEST_NORMAL / np.finfo(float).eps)  # about 1.5e-146


def _range_scale(m: np.ndarray, squares: bool) -> float:
    """What to divide the matrix m by so that its norm is taken in the float range.

    Decided before any factorization from the largest real or imaginary part s of
    m's n entries (argmax and argmin: no temporary array; they land on any nan, so s
    is finite exactly when the entries are, and a non-finite entry is refused).  An
    SVD is in range when 2 n s is at most the largest float, so that no gauge value
    can overflow; a route that sums squares (Frobenius, Gram) also needs 2 n s**2
    finite and s >= sqrt(tiny / eps), so that no square goes subnormal.  In range,
    or for a zero matrix, the scale is 1.0 and the matrix keeps its bits; otherwise
    it is the power of two at s, which divides m exactly.
    """
    x = m.ravel()
    parts = x.view(x.real.dtype) if x.dtype.kind == "c" else x  # real and imaginary parts
    s = float(max(parts[parts.argmax()], -parts[parts.argmin()])) if parts.size else 0.0
    if not math.isfinite(s):
        raise ValueError("matrix entries must be finite")
    # python floats: these products may overflow without a warning; for s < 1,
    # 2 n s is always in range, and for s >= 1 it is at most 2 n s**2
    if squares:
        in_range = 2 * x.size * s * s <= _LARGEST and s >= _SMALLEST_SQUARABLE
    else:
        in_range = 2 * x.size * s <= _LARGEST
    if s == 0.0 or in_range:
        return 1.0
    return math.ldexp(1.0, math.frexp(s)[1] - 1)


def _divide(m: np.ndarray, scale: float) -> np.ndarray:
    """m / scale, and m itself for scale 1.0.

    numpy divides a complex array through 1/scale, which overflows for a
    subnormal scale; then m is divided part by part.
    """
    if scale == 1.0:
        return m
    if scale >= _SMALLEST_NORMAL or not np.iscomplexobj(m):
        return m / scale
    return m.real / scale + 1j * (m.imag / scale)


def _frobenius(m: np.ndarray) -> float:
    """|M|_F, from M divided by its `_range_scale`."""
    scale = _range_scale(m, squares=True)
    # python floats: a value beyond the float range becomes inf without a warning
    return float(np.linalg.norm(_divide(m, scale))) * scale


def _scaled_singular_values(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The nonincreasing singular values of M / scale, for any 2-D M, and its `_range_scale`."""
    scale = _range_scale(m, squares=False)
    return np.linalg.svd(_divide(m, scale), compute_uv=False), scale


def _rect_norm(gauge: GaugeSpec, m: np.ndarray) -> float:
    """The gauge of the singular values of any 2-D M, taken on M / its `_range_scale`:
    a rectangle's gauge norm; inf beyond the float range."""
    s, scale = _scaled_singular_values(m)
    # python floats: a value beyond the float range becomes inf without a warning
    return _sorted_gauge_value(gauge, s) * scale


def singular_values(matrix) -> np.ndarray:
    """Nonincreasing singular values of a square matrix; inf where one exceeds the float range.

    A matrix beyond the range of `_range_scale` is factored once, divided by the
    power of two at its largest part; every other matrix keeps the bits of its SVD.
    """
    s, scale = _scaled_singular_values(_square(matrix))
    if scale == 1.0:
        return s
    with np.errstate(over="ignore"):  # a singular value beyond the float range is inf
        return s * scale


def gauge_norm(gauge: GaugeSpec, matrix) -> float:
    """Gauge norm of a matrix: the gauge applied to its singular values; inf beyond the float range."""
    m = _square(matrix)
    if gauge.family == SCHATTEN and gauge.p == 2:
        # Frobenius route, identical value without the factorization.
        return _frobenius(m)
    return _rect_norm(gauge, m)


def support_size(matrix: np.ndarray) -> int:
    """Smallest s such that the matrix vanishes outside its leading s-corner."""
    m = np.asarray(matrix)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        return 0
    cols = np.flatnonzero(m.any(axis=0))
    return int(max(rows[-1], cols[-1])) + 1


def diagonal_or_none(matrix: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square matrix that vanishes off it, else None (also for a NaN
    on it): its nonzero entries are those of the diagonal, counted without a copy."""
    diagonal = np.diagonal(matrix)
    if matrix.shape[0] != matrix.shape[1] or np.isnan(diagonal).any():
        return None
    return diagonal if np.count_nonzero(matrix) == np.count_nonzero(diagonal) else None


def operator_norm(matrix) -> float:
    """Largest singular value, taken on the matrix's support corner.

    Zero padding adds only zero singular values, so the corner has the same
    largest one.  A diagonal corner gives it as max |d|, an exactly hermitian
    one as max |lambda| from `eigvalsh` (0.08 s against the SVD's 0.13 s at
    N = 512, one BLAS thread), any other corner as its first singular value.
    Each route works on the corner divided by its `_range_scale` (1.0 in range,
    so the corner keeps its bits) and multiplies the value back: inf beyond the
    float range.
    """
    m = _square(matrix)
    size = support_size(m)  # a non-finite entry is nonzero, so it lies in the corner
    if not size:
        return 0.0
    corner = m[:size, :size]
    scale = _range_scale(corner, squares=False)
    corner = _divide(corner, scale)
    diagonal = diagonal_or_none(corner)
    if diagonal is not None:
        top = np.abs(diagonal).max()
    elif np.array_equal(corner, corner.conj().T):
        lam = np.linalg.eigvalsh(corner)
        top = max(-lam[0], lam[-1])
    else:
        top = np.linalg.svd(corner, compute_uv=False)[0]
    # python floats: a value beyond the float range becomes inf without a warning
    return float(top) * scale


def conjugate_gauge(gauge: GaugeSpec) -> GaugeSpec:
    """The conjugate (trace-duality) gauge.

    schatten p > 1 maps to schatten p/(p-1); the trace gauge maps to the sup
    gauge and back; ky-fan k maps to t -> max(t_1, (sum t_i)/k) and back.
    The trace/sup pair is the boundary pairing: the dual-space identification
    excludes it, but finite evaluations remain valid.
    """
    if gauge.family == SCHATTEN:
        if gauge.p == 1:
            return sup_gauge()
        return schatten(gauge.p / (gauge.p - 1.0))
    if gauge.family == SUP:
        return schatten(1.0)
    if gauge.family == KY_FAN:
        return ky_fan_dual(gauge.k)
    return ky_fan(gauge.k)


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    ok: bool


def holder_check(x, y, gauge: GaugeSpec) -> HolderReport:
    """Check |Tr(XY)| <= |X|_gauge * |Y|_conjugate on one pair."""
    xm = np.asarray(x)
    ym = np.asarray(y)
    if xm.shape != ym.shape or xm.ndim != 2 or xm.shape[0] != xm.shape[1]:
        raise ValueError("holder_check needs two square matrices of equal shape")
    lhs = float(abs(np.trace(xm @ ym)))
    rhs = gauge_norm(gauge, xm) * gauge_norm(conjugate_gauge(gauge), ym)
    return HolderReport(lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-9 * (1.0 + rhs))


def norm_value_and_subgradient(gauge: GaugeSpec,
                               matrix) -> tuple[float | np.ndarray, np.ndarray]:
    """The gauge norm of M and a dual-aligned subgradient D, from one factorization.

    Re<D, M> = |M|_gauge and D has conjugate gauge norm at most one; D = 0
    when M vanishes.  Schatten-2 takes D = M / |M|_F with no factorization.
    The sup gauge takes sigma_1 and D = u v* from one `eigh` of the Gram
    matrix M*M: v is its top eigenvector, sigma_1 = sqrt(lambda_max) and
    u = M v / sigma_1, so no SVD and no c x c x c product is formed.  The
    other gauges need every singular vector: D = U f(sigma) V* from one SVD,
    with the value read from its sorted sigma.  Every route works on M divided
    by its `_range_scale` (1.0 in range, so M keeps the bits of its direct
    factorization; the Frobenius and Gram routes sum squares) and multiplies
    the value back once: a value beyond the float range is inf, with a finite
    D.  D is real when M is.  M may be a stack of shape (n, c, c): then the
    values come as an array and D as a stack, each slice scaled on its own and
    with the bits of its own call.
    """
    m = _square(matrix, ndims=(2, 3))
    m = m.astype(np.promote_types(m.dtype, float), copy=False)
    stack = m if m.ndim == 3 else m[None]
    frobenius = gauge.family == SCHATTEN and gauge.p == 2
    squares = frobenius or gauge.family == SUP
    scales = [_range_scale(x, squares) for x in stack]
    if scales.count(1.0) != len(scales):
        stack = np.stack([_divide(x, k) for x, k in zip(stack, scales)])
    if frobenius:
        values = [float(np.linalg.norm(x)) for x in stack]
        d = stack / np.array([v if v > 0.0 else 1.0 for v in values]).reshape(-1, 1, 1)
    elif gauge.family == SUP:
        values, d = _sup_value_and_subgradient(stack)
    else:
        u, s, vh = np.linalg.svd(stack)
        values = [_sorted_gauge_value(gauge, x) for x in s]
        d = (u * _subgradient_weights(gauge, s, values)[:, None, :]) @ vh
    # python floats: a value beyond the float range becomes inf without a warning
    values = [v * k for v, k in zip(values, scales)]
    return (np.array(values), d) if m.ndim == 3 else (values[0], d[0])


def _sup_value_and_subgradient(stack: np.ndarray) -> tuple[list[float], np.ndarray]:
    """sigma_1 and D = u v* of each slice, from one `eigh` of its Gram matrix."""
    lam, w = np.linalg.eigh(stack.conj().transpose(0, 2, 1) @ stack)
    sigma = np.sqrt(lam.max(axis=-1, initial=0.0))  # 0 for a 0 x 0 slice
    v = w[:, :, -1:]  # the top eigenvectors, as columns
    u = (stack @ v) / np.where(sigma > 0.0, sigma, 1.0).reshape(-1, 1, 1)  # 0 where M vanishes
    return [float(s) for s in sigma], u * v.conj().transpose(0, 2, 1)


def _subgradient_weights(gauge: GaugeSpec, s: np.ndarray, values: list[float]) -> np.ndarray:
    """f(sigma) for each row of the stacked singular values s, zero where sigma vanishes."""
    if gauge.family == SCHATTEN:
        if gauge.p == 1:
            return (s > 1e-14 * s[:, :1]).astype(float)
        scale = np.array([v if v > 0.0 else 1.0 for v in values]).reshape(-1, 1)
        return (s / scale) ** (gauge.p - 1.0)
    f = np.zeros_like(s)
    if gauge.family == KY_FAN:
        f[:, : gauge.k] = 1.0
    else:  # ky-fan-dual
        top = s[:, :1] >= s.sum(axis=1, keepdims=True) / gauge.k
        f[:] = np.where(top, 0.0, 1.0 / gauge.k)
        f[:, :1] += top
    return f * (s[:, :1] > 0.0)


def norm_subgradient(gauge: GaugeSpec, matrix) -> np.ndarray:
    """The subgradient D of `norm_value_and_subgradient`, without the value."""
    return norm_value_and_subgradient(gauge, matrix)[1]
