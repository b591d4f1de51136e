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

# Boundary note attached to the conjugate of the trace gauge: pairing the
# trace class with the sup gauge is the one case where the usual dual-space
# identification breaks down.  Finite matrices still evaluate fine.
_TRACE_SUP_BOUNDARY = (
    "boundary pairing: dual of the trace gauge; the dual-space "
    "identification excludes this pair, finite evaluations remain valid"
)


@dataclass(frozen=True)
class GaugeSpec:
    """One member of the implemented gauge families.

    `p` is set for the schatten family, `k` for ky-fan and ky-fan-dual.
    At finite matrix size every operator has finite rank, so the usual
    distinction between a normed ideal and the closure of the finite-rank
    operators inside it is vacuous here: every family is mononorming.
    Two specs are equal when they name the same norm: `label` and `notes`
    describe it and take no part in comparison or hashing.
    """

    family: str
    p: float | None = None
    k: int | None = None
    label: str = field(default="", compare=False)
    notes: str = field(default="", compare=False)

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
    if t.size and t.min() < -1e-12:
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


def _finite(m: np.ndarray) -> np.ndarray:
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


_SMALLEST_NORMAL = np.finfo(float).tiny
_LARGEST = float(np.finfo(float).max)


def _largest_parts(m: np.ndarray) -> np.ndarray:
    """The largest |real or imaginary part| of each matrix on the last two axes, 0 when empty.

    max and min land on any nan, so it is finite exactly when the entries are; a
    matrix with a non-finite entry is refused here.
    """
    parts = np.ascontiguousarray(m)
    if parts.dtype.kind == "c":
        parts = parts.view(parts.real.dtype)  # real and imaginary parts side by side
    top = np.maximum(parts.max(axis=(-2, -1), initial=0.0),
                     -parts.min(axis=(-2, -1), initial=0.0))
    if not np.isfinite(top).all():
        raise ValueError("matrix entries must be finite")
    return top


def _power_of_two_at(top: np.ndarray) -> np.ndarray:
    """The power of two 2**e with 2**e <= top < 2**(e + 1); 0.5 for top = 0."""
    return np.ldexp(1.0, np.frexp(top)[1] - 1)


def _divide(m: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """m / scale, for one scale or one per slice of a stack (shape (n, 1, 1)).

    numpy divides a complex array through 1/scale, which overflows for a
    subnormal scale; slices with such a scale are divided part by part.
    """
    if not np.iscomplexobj(m) or scale.min() >= _SMALLEST_NORMAL:
        return m / scale
    normal = scale >= _SMALLEST_NORMAL
    return np.where(normal, m / np.where(normal, scale, 1.0),
                    m.real / scale + 1j * (m.imag / scale))


def _frobenius(m: np.ndarray) -> float:
    """|M|_F, rescaled only when the direct sum of squares would over- or underflow.

    It is decided before any sum from the largest real or imaginary part, which stays
    finite where the largest modulus overflows (argmax and argmin: no temporary array).
    The scale is finite exactly when the entries are: argmax and argmin land on any nan.
    """
    x = m.ravel()
    parts = x.view(x.real.dtype) if x.dtype.kind == "c" else x  # real and imaginary parts
    scale = max(parts[parts.argmax()], -parts[parts.argmin()]) if parts.size else 0.0
    s = float(scale)  # python floats: these products may overflow without a warning
    if not math.isfinite(s):
        raise ValueError("matrix entries must be finite")
    if s * s > 0.0 and s * s * parts.size <= _LARGEST / 2:
        return float(np.linalg.norm(m))
    if s == 0.0:
        return s
    return s * float(np.linalg.norm(_divide(m, scale)))


def _svd_scales(m: np.ndarray, s: np.ndarray) -> np.ndarray | None:
    """What to divide each matrix of m by, from its singular values s, or None for none.

    A gauge value is at most c * sigma_1, so it stays in range where sigma_1 is at
    most half the largest float over c: those matrices keep the bits of their direct
    SVD (scale 1.0).  Where sigma_1 exceeds that, or came out nan or inf, as LAPACK
    returns it once a singular value overflows, the scale is the power of two at the
    matrix's largest part.
    """
    limit = _LARGEST / 2 / max(m.shape[-1], 1)
    if s.max(initial=0.0) <= limit:  # false for nan
        return None
    return np.where(s[..., 0] <= limit, 1.0, _power_of_two_at(_largest_parts(m)))


def _scaled_singular_values(matrix) -> tuple[np.ndarray, float]:
    """The nonincreasing singular values of M / scale, and the scale of `_svd_scales`."""
    m = _finite(_square(matrix))
    s = np.linalg.svd(m, compute_uv=False)
    scale = _svd_scales(m, s)
    if scale is None:
        return s, 1.0
    return np.linalg.svd(_divide(m, scale), compute_uv=False), float(scale)


def singular_values(matrix) -> np.ndarray:
    """Nonincreasing singular values of a square matrix; inf where one exceeds the float range."""
    s, scale = _scaled_singular_values(matrix)
    if scale == 1.0:
        return s
    with np.errstate(over="ignore"):  # a singular value beyond the float range is inf
        return s * scale


def gauge_norm(gauge: GaugeSpec, matrix) -> float:
    """Gauge norm of a matrix: the gauge applied to its singular values; inf beyond the float range."""
    if gauge.family == SCHATTEN and gauge.p == 2:
        # Frobenius route, identical value without the factorization.
        return _frobenius(_square(matrix))
    s, scale = _scaled_singular_values(matrix)
    # python floats: a value beyond the float range becomes inf without a warning
    return gauge_value(gauge, s) * scale


def support_size(matrix: np.ndarray) -> int:
    """Smallest s such that the matrix vanishes outside its leading s-corner."""
    m = np.asarray(matrix)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        return 0
    cols = np.flatnonzero(m.any(axis=0))
    return int(max(rows[-1], cols[-1])) + 1


def diagonal_or_none(matrix: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square matrix that vanishes off it, else None."""
    diagonal = np.diagonal(matrix)
    return diagonal if np.array_equal(matrix, np.diag(diagonal)) else None


def operator_norm(matrix) -> float:
    """Largest singular value, taken on the matrix's support corner.

    Zero padding adds only zero singular values, so the corner has the same
    largest one.  A diagonal corner gives it as max |d|, an exactly hermitian
    one as max |lambda| from `eigvalsh` (0.08 s against the SVD's 0.13 s at
    N = 512, one BLAS thread), any other corner as its first singular value.
    """
    m = _finite(_square(matrix))
    size = support_size(m)
    if not size:
        return 0.0
    corner = m[:size, :size]
    diagonal = diagonal_or_none(corner)
    if diagonal is not None:
        return float(np.abs(diagonal).max())
    if np.array_equal(corner, corner.conj().T):
        lam = np.linalg.eigvalsh(corner)
        return float(max(-lam[0], lam[-1]))
    return float(singular_values(corner)[0])


def conjugate_gauge(gauge: GaugeSpec) -> GaugeSpec:
    """The conjugate (trace-duality) gauge.

    schatten p > 1 maps to schatten p/(p-1); the trace gauge maps to the sup
    gauge (marked as the boundary pairing in `notes`); the sup gauge maps to
    the trace gauge; ky-fan k maps to t -> max(t_1, (sum t_i)/k) and back.
    """
    if gauge.family == SCHATTEN:
        if gauge.p == 1:
            return GaugeSpec(family=SUP, notes=_TRACE_SUP_BOUNDARY)
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
    with the value read from its sorted sigma.  A value beyond the float
    range is inf, with a finite D.  D is real when M is.  M may be a stack
    of shape (n, c, c): then the values come as an array and D as a stack,
    each slice with the bits of its own call.
    """
    m = _square(matrix, ndims=(2, 3))
    m = m.astype(np.promote_types(m.dtype, float), copy=False)
    stack = m if m.ndim == 3 else m[None]
    if gauge.family == SCHATTEN and gauge.p == 2:
        values = [_frobenius(x) for x in stack]
        d = _divide(stack, np.array([v if v > 0.0 else 1.0 for v in values]).reshape(-1, 1, 1))
    elif gauge.family == SUP:
        values, d = _sup_value_and_subgradient(stack)
    else:
        u, s, vh = np.linalg.svd(_finite(stack))
        scales = _svd_scales(stack, s)
        if scales is not None:
            u, s, vh = np.linalg.svd(_divide(stack, scales.reshape(-1, 1, 1)))
        values = [_sorted_gauge_value(gauge, x) for x in s]
        d = (u * _subgradient_weights(gauge, s, values)[:, None, :]) @ vh
        if scales is not None:
            # python floats: a value beyond the float range becomes inf without a warning
            values = [v * float(k) for v, k in zip(values, scales)]
    return (np.array(values), d) if m.ndim == 3 else (values[0], d[0])


def _sup_value_and_subgradient(stack: np.ndarray) -> tuple[list[float], np.ndarray]:
    """sigma_1 and D = u v* of each slice, from one `eigh` of its Gram matrix.

    Each slice is first divided by the power of two at its largest part, exactly,
    so that its Gram matrix neither overflows nor underflows.
    """
    scales = _power_of_two_at(_largest_parts(stack))
    x = _divide(stack, scales.reshape(-1, 1, 1))
    lam, w = np.linalg.eigh(x.conj().transpose(0, 2, 1) @ x)
    sigma = np.sqrt(lam.max(axis=-1, initial=0.0))  # 0 for a 0 x 0 slice
    v = w[:, :, -1:]  # the top eigenvectors, as columns
    u = (x @ v) / np.where(sigma > 0.0, sigma, 1.0).reshape(-1, 1, 1)  # 0 where M vanishes
    d = u * v.conj().transpose(0, 2, 1)
    # python floats: a value beyond the float range becomes inf without a warning
    return [float(s) * float(k) for s, k in zip(sigma, scales)], d


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
