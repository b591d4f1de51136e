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


def singular_values(matrix) -> np.ndarray:
    """Nonincreasing singular values of a square matrix."""
    return np.linalg.svd(_finite(_square(matrix)), compute_uv=False)


def gauge_norm(gauge: GaugeSpec, matrix) -> float:
    """Gauge norm of a matrix: the gauge applied to its singular values."""
    if gauge.family == SCHATTEN and gauge.p == 2:
        # Frobenius route, identical value without the factorization.
        return _frobenius(_square(matrix))
    return gauge_value(gauge, singular_values(matrix))


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
    return float(np.linalg.svd(corner, compute_uv=False)[0])


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
    when M vanishes.  Schatten-2 takes D = M / |M|_F with no SVD; other
    gauges take D = U f(sigma) V* and read the value from the SVD's sorted
    sigma.  D is real when M is.  M may be a stack of shape (n, c, c): then
    the values come as an array and D as a stack, each slice with the bits
    of its own call.
    """
    m = _square(matrix, ndims=(2, 3))
    m = m.astype(np.promote_types(m.dtype, float), copy=False)
    stack = m if m.ndim == 3 else m[None]
    if gauge.family == SCHATTEN and gauge.p == 2:
        values = [_frobenius(x) for x in stack]
        d = _divide(stack, np.array([v if v > 0.0 else 1.0 for v in values]).reshape(-1, 1, 1))
    else:
        u, s, vh = np.linalg.svd(_finite(stack))
        values = [_sorted_gauge_value(gauge, x) for x in s]
        d = (u * _subgradient_weights(gauge, s, values)[:, None, :]) @ vh
    return (np.array(values), d) if m.ndim == 3 else (values[0], d[0])


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
    elif gauge.family == KY_FAN_DUAL:
        top = s[:, :1] >= s.sum(axis=1, keepdims=True) / gauge.k
        f[:] = np.where(top, 0.0, 1.0 / gauge.k)
        f[:, :1] += top
    else:  # sup
        f[:, :1] = 1.0
    return f * (s[:, :1] > 0.0)


def norm_subgradient(gauge: GaugeSpec, matrix) -> np.ndarray:
    """The subgradient D of `norm_value_and_subgradient`, without the value."""
    return norm_value_and_subgradient(gauge, matrix)[1]
