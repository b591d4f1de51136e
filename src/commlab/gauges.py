"""Symmetric gauge norms on singular values.

A gauge assigns a norm to a matrix through its nonincreasing sequence of
singular values.  Implemented families: Schatten p-norms, Ky Fan k-norms,
the sup gauge (operator norm), and the duals of the Ky Fan norms, which are
needed so that conjugation stays inside the implemented families.

Every gauge here is normalized so that the sequence (1, 0, 0, ...) has
value 1.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """

    family: str
    p: float | None = None
    k: int | None = None
    label: str = ""
    notes: str = ""

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
    t = _as_sorted_values(values)
    if t.size == 0:
        return 0.0
    if gauge.family == SCHATTEN:
        if gauge.p == 1:
            return float(t.sum())
        if gauge.p == 2:
            return float(np.sqrt((t * t).sum()))
        return float((t ** gauge.p).sum() ** (1.0 / gauge.p))
    if gauge.family == KY_FAN:
        return float(t[: gauge.k].sum())
    if gauge.family == KY_FAN_DUAL:
        return float(max(t[0], t.sum() / gauge.k))
    return float(t[0])


def singular_values(matrix) -> np.ndarray:
    """Nonincreasing singular values of a square matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return np.linalg.svd(m, compute_uv=False)


def gauge_norm(gauge: GaugeSpec, matrix) -> float:
    """Gauge norm of a matrix: the gauge applied to its singular values."""
    m = np.asarray(matrix)
    if gauge.family == SCHATTEN and gauge.p == 2:
        # Frobenius route, identical value without the factorization.
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if m.size and not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        return float(np.linalg.norm(m))
    return gauge_value(gauge, singular_values(m))


def operator_norm(matrix) -> float:
    """Largest singular value."""
    s = singular_values(matrix)
    return float(s[0]) if s.size else 0.0


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


def norm_subgradient(gauge: GaugeSpec, matrix) -> np.ndarray:
    """A dual-aligned subgradient D of the gauge norm at `matrix`.

    D satisfies Re<D, M> = |M|_gauge with conjugate gauge norm of D at most
    one; it is built as U f(sigma) V* from the singular value decomposition.
    Returns the zero matrix when `matrix` vanishes.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    u, s, vh = np.linalg.svd(m)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(m)
    f = np.zeros_like(s)
    if gauge.family == SCHATTEN:
        if gauge.p == 1:
            f[s > 1e-14 * s[0]] = 1.0
        else:
            value = gauge_value(gauge, s)
            f = (s / value) ** (gauge.p - 1.0)
    elif gauge.family == KY_FAN:
        f[: gauge.k] = 1.0
    elif gauge.family == KY_FAN_DUAL:
        if s[0] >= s.sum() / gauge.k:
            f[0] = 1.0
        else:
            f[:] = 1.0 / gauge.k
    else:  # sup
        f[0] = 1.0
    return (u * f) @ vh
