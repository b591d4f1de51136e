"""Functionals on truncated operator tuples: trace parts, tail states, preduals.

A trace part is a pair (X, (Y_j)) of finitely supported matrices pairing with
a test operator S as

    phi(S) = Tr(S X) + sum_j Tr(Y_j [T_j, S]),

which collapses to a single trace against X - sum_j [T_j, Y_j].  A tail-state
part evaluates S along a marching sequence of density matrices and takes the
detected limit; it vanishes identically on finitely supported S once the
windows pass the support, which is what makes it singular.  Predual elements
are the same data considered modulo the subspace of pairs whose first slot is
a commutator sum, with the quotient norm bracketed from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import numpy as np

from .gauges import (GaugeSpec, _check_gauge, _check_tuple, conjugate_gauge, gauge_norm,
                     norm_value_and_subgradient, schatten)
from .idealops import HermitianTuple, band_commutator, embed
from .qau import _check_iterations, _descend
from .sampling import SampleSpec, TestOperator, generate_test_set

_TRACE_NORM = schatten(1.0)
DETECTION_RUN = 5
DETECTION_TOL = 1e-9
STATE_TOL = 1e-12
ADDITIVITY_SLACK = 1e-6


class NotConverged(Exception):
    """Limit detection failed on the finite sequence available."""

    def __init__(self, message: str, sequence=()):
        super().__init__(message)
        self.sequence = tuple(complex(v) for v in sequence)


def detect_limit(values, rule: str = "plain", tol: float = DETECTION_TOL) -> complex:
    """Detected limit of a finite sequence.

    plain: the last value, provided the final DETECTION_RUN consecutive
    deltas are below `tol` (so a finitely supported evaluation that has
    dropped to exact zero is detected as exactly zero).  cesaro: the same
    detection applied to running averages.  A non-finite value never settles,
    and a tolerance that is not positive and finite is refused.
    """
    _check_tolerance(tol)
    seq = [complex(v) for v in values]
    if rule == "cesaro":
        if bad := [v for v in seq if not np.isfinite(v)]:
            raise NotConverged(f"non-finite value {bad[0]} before the running means", values)
        seq = list(np.cumsum(seq) / np.arange(1, len(seq) + 1))
    elif rule != "plain":
        raise ValueError(f"unknown limit rule {rule!r}")
    if len(seq) < DETECTION_RUN + 1:
        raise NotConverged(
            f"need at least {DETECTION_RUN + 1} values, got {len(seq)}", values)
    tail = seq[-DETECTION_RUN - 1:]
    if bad := [v for v in tail if not np.isfinite(v)]:
        raise NotConverged(f"non-finite value {bad[0]} in the final run", values)
    if max(abs(a - b) for a, b in zip(tail[1:], tail)) >= tol:
        raise NotConverged(
            f"no stabilized tail of length {DETECTION_RUN} at tolerance {tol:g}", values)
    return seq[-1]


def _check_tolerance(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"detection tolerance must be positive and finite, got {tol!r}")


def _as_block(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("blocks must be square matrices")
    if not np.isfinite(m).all():
        raise ValueError("blocks must have finite entries")
    return m


@dataclass(frozen=True)
class TracePart:
    """Finitely supported pair (X, (Y_j)) with its gauge.

    The same pair stands for its class in the predual, modulo the pairs whose
    first slot is a commutator sum; `quotient_norm_bounds` brackets its norm.
    """

    x: np.ndarray
    ys: tuple[np.ndarray, ...]
    gauge: GaugeSpec

    def __post_init__(self):
        object.__setattr__(self, "x", _as_block(self.x))
        object.__setattr__(self, "ys", tuple(_as_block(y) for y in self.ys))

    @property
    def support(self) -> int:
        return max([self.x.shape[0]] + [y.shape[0] for y in self.ys])

    def reach(self, bandwidth: int) -> int:
        """max(sx, sy + b over the nonempty Y_j): the leading rows of S the pairing reads."""
        return max([self.x.shape[0]] + [y.shape[0] + bandwidth for y in self.ys if y.shape[0]])

    @classmethod
    def zero(cls, n: int, gauge: GaugeSpec) -> "TracePart":
        empty = np.zeros((0, 0), dtype=np.complex128)
        return cls(x=empty, ys=tuple(empty for _ in range(n)), gauge=gauge)


def _check_margin(tp: TracePart, tau: HermitianTuple, rows: int = 0) -> int:
    """max(rows, the reach of tp on tau), refused when the tuple is too small or short of slots."""
    if len(tp.ys) != tau.n:
        raise ValueError(f"trace part carries {len(tp.ys)} commutator slots, tuple has {tau.n}")
    need = max(rows, tp.reach(tau.bandwidth))
    if need > tau.dimension:
        raise ValueError(
            f"supports exceed instantiation: need dimension {need}, have {tau.dimension}")
    return need


def eval_trace_part(tp: TracePart, tau: HermitianTuple, s) -> complex:
    """Exact finite sum Tr(S X) + sum_j Tr(Y_j [T_j, S]).

    Only leading corners of S enter: the commutator entries on the support of
    Y_j depend on S through its (support + bandwidth) corner, because T_j is
    banded.  The value therefore does not change when S is re-instantiated at
    a larger dimension with the same corner.  It is constant on the class of
    tp modulo commutator-sum pairs.
    """
    reach = _check_margin(tp, tau)
    sm = np.asarray(s)
    if sm.shape != (tau.dimension, tau.dimension):
        raise ValueError("operand dimension does not match the tuple")
    sx, b = tp.x.shape[0], tau.bandwidth
    value = complex(np.trace(tp.x @ sm[:sx, :sx])) if sx else 0j
    for t, y in zip(tau.corner(reach), tp.ys):
        if sy := y.shape[0]:
            k = band_commutator(t, sm[:sy + b, :sy + b], b)
            value += complex(np.trace(y @ k[:sy, :sy]))
    return value


def reduce_to_trace(tp: TracePart, tau: HermitianTuple) -> np.ndarray:
    """Collapse the pair to the single matrix X - sum_j [T_j, Y_j].

    Evaluating any S against the result reproduces eval_trace_part exactly;
    starting from (X, 0) returns X unchanged.
    """
    reach = _check_margin(tp, tau)
    out = embed(tp.x, reach)  # complex128, the field of X
    for t, y in zip(tau.corner(reach), tp.ys):
        if sy := y.shape[0]:
            c = sy + tau.bandwidth
            out[:c, :c] -= band_commutator(t, embed(y, c), tau.bandwidth)
    return out


@dataclass(frozen=True)
class TailStateSpec:
    """Marching windows with a density matrix on each, and a limit rule."""

    windows: tuple[tuple[int, int], ...]  # 1-based inclusive (lo, hi)
    states: tuple[np.ndarray, ...]
    limit_rule: str = "plain"
    detection_tol: float = DETECTION_TOL

    def __post_init__(self):
        if self.limit_rule not in ("plain", "cesaro"):
            raise ValueError(f"unknown limit rule {self.limit_rule!r}")
        _check_tolerance(self.detection_tol)
        windows = tuple((int(lo), int(hi)) for lo, hi in self.windows)
        states = tuple(_as_block(rho) for rho in self.states)
        if not windows:
            raise ValueError("windows must not be empty")
        if len(windows) != len(states):
            raise ValueError("windows and states must have matching lengths")
        prev_lo = 0
        for (lo, hi), rho in zip(windows, states):
            if lo < 1 or hi < lo:
                raise ValueError(f"bad window ({lo}, {hi})")
            if lo <= prev_lo:
                raise ValueError("window starts must be strictly increasing")
            prev_lo = lo
            if rho.shape[0] != hi - lo + 1:
                raise ValueError("state block must match its window size")
            if abs(np.trace(rho) - 1.0) > STATE_TOL:
                raise ValueError("states must have unit trace")
            if np.linalg.norm(rho - rho.conj().T, 2) > STATE_TOL:
                raise ValueError("states must be hermitian")
            lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
            if lam[0] < -STATE_TOL:
                raise ValueError("states must be positive semidefinite")
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "states", states)


def coordinate_tail_states(positions, limit_rule: str = "plain",
                           detection_tol: float = DETECTION_TOL) -> TailStateSpec:
    """One-point windows at the given (strictly increasing) positions."""
    one = np.ones((1, 1), dtype=np.complex128)
    positions = tuple(int(p) for p in positions)
    return TailStateSpec(windows=tuple((p, p) for p in positions),
                         states=tuple(one for _ in positions),
                         limit_rule=limit_rule, detection_tol=detection_tol)


def eval_singular_part(ts: TailStateSpec, s) -> complex:
    """Detected limit of tr(rho_k S) along every window of the tail spec.

    Exactly zero for finitely supported S once the windows have passed the
    support, since every window block of S is then the zero matrix.  To
    evaluate along fewer windows, pass a spec holding only those.
    """
    sm = np.asarray(s)
    if sm.ndim != 2 or sm.shape[0] != sm.shape[1]:
        raise ValueError("operand must be a square matrix")
    deepest = max(hi for _, hi in ts.windows)
    if deepest > sm.shape[0]:
        raise ValueError(
            f"window end {deepest} exceeds the instantiated dimension {sm.shape[0]}")
    values = []
    for (lo, hi), rho in zip(ts.windows, ts.states):
        block = sm[lo - 1:hi, lo - 1:hi]
        values.append(complex(np.trace(rho @ block)))
    return detect_limit(values, ts.limit_rule, ts.detection_tol)


@dataclass(frozen=True)
class FunctionalSpec:
    """A functional with an optional trace part and an optional singular part."""

    trace_part: TracePart | None = None
    singular_part: TailStateSpec | None = None
    label: str = ""

    def __post_init__(self):
        if self.trace_part is None and self.singular_part is None:
            raise ValueError("a functional needs at least one part")


def eval_functional(phi: FunctionalSpec, tau: HermitianTuple, s) -> complex:
    """phi(S), its trace part's value plus its singular part's; NotConverged propagates.

    A singular part is evaluated along all of its windows.  The value is linear
    in phi: a combination of functionals takes the same combination of values.
    """
    return _eval_split(phi, tau, s)[0]


def _eval_split(phi: FunctionalSpec, tau: HermitianTuple, s,
                strict: bool = True) -> tuple[complex | None, complex]:
    """(phi(S), the value of phi's trace part at S), each part evaluated once.  A singular
    part's NotConverged propagates, or, when not `strict`, makes phi(S) None."""
    trace = 0j if phi.trace_part is None else eval_trace_part(phi.trace_part, tau, s)
    try:
        tail = 0j if phi.singular_part is None else eval_singular_part(phi.singular_part, s)
    except NotConverged:
        if strict:
            raise
        return None, trace
    return 0.0 + 0.0j + trace + tail, trace


def rows_read(phi: FunctionalSpec, tau: HermitianTuple) -> np.ndarray:
    """Sorted indices of the rows of S that `eval_functional(phi, tau, S)` reads.

    A trace part reads its `reach` leading rows (X, and the commutator
    corners of the Y_j), a tail state its window rows, and phi the union
    of what its parts read.
    """
    tp, ts = phi.trace_part, phi.singular_part
    rows = [] if tp is None else [np.arange(min(tp.reach(tau.bandwidth), tau.dimension))]
    if ts is not None:
        rows.extend(np.arange(lo - 1, hi) for lo, hi in ts.windows)
    return np.unique(np.concatenate(rows))


def trace_part_norms(tp: TracePart) -> tuple[float, tuple[float, ...]]:
    """(trace norm of X, norm of each Y_j in the conjugate of tp's gauge, 0.0 for an empty one)."""
    dual = conjugate_gauge(tp.gauge)
    x1 = gauge_norm(_TRACE_NORM, tp.x) if tp.x.size else 0.0
    return float(x1), tuple(gauge_norm(dual, y) if y.size else 0.0 for y in tp.ys)


def sampled_lower(values, test_ops: tuple[TestOperator, ...]) -> tuple[float, int]:
    """(the largest |value| / norm over the test set, the number of operators skipped).

    `values[i]` is the functional at `test_ops[i]`, or None where its
    evaluation raised NotConverged: that operator is skipped and counted.
    The norm is the max-form norm of the halves each TestOperator carries;
    a norm at or below 1e-14 contributes nothing.
    """
    lower, skipped = 0.0, 0
    for value, op in zip(values, test_ops, strict=True):
        if value is None:
            skipped += 1
            continue
        norm = max(op.operator_norm, op.commutator_norm)
        if norm > 1e-14:
            lower = max(lower, abs(value) / norm)
    return lower, skipped


@dataclass(frozen=True)
class NormBounds:
    """A sampled lower and a split certified upper bound on the norm of a functional.

    `upper` = `upper_trace` + `upper_tail`: |X|_1 + sum_j |Y_j|_dual for the
    trace part, 1.0 for a singular part.  `ok` holds when `lower` stays within
    ADDITIVITY_SLACK of `upper`.  Samples whose singular evaluation fails to
    converge are skipped and counted.
    """

    lower: float
    upper_trace: float
    upper_tail: float
    skipped: int
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.lower <= self.upper + ADDITIVITY_SLACK)

    @property
    def upper(self) -> float:
        return self.upper_trace + self.upper_tail


def functional_norm_bounds(phi: FunctionalSpec, tau: HermitianTuple, gauge: GaugeSpec,
                           test_set: tuple[TestOperator, ...]) -> NormBounds:
    """The norm bracket of phi, sampled on a test set drawn for tau in this gauge."""
    tp = phi.trace_part or TracePart.zero(tau.n, gauge)
    _check_gauge(gauge, trace_part=[tp], test_set=test_set)
    _check_tuple(tau, test_set=test_set)
    x1, y_norms = trace_part_norms(tp)
    values = [_eval_split(phi, tau, op.matrix, strict=False)[0] for op in test_set]
    return _norm_bracket(phi, x1, y_norms, values, test_set)


def _norm_bracket(phi: FunctionalSpec, x1: float, y_norms, values,
                  test_set: tuple[TestOperator, ...]) -> NormBounds:
    """The NormBounds of phi from its trace part's norms `x1` and `y_norms`
    and its `values` on the test set."""
    lower, skipped = sampled_lower(values, test_set)
    return NormBounds(lower, x1 + float(sum(y_norms)),
                      1.0 if phi.singular_part is not None else 0.0, skipped)


# Predual elements are trace parts read modulo commutator-sum pairs.
PredualElement = TracePart
pairing = eval_trace_part


@dataclass(frozen=True)
class QuotientBounds:
    """The bracket on a quotient norm, and how the upper bound's descent ended.

    `iterations` and `stop_reason` are those of `qau._descend`.
    """

    lower: float
    upper: float
    iterations: int
    stop_reason: str


def quotient_norm_bounds(tp: TracePart, tau: HermitianTuple, gauge: GaugeSpec,
                         window: int, sample_spec: SampleSpec | None = None,
                         max_iterations: int = 1500,
                         test_set: tuple[TestOperator, ...] | None = None) -> QuotientBounds:
    """Bracket the quotient norm of the class of tp.

    Upper: minimize |x + sum_j [T_j, w_j]|_1 + sum_j |y_j + w_j|_dual over
    perturbations w_j supported in the leading `window` coordinates, by the
    subgradient descent of `qau._descend` on the (n, window, window) stack.
    It starts from the lower of w = 0 and the negated y blocks, so elements
    constructed inside the null subspace certify an upper bound of exactly
    zero.  Any evaluated point gives a valid bound.  Each evaluation takes
    one broadcast commutator for the representative, one SVD for its trace
    norm, one stacked dual norm and one broadcast commutator for the
    subgradient.

    Lower: the largest normalized pairing against the test set: a drawn
    `test_set` in `gauge` on tau, or the one `generate_test_set` draws from
    `sample_spec`.  Exactly one of the two is given.
    """
    if (sample_spec is None) == (test_set is None):
        raise ValueError("quotient_norm_bounds takes exactly one of sample_spec and test_set")
    _check_gauge(gauge, trace_part=[tp], test_set=test_set or ())
    _check_tuple(tau, test_set=test_set or ())
    if window < 1:
        raise ValueError(f"window {window} is empty")
    band = tau.bandwidth
    work = _check_margin(tp, tau, max(window, tp.support) + band)
    _check_iterations(max_iterations)
    dual = conjugate_gauge(gauge)
    ts = tau.corner(work).astype(np.complex128)
    xe = embed(tp.x, work)
    ye = np.stack([embed(y, work) for y in tp.ys])

    def evaluate(v: np.ndarray) -> tuple[float, np.ndarray]:
        # the cost and its windowed subgradients from one SVD of x + sum_j [T_j, w_j]
        ws = np.zeros_like(ye)
        ws[:, :window, :window] = v
        trace_norm, d1 = norm_value_and_subgradient(
            _TRACE_NORM, sum(band_commutator(ts, ws, band), xe))
        dual_norms, ds = norm_value_and_subgradient(dual, ye + ws)
        grads = (band_commutator(ts, d1, band)[:, :window, :window]
                 + ds[:, :window, :window])
        return trace_norm + sum(dual_norms), grads

    starts = [(v, *evaluate(v)) for v in (np.zeros_like(ye[:, :window, :window]),
                                           -ye[:, :window, :window])]
    v, value, g = min(starts, key=lambda start: start[1])  # w = 0 on a tie
    _, upper, stop_reason, trace = _descend(v, value, g, evaluate, lambda w: w,
                                            max_iterations)

    ops = test_set if sample_spec is None else generate_test_set(sample_spec, tau, gauge)
    lower, _ = sampled_lower([eval_trace_part(tp, tau, op.matrix) for op in ops], ops)
    return QuotientBounds(lower=float(lower), upper=float(upper),
                          iterations=len(trace) - 1, stop_reason=stop_reason)
