"""Quasicentral approximate units and the window-constrained commutator table.

A unit is a hermitian A with P_m <= A <= I, supported in the leading r
coordinates.  For a tuple tau and gauge the cell value

    beta(m, r) = min over feasible A of max_j |[T_j, A]|_gauge

is estimated by projected subgradient descent from the diagonal ramp, each
trial taken from the best unit so far (`_descend`, shared with the quotient
solver of `functionals`).  The table's summary statistic, max over floors of
the min over caps, is the desk surrogate for the obstruction measured by
vanishing commutator norms along approximate units growing to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
import numpy as np

from .gauges import (GaugeSpec, _frobenius, diagonal_or_none, gauge_norm,
                     norm_subgradient, norm_value_and_subgradient)
from .idealops import HermitianTuple, band_commutator, corner_commutators, embed

EIG_TOL = 1e-10
MONOTONE_TOL = 1e-6


class CertificationError(ValueError):
    """A candidate unit failed its feasibility certificate."""


class MonotonizationError(ValueError):
    """Projection onto the monotone constraint broke another constraint."""


# A trial that lowers the best value by a relative SUFFICIENT is accepted and
# grows the step; any other trial halves it.  The search stops at a best value
# of at most STOP_TOLERANCE, or after PATIENCE consecutive halvings.
SUFFICIENT = 1e-4
STOP_TOLERANCE = 1e-8
PATIENCE = 10
MAX_ITERATIONS = 2000


def _check_iterations(max_iterations: int) -> None:
    if max_iterations < 0:
        raise ValueError(f"max_iterations out of range: {max_iterations!r}")


def _descend(x, value, g, evaluate, project, max_iterations: int):
    """Projected subgradient descent from x, whose value and subgradient g are given.

    Each trial is project(best - step * g_best), with `evaluate(trial)` giving
    its (value, subgradient).  The first step is value / |g|^2, |g| taken by
    the range-safe `_frobenius`.  Returns the best point, its value, the stop
    reason ("tolerance", "zero-gradient", "stall" or "budget") and the trace
    of (iteration, trial value, best value), the start first.
    """
    trace = [(0, float(value), float(value))]
    step, halvings = None, 0
    for it in range(1, max_iterations + 1):
        if value <= STOP_TOLERANCE:
            return x, value, "tolerance", trace
        gnorm = _frobenius(g)
        if gnorm <= 1e-15:
            return x, value, "zero-gradient", trace
        step = value / gnorm / gnorm if step is None else step
        trial = project(x - step * g)
        trial_value, trial_g = evaluate(trial)
        sufficient = trial_value <= value * (1.0 - SUFFICIENT)
        if trial_value < value:  # the best point, even when the gain is not sufficient
            x, value, g = trial, trial_value, trial_g
        trace.append((it, float(trial_value), float(value)))
        step, halvings = (step * 1.5, 0) if sufficient else (step / 2.0, halvings + 1)
        if halvings == PATIENCE:
            return x, value, "stall", trace
    return x, value, "budget", trace


@dataclass(frozen=True)
class UnitCertificate:
    min_eigenvalue: float
    max_eigenvalue: float
    floor_residual: float

    @property
    def ok(self) -> bool:
        return (self.min_eigenvalue >= -EIG_TOL
                and self.max_eigenvalue <= 1.0 + EIG_TOL
                and self.floor_residual <= EIG_TOL)


@dataclass(frozen=True)
class UnitElement:
    """A certified unit on an N-dimensional tuple, stored as its r x r cap block.

    The block is read-only; the unit vanishes outside it.
    """

    block: np.ndarray
    floor_m: int
    dimension: int
    certificate: UnitCertificate

    @property
    def cap_r(self) -> int:
        return self.block.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The unit as an N x N operator."""
        return embed(self.block, self.dimension)


def _member_norms(tau: HermitianTuple, gauge: GaugeSpec, block: np.ndarray) -> tuple[float, ...]:
    """The gauge norms |[T_j, A]| of the unit with cap block A, member by member."""
    return tuple(gauge_norm(gauge, k) for k in corner_commutators(tau, block))


def _hermitize(block: np.ndarray) -> np.ndarray:
    return (block + block.conj().T) / 2.0


def _spectrum(block: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a hermitian block: a diagonal block's sorted diagonal."""
    diagonal = diagonal_or_none(block)
    if diagonal is not None:
        return np.sort(diagonal.real)
    return np.linalg.eigvalsh(block)


def _certify_block(block: np.ndarray, floor_m: int) -> UnitCertificate:
    lam = _spectrum(block)
    shifted = block.copy()
    idx = np.arange(floor_m)
    shifted[idx, idx] -= 1.0
    floor_lam = _spectrum(shifted)
    return UnitCertificate(
        min_eigenvalue=float(lam[0]),
        max_eigenvalue=float(lam[-1]),
        floor_residual=float(max(0.0, -floor_lam[0])),
    )


def _make_unit(block: np.ndarray, floor_m: int, dim: int) -> UnitElement:
    cert = _certify_block(block, floor_m)
    if not cert.ok:
        raise CertificationError(
            f"unit certificate failed for window ({floor_m}, {block.shape[0]}): "
            f"eig range [{cert.min_eigenvalue:.3e}, {cert.max_eigenvalue:.3e}], "
            f"floor residual {cert.floor_residual:.3e}")
    block.setflags(write=False)
    return UnitElement(block=block, floor_m=floor_m, dimension=dim, certificate=cert)


def _validate_window(tau: HermitianTuple, floor_m: int, cap_r: int):
    if not (0 < floor_m <= cap_r):
        raise ValueError(f"infeasible window: need 0 < m <= r, got ({floor_m}, {cap_r})")
    if cap_r + tau.bandwidth > tau.dimension:
        raise ValueError(
            f"infeasible window: cap {cap_r} plus bandwidth {tau.bandwidth} "
            f"exceeds dimension {tau.dimension}")


def ramp_unit(tau: HermitianTuple, floor_m: int, cap_r: int) -> UnitElement:
    """Diagonal ramp: ones through the floor, linear decay to zero at the cap."""
    _validate_window(tau, floor_m, cap_r)
    if floor_m == cap_r:
        raise ValueError("ramp needs m < r; the degenerate window is the projection itself")
    j = np.arange(1, cap_r + 1, dtype=float)
    diag = np.clip((cap_r - j) / (cap_r - floor_m), 0.0, 1.0)
    return _make_unit(np.diag(diag), floor_m, tau.dimension)


def _project_window(block: np.ndarray, floor_m: int) -> np.ndarray:
    """Exact Frobenius projection onto {P_m <= A <= I} on the cap block.

    The floor and the box pin down more than they seem to: A >= P_m with
    A <= I forces the leading m x m block to the identity exactly, and a
    positive matrix with a vanishing diagonal block has vanishing off-blocks.
    The feasible set is therefore I_m (+) {0 <= C <= I} on the trailing
    block, and the projection reduces to a spectral clamp of that block.
    """
    x = _hermitize(block)
    out = np.zeros_like(x)
    idx = np.arange(floor_m)
    out[idx, idx] = 1.0
    if x.shape[0] > floor_m:
        tail = x[floor_m:, floor_m:]
        lam, w = np.linalg.eigh(tail)
        out[floor_m:, floor_m:] = (w * np.clip(lam, 0.0, 1.0)) @ w.conj().T
    return out


@dataclass(frozen=True)
class OptimizeResult:
    """The best unit the search found, its value, and how the search ended.

    `iterations` counts the steps taken.  `stop_reason` names the rule that
    ended the search: "tolerance" (the best value is at most
    STOP_TOLERANCE), "zero-gradient" (the step direction has Frobenius norm
    at most 1e-15; also the degenerate window m = r, whose feasible set is
    one point), "stall" (PATIENCE consecutive halvings of the step) or
    "budget" (max_iterations steps, 0 included).
    """

    unit: UnitElement
    value: float
    iterations: int
    stop_reason: str
    trace: tuple[tuple[int, float, float], ...]  # (iteration, value, best)


def optimize_unit(tau: HermitianTuple, gauge: GaugeSpec, floor_m: int, cap_r: int,
                  max_iterations: int = MAX_ITERATIONS) -> OptimizeResult:
    """Minimize max_j |[T_j, A]|_gauge over the window's feasible units.

    Projected subgradient descent from the ramp by `_descend`: every trial
    steps from the best unit so far, and the search ends after PATIENCE
    consecutive halvings of the step.  The ramp start is valued as
    `build_schedule` values it, so the result never exceeds the ramp's
    schedule norm, bitwise.  Each iterate takes one factorization per
    member, `norm_value_and_subgradient`, for both the member's norm and
    its subgradient D: one `eigh` of the commutator's Gram matrix for the
    sup gauge, whose D is rank one, and one full SVD for the gauges other
    than Schatten-2.  Only the argmax member's D (lowest index wins ties)
    is kept, for the next step.  Full SVDs and `eigh` also overlap across
    `k_estimate`'s worker threads where value-only SVDs do not: with one
    BLAS thread, two threads run full SVDs 1.4-2.1x and the Gram `eigh`
    1.6-2.2x faster than one at c = 49 to 300, and value-only SVDs
    0.9-1.0x (2-core Xeon, OpenBLAS 0.3.31).
    """
    _check_iterations(max_iterations)
    _validate_window(tau, floor_m, cap_r)
    dim = tau.dimension
    band = tau.bandwidth

    if floor_m == cap_r:
        # Degenerate window: the only feasible unit is the projection itself.
        unit = _make_unit(np.eye(cap_r, dtype=tau.dtype), floor_m, dim)
        value = max(_member_norms(tau, gauge, unit.block))
        return OptimizeResult(unit=unit, value=value, iterations=0,
                              stop_reason="zero-gradient", trace=((0, value, value),))

    # every commutator of the search lives on this corner, taken once
    corner = cap_r + band
    ts = tau.corner(corner)

    def direction(j: int, d: np.ndarray) -> np.ndarray:
        """herm [T_j, D] on the cap block: a subgradient of |[T_j, A]| for D aligned with it."""
        g = band_commutator(ts[j], d, band)
        return _hermitize(g[:cap_r, :cap_r])

    def evaluate(block: np.ndarray) -> tuple[float, np.ndarray]:
        a = embed(block, corner)
        value = -np.inf
        for j, t in enumerate(ts):
            v, d = norm_value_and_subgradient(gauge, band_commutator(t, a, band))
            if v > value:  # lowest index wins ties; only the argmax member's D is kept
                value, top = v, (j, d)
        return value, direction(*top)

    # The ramp is certified by ramp_unit, and _project_window is exact, so
    # iterates need no certificate; the returned unit is certified by _make_unit.
    x = np.asarray(ramp_unit(tau, floor_m, cap_r).block, dtype=tau.dtype)
    norms = _member_norms(tau, gauge, x)  # as build_schedule values the ramp
    value = max(norms)
    j = norms.index(value)
    g = direction(j, norm_subgradient(gauge, band_commutator(ts[j], embed(x, corner), band)))
    block, value, stop_reason, trace = _descend(
        x, value, g, evaluate, lambda b: _project_window(b, floor_m), max_iterations)
    return OptimizeResult(unit=_make_unit(block, floor_m, dim), value=float(value),
                          iterations=len(trace) - 1, stop_reason=stop_reason,
                          trace=tuple(trace))


@dataclass(frozen=True)
class KCell:
    floor_m: int
    cap_r: int
    beta: float
    iterations: int
    status: str


@dataclass(frozen=True)
class KEstimateTable:
    floors: tuple[int, ...]
    caps: tuple[int, ...]
    cells: tuple[KCell, ...]
    estimate: float

    def cell(self, floor_m: int, cap_r: int) -> KCell:
        for c in self.cells:
            if c.floor_m == floor_m and c.cap_r == cap_r:
                return c
        raise KeyError((floor_m, cap_r))

    def monotonicity_violations(self) -> tuple[str, ...]:
        """Cells breaking the structural monotonicity by more than MONOTONE_TOL."""
        problems = []
        beta = {(c.floor_m, c.cap_r): c.beta for c in self.cells}
        for m in self.floors:
            for r_small, r_big in zip(self.caps, self.caps[1:]):
                if beta[(m, r_big)] > beta[(m, r_small)] + MONOTONE_TOL:
                    problems.append(
                        f"beta({m},{r_big}) > beta({m},{r_small}) + {MONOTONE_TOL:g}")
        for m_small, m_big in zip(self.floors, self.floors[1:]):
            for r in self.caps:
                if beta[(m_small, r)] > beta[(m_big, r)] + MONOTONE_TOL:
                    problems.append(
                        f"beta({m_small},{r}) > beta({m_big},{r}) + {MONOTONE_TOL:g}")
        return tuple(problems)


def k_estimate(tau: HermitianTuple, gauge: GaugeSpec, floors, caps,
               max_iterations: int = MAX_ITERATIONS, jobs: int = 1) -> KEstimateTable:
    """Table of beta(m, r) over a floor/cap grid with its summary estimate.

    Cells are solved independently by `jobs` workers, largest cap first,
    and then a deterministic chaining pass propagates feasible values: a
    unit for a window stays feasible when the floor shrinks or the cap
    grows, so each cell reports the best certified value available to it.
    The summary is max over floors of the min over caps.
    """
    if jobs < 1:
        raise ValueError(f"jobs out of range: {jobs!r}")
    floors = tuple(sorted(int(m) for m in floors))
    caps = tuple(sorted(int(r) for r in caps))
    if not floors or not caps:
        raise ValueError("floors and caps must be nonempty")
    if len(set(floors)) != len(floors) or len(set(caps)) != len(caps):
        raise ValueError("floors and caps must be distinct")
    for m in floors:
        for r in caps:
            _validate_window(tau, m, r)

    order = sorted(((m, r) for m in floors for r in caps), key=lambda pair: -pair[1])
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        solved = dict(zip(order, pool.map(
            lambda pair: optimize_unit(tau, gauge, *pair, max_iterations), order)))

    beta, status = {}, {}
    for i in reversed(range(len(floors))):
        m = floors[i]
        for k, r in enumerate(caps):
            own = solved[(m, r)].value
            # the best unit of the next smaller cap, or of the next larger floor
            inherited = ([beta[(m, caps[k - 1])]] if k else []) \
                + ([beta[(floors[i + 1], r)]] if i + 1 < len(floors) else [])
            beta[(m, r)] = min([own] + inherited)
            status[(m, r)] = "chained" if beta[(m, r)] < own else "ok"

    cells = tuple(
        KCell(floor_m=m, cap_r=r, beta=beta[(m, r)],
              iterations=solved[(m, r)].iterations, status=status[(m, r)])
        for m in floors for r in caps)
    estimate = max(min(beta[(m, r)] for r in caps) for m in floors)
    return KEstimateTable(floors=floors, caps=caps, cells=cells, estimate=float(estimate))


@dataclass(frozen=True)
class UnitSchedule:
    """Monotone units built in `mode`; `member_norms[k][j]` is |[T_j, A_k]| in `gauge`."""

    steps: tuple[UnitElement, ...]
    member_norms: tuple[tuple[float, ...], ...]
    mode: str
    gauge: GaugeSpec

    @property
    def commutator_norms(self) -> tuple[float, ...]:
        """max_j |[T_j, A_k]|_gauge for each step k."""
        return tuple(max(norms) for norms in self.member_norms)

    def __len__(self) -> int:
        return len(self.steps)


def _check_monotone_steps(steps):
    for prev, cur in zip(steps, steps[1:]):
        # caps strictly increase, so prev's block sits inside cur's
        diff = np.array(cur.block, dtype=np.result_type(cur.block, prev.block))
        diff[:prev.cap_r, :prev.cap_r] -= prev.block
        lam = _spectrum(_hermitize(diff))
        if lam[0] < -EIG_TOL:
            raise MonotonizationError(
                f"schedule steps not monotone: min eig {lam[0]:.3e} between caps "
                f"{prev.cap_r} and {cur.cap_r}")


def build_schedule(tau: HermitianTuple, gauge: GaugeSpec, windows,
                   mode: str = "ramp",
                   max_iterations: int = MAX_ITERATIONS) -> UnitSchedule:
    """A monotone sequence of units over nested windows, with commutator norms.

    Windows are (floor, cap) pairs with nondecreasing floors, strictly
    increasing caps, and the march condition floor[k+1] >= cap[k-1], so the
    units sweep out to the identity.  mode "ramp" uses the diagonal ramps
    (monotone by construction); "optimized-then-monotonized" runs the
    optimizer per window and projects each unit onto the cone above its
    predecessor, re-certifying afterwards.
    """
    _check_iterations(max_iterations)
    windows = [(int(m), int(r)) for m, r in windows]
    if not windows:
        raise ValueError("schedule needs at least one window")
    for m, r in windows:
        _validate_window(tau, m, r)
        if m >= r:
            raise ValueError(f"schedule windows need m < r, got ({m}, {r})")
    for (m0, r0), (m1, r1) in zip(windows, windows[1:]):
        if m1 < m0:
            raise ValueError("floors must be nondecreasing")
        if r1 <= r0:
            raise ValueError("caps must be strictly increasing")
    for (m0, r0), (m2, r2) in zip(windows, windows[2:]):
        if m2 < r0:
            raise ValueError(
                f"march condition violated: floor {m2} precedes earlier cap {r0}")

    if mode == "ramp":
        steps = [ramp_unit(tau, m, r) for m, r in windows]
    elif mode == "optimized-then-monotonized":
        steps = []
        for m, r in windows:
            unit = optimize_unit(tau, gauge, m, r, max_iterations).unit
            if steps:
                prev = steps[-1]
                block = np.array(unit.block, dtype=tau.dtype)
                block[:prev.cap_r, :prev.cap_r] -= prev.block
                lam, w = np.linalg.eigh(_hermitize(block))
                lifted = (w * np.maximum(lam, 0.0)) @ w.conj().T
                lifted[:prev.cap_r, :prev.cap_r] += prev.block
                try:
                    unit = _make_unit(_hermitize(lifted), m, tau.dimension)
                except CertificationError as exc:
                    raise MonotonizationError(
                        f"monotonization failed at window ({m}, {r}): {exc}") from exc
            steps.append(unit)
    else:
        raise ValueError(f"unknown schedule mode {mode!r}")

    _check_monotone_steps(steps)
    norms = tuple(_member_norms(tau, gauge, u.block) for u in steps)
    return UnitSchedule(steps=tuple(steps), member_norms=norms, mode=mode, gauge=gauge)
