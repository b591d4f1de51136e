"""Constructive splitting of functionals into trace and tail parts.

The split is computed, not postulated: pushing a functional through a
certified unit schedule recovers its trace part pointwise, every step comes
with an explicit error certificate, and the residual is checked to vanish on
finitely supported operators.  Reports carry enough data to audit each claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import (
    _TRACE_NORM,
    FunctionalSpec,
    NotConverged,
    TracePart,
    combine,
    detect_limit,
    eval_functional,
    eval_or_none,
    eval_trace_part,
    rows_read,
    sampled_lower,
    trace_part_norms,
)
from .gauges import (GaugeSpec, conjugate_gauge, diagonal_or_none, gauge_norm, gauge_value,
                     operator_norm)
from .idealops import HermitianTuple, commutator_tuple, corner_commutators, embed
from .qau import UnitElement, UnitSchedule
from .sampling import TestOperator

RESIDUAL_TOL = 1e-8
ADDITIVITY_SLACK = 1e-6
SOUNDNESS_TOL = 1e-9


@dataclass(frozen=True)
class RecoveryResult:
    """Values along the schedule and the detected limit."""

    sequence: tuple[complex, ...]
    limit: complex


def recover_ac_part(phi, schedule: UnitSchedule, tau: HermitianTuple, s) -> RecoveryResult:
    """Push S through every step of the schedule and detect the limit of the values.

    The k-th value is the functional applied to A_k S.  Multiplying by A_k
    kills tail behaviour, so the limit is the trace-part value; the tail part
    contributes exactly zero at each step once its windows sit past the caps.
    A_k S vanishes outside its leading cap_r rows, and of those only the rows
    phi reads (`rows_read`) are formed.  Detection uses the plain five-delta
    rule shared with tail states.  To recover along fewer steps, pass a
    schedule built on fewer windows.

    Raises NotConverged carrying the recovery values: all of them when no
    limit settles, those before the step when phi fails to converge there.
    """
    sm = np.asarray(s)
    if sm.shape != (tau.dimension, tau.dimension):
        raise ValueError("operand dimension does not match the tuple")
    read = rows_read(phi, tau)
    values = []
    for k, unit in enumerate(schedule.steps, start=1):
        if unit.dimension != tau.dimension:
            raise ValueError("schedule dimension does not match the tuple")
        rows = read[read < unit.cap_r]
        product = np.zeros(sm.shape, dtype=np.result_type(unit.block, sm))
        product[rows] = unit.block[rows] @ sm[:unit.cap_r]
        try:
            values.append(eval_functional(phi, tau, product))
        except NotConverged as err:
            raise NotConverged(f"step {k}: {err}", values) from None
    limit = detect_limit(values, rule="plain", tol=1e-9)
    return RecoveryResult(sequence=tuple(values), limit=limit)


def recovery_error_bound(tp: TracePart, tau: HermitianTuple, gauge: GaugeSpec,
                         unit: UnitElement, s, *, s_norm: float | None = None,
                         s_commutators: tuple[np.ndarray, ...] | None = None,
                         unit_norms: tuple[float, ...] | None = None) -> float:
    """Certified bound on |trace part at S minus trace part at A S|.

    Three terms, each exact at the instantiated dimension:

        |X - X A|_1 * ||S||
      + sum_j |(I - A)[S, T_j]|_gauge * |Y_j|_dual
      + sum_j |[A, T_j]|_gauge * |Y_j|_dual * ||S||

    `s_norm` and `s_commutators` (the tuple [T_j, S]) can be passed in when
    the caller evaluates many units against the same S, and `unit_norms`
    (the gauge norms |[A, T_j]|) when it evaluates many S against one unit.
    """
    if gauge != tp.gauge:
        raise ValueError("gauge does not match the trace part")
    if len(tp.ys) != tau.n:
        raise ValueError(f"trace part carries {len(tp.ys)} slots, tuple has {tau.n}")
    sm = np.asarray(s)
    dim = tau.dimension
    if sm.shape != (dim, dim) or unit.dimension != dim:
        raise ValueError("operand or unit dimension does not match the tuple")

    dual = conjugate_gauge(gauge)
    y_norms = [gauge_norm(dual, y) if y.size else 0.0 for y in tp.ys]
    if s_norm is None:
        s_norm = operator_norm(sm)
    if s_commutators is None:
        s_commutators = commutator_tuple(tau, sm)

    # A is its r x r cap block, so every term lives on leading rows or
    # corners of size about r: no N x N product is formed.
    r = unit.cap_r
    a = unit.block
    total = 0.0
    sx = tp.x.shape[0]
    if sx and tp.x.any():
        # X - X A vanishes outside its leading sx x c rectangle
        c = min(dim, max(sx, r))
        rows = embed(tp.x, c)[:sx] - tp.x @ embed(a, c)[:sx]
        total += gauge_value(_TRACE_NORM, np.linalg.svd(rows, compute_uv=False)) * s_norm

    if any(y_norms):
        diag = diagonal_or_none(a)
        if unit_norms is None:
            unit_norms = unit_commutator_norms(tau, gauge, unit)
        for k, yn in zip(s_commutators, y_norms):
            if yn and k.any():
                shrunk = np.array(k, dtype=np.complex128)
                # (I - A) K; a diagonal A (a ramp) scales rows, the same bits as A @ K
                shrunk[:r] -= a @ k[:r] if diag is None else diag[:, None] * k[:r]
                total += gauge_norm(gauge, shrunk) * yn
        for an, yn in zip(unit_norms, y_norms):
            if yn:
                total += an * yn * s_norm
    return float(total)


def unit_commutator_norms(tau: HermitianTuple, gauge: GaugeSpec,
                          unit: UnitElement) -> tuple[float, ...]:
    """The gauge norms |[T_j, A]| of a unit, from its commutator corner."""
    return tuple(gauge_norm(gauge, k) for k in corner_commutators(tau, unit.block))


@dataclass(frozen=True)
class RecoveryRecord:
    """Per-operator recovery data inside a decomposition report."""

    s_id: str
    sequence: tuple[complex, ...]
    limit: complex | None
    bounds: tuple[float, ...]
    gaps: tuple[float, ...]
    sound: bool


@dataclass(frozen=True)
class AdditivityRecord:
    """Sampled lower bound for the whole functional against the split uppers."""

    lower: float
    upper_trace: float
    upper_tail: float
    skipped: int
    ok: bool


@dataclass(frozen=True)
class DecompositionReport:
    phi_id: str
    schedule_id: str
    per_s: tuple[RecoveryRecord, ...]
    residuals: tuple[tuple[str, float], ...]
    additivity: AdditivityRecord
    idempotence_gap: float
    status: str
    diagnostics: tuple[str, ...]


def decompose(phi: FunctionalSpec, schedule: UnitSchedule, tau: HermitianTuple,
              gauge: GaugeSpec, test_set: tuple[TestOperator, ...],
              phi_id: str | None = None,
              schedule_id: str = "schedule-0") -> DecompositionReport:
    """Recover the trace part of phi on a test set, with certificates.

    One pass over the test set.  For every test operator the report records
    the recovery sequence along every schedule step, its limit, the per-step
    error bounds, and whether the measured gaps stay under the bounds; one
    direct evaluation of phi gives both the residual of (phi - recovered
    part), checked on the finitely supported members, and the operator's
    sample of the norm lower bound; a second recovery through the trace part
    alone gives the idempotence gap.  The sampled lower bound is compared
    against the sum of the split upper bounds.  A NotConverged is recorded as
    a diagnostic instead of raised; the report fails exactly when it has
    diagnostics, listed per operator in test-set order, the additivity one
    last.  The norms are those the TestOperators carry: draw the test set
    for this tuple, in this gauge (another gauge is refused).
    """
    tp = phi.trace_part if phi.trace_part is not None else TracePart.zero(tau.n, gauge)
    trace_only = FunctionalSpec(trace_part=tp, label=f"{phi.label or 'phi'}-trace")
    diagnostics: list[str] = []
    records: list[RecoveryRecord] = []
    residuals: list[tuple[str, float]] = []
    directs: list[complex | None] = []
    idem_gap = 0.0

    unit_norms = [unit_commutator_norms(tau, gauge, unit) for unit in schedule.steps]
    for op in test_set:
        if op.gauge != gauge:
            raise ValueError("test set was normed in another gauge")
        sm = op.matrix
        target = eval_trace_part(tp, tau, sm)
        s_comms = commutator_tuple(tau, sm)
        bounds = tuple(
            recovery_error_bound(tp, tau, gauge, unit, sm, s_norm=op.operator_norm,
                                 s_commutators=s_comms, unit_norms=norms)
            for unit, norms in zip(schedule.steps, unit_norms))
        try:
            rec = recover_ac_part(phi, schedule, tau, sm)
            seq, limit = rec.sequence, rec.limit
        except NotConverged as err:
            diagnostics.append(f"{op.op_id}: recovery did not converge: {err}")
            seq, limit = err.sequence, None
        gaps = tuple(abs(target - v) for v in seq)
        sound = all(g <= b + SOUNDNESS_TOL for g, b in zip(gaps, bounds))
        records.append(RecoveryRecord(s_id=op.op_id, sequence=seq, limit=limit,
                                      bounds=bounds, gaps=gaps, sound=sound))

        direct = eval_or_none(phi, tau, sm)
        directs.append(direct)
        if limit is None:
            continue
        if not sound:
            diagnostics.append(f"{op.op_id}: gap exceeds certified bound")
        if op.finitely_supported:
            if direct is None:
                diagnostics.append(f"{op.op_id}: direct evaluation did not converge")
            else:
                gap = abs(direct - limit)
                residuals.append((op.op_id, float(gap)))
                if gap > RESIDUAL_TOL:
                    diagnostics.append(f"{op.op_id}: residual {gap:.3e} above tolerance")
        try:
            again = recover_ac_part(trace_only, schedule, tau, sm)
        except NotConverged:
            diagnostics.append(f"{op.op_id}: second-pass recovery did not converge")
        else:
            idem_gap = max(idem_gap, abs(again.limit - limit))

    x1, ysum = trace_part_norms(tp, gauge)
    upper_trace = x1 + ysum
    upper_tail = 1.0 if phi.singular_part is not None else 0.0
    lower, _, skipped = sampled_lower(directs, test_set)
    add_ok = lower <= upper_trace + upper_tail + ADDITIVITY_SLACK
    if not add_ok:
        diagnostics.append(
            f"norm lower bound {lower:.6e} exceeds split upper "
            f"{upper_trace + upper_tail:.6e}")

    return DecompositionReport(
        phi_id=phi_id if phi_id is not None else (phi.label or "phi-0"),
        schedule_id=schedule_id,
        per_s=tuple(records),
        residuals=tuple(residuals),
        additivity=AdditivityRecord(lower=lower, upper_trace=upper_trace,
                                    upper_tail=upper_tail, skipped=skipped, ok=add_ok),
        idempotence_gap=float(idem_gap),
        status="failed" if diagnostics else "ok",
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class ProjectionReport:
    """Gaps witnessing that recovery acts as a linear idempotent map."""

    idempotence_gaps: tuple[float, ...]
    linearity_gaps: tuple[float, ...]
    additivity_gaps: tuple[float, ...]


def projection_check(phis, schedule: UnitSchedule, tau: HermitianTuple,
                     gauge: GaugeSpec, test_set: tuple[TestOperator, ...],
                     coeffs: tuple[float, float] = (2.0, -1.0)) -> ProjectionReport:
    """Check idempotence, linearity and the norm sandwich of the recovery map.

    Each FunctionalSpec is decomposed once: its report gives the first-pass
    limits, the idempotence gap, and the additivity gap, how far the sampled
    norm lower bound exceeds the split upper bound.  Consecutive pairs are
    combined with `coeffs`, and the combination's recovery is compared with
    the matching combination of first-pass limits.  Raises NotConverged when
    a first-pass recovery does not settle; these checks assume convergence.
    """
    phis = list(phis)
    first, idem, addit = [], [], []
    for phi in phis:
        report = decompose(phi, schedule, tau, gauge, test_set)
        for rec in report.per_s:
            if rec.limit is None:
                raise NotConverged(f"{rec.s_id}: recovery did not converge", rec.sequence)
        first.append({rec.s_id: rec.limit for rec in report.per_s})
        idem.append(report.idempotence_gap)
        add = report.additivity
        addit.append(max(0.0, add.lower - (add.upper_trace + add.upper_tail)))

    alpha, beta = coeffs
    lin = []
    for i in range(0, len(phis) - 1, 2):
        combo = combine((alpha, phis[i]), (beta, phis[i + 1]))
        gap = 0.0
        for op in test_set:
            mixed = recover_ac_part(combo, schedule, tau, op.matrix).limit
            split = alpha * first[i][op.op_id] + beta * first[i + 1][op.op_id]
            gap = max(gap, abs(mixed - split))
        lin.append(float(gap))

    return ProjectionReport(idempotence_gaps=tuple(idem),
                            linearity_gaps=tuple(lin),
                            additivity_gaps=tuple(addit))
