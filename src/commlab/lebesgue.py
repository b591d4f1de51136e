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
    _check_margin,
    combine,
    detect_limit,
    eval_functional,
    eval_or_none,
    eval_trace_part,
    rows_read,
    sampled_lower,
    trace_part_norms,
)
from .gauges import GaugeSpec, diagonal_or_none, gauge_norm, gauge_value, operator_norm
from .idealops import HermitianTuple, commutator_tuple, embed
from .qau import UnitElement, UnitSchedule, _member_norms
from .sampling import TestOperator, _check_gauge

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


def _trace_factors(tp: TracePart, tau: HermitianTuple, gauge: GaugeSpec, units):
    """Per functional: `trace_part_norms`, and |X - X A|_1 for each unit
    (None when X vanishes), from A's cap block: X - X A vanishes outside its
    leading sx x c rectangle."""
    if gauge != tp.gauge:
        raise ValueError("gauge does not match the trace part")
    _check_margin(tp, tau)
    x1, y_norms = trace_part_norms(tp, gauge)
    sx = tp.x.shape[0]
    x_terms = [None] * len(units)
    for i, unit in enumerate(units if sx and tp.x.any() else ()):
        c = min(unit.dimension, max(sx, unit.cap_r))
        rows = embed(tp.x, c)[:sx] - tp.x @ embed(unit.block, c)[:sx]
        x_terms[i] = gauge_value(_TRACE_NORM, np.linalg.svd(rows, compute_uv=False))
    return x1, y_norms, x_terms


def _shrunk_norms(gauge: GaugeSpec, unit: UnitElement, commutators, wanted) -> list:
    """Per operator and unit: |(I - A) K_j|_gauge for each wanted, nonzero
    K_j = [T_j, S], else None.  A diagonal A (a ramp) scales the leading r
    rows of K_j, the same bits as A @ K_j."""
    r, a, diag = unit.cap_r, unit.block, diagonal_or_none(unit.block)
    norms = [None] * len(wanted)
    for j, (k, want) in enumerate(zip(commutators, wanted)):
        if want and k.any():
            shrunk = np.array(k, dtype=np.complex128)
            shrunk[:r] -= a @ k[:r] if diag is None else diag[:, None] * k[:r]
            norms[j] = gauge_norm(gauge, shrunk)
    return norms


def _certificate(x_term, shrunk, member_norms, y_norms, s_norm: float) -> float:
    """The three terms of `recovery_error_bound`, summed from their factors."""
    total = 0.0 if x_term is None else x_term * s_norm
    for sn, yn in zip(shrunk, y_norms):
        if yn and sn is not None:
            total += sn * yn
    for an, yn in zip(member_norms, y_norms):
        if yn:
            total += an * yn * s_norm
    return float(total)


def recovery_error_bound(tp: TracePart, tau: HermitianTuple, gauge: GaugeSpec,
                         unit: UnitElement, s, *, s_norm: float | None = None,
                         s_commutators: tuple[np.ndarray, ...] | None = None) -> float:
    """Certified bound on |trace part at S minus trace part at A S|.

    Three terms, each exact at the instantiated dimension:

        |X - X A|_1 * ||S||
      + sum_j |(I - A)[S, T_j]|_gauge * |Y_j|_dual
      + sum_j |[A, T_j]|_gauge * |Y_j|_dual * ||S||

    `s_norm` and `s_commutators` (the tuple [T_j, S]) can be passed in when
    the caller evaluates many units against the same S.  `decompose` sums
    the same factors, each taken once at the level it depends on.
    """
    _, y_norms, (x_term,) = _trace_factors(tp, tau, gauge, [unit])
    sm = np.asarray(s)
    if sm.shape != (tau.dimension,) * 2 or unit.dimension != tau.dimension:
        raise ValueError("operand or unit dimension does not match the tuple")
    if s_norm is None:
        s_norm = operator_norm(sm)
    if not any(y_norms):
        return _certificate(x_term, (), (), y_norms, s_norm)
    if s_commutators is None:
        s_commutators = commutator_tuple(tau, sm)
    return _certificate(x_term, _shrunk_norms(gauge, unit, s_commutators, y_norms),
                        _member_norms(tau, gauge, unit.block), y_norms, s_norm)


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


def decompose(phis, schedule: UnitSchedule, tau: HermitianTuple, gauge: GaugeSpec,
              test_set: tuple[TestOperator, ...]) -> tuple[DecompositionReport, ...]:
    """Recover the trace part of each FunctionalSpec in phis, with certificates.

    One report per functional, in order.  Per test operator: the recovery
    sequence along the schedule, its limit, the per-step bounds of
    `recovery_error_bound` and whether the gaps stay under them; one direct
    evaluation of phi for the residual on finitely supported members and for
    the sampled norm lower bound, checked against the split upper bounds;
    and a second recovery through the trace part alone, for the idempotence
    gap.  A NotConverged becomes a diagnostic; a report fails exactly when
    it has diagnostics, per operator in test-set order, the additivity one
    last.  Each bound factor is formed once, at the level it depends on: per
    unit, per operator or per functional.  The norms of S are those the
    TestOperators carry: draw the test set for this tuple, in this gauge
    (another is refused).
    """
    _check_gauge(test_set, gauge)
    phis = tuple(phis)
    steps = schedule.steps
    tps = [phi.trace_part if phi.trace_part is not None else TracePart.zero(tau.n, gauge)
           for phi in phis]
    factors = [_trace_factors(tp, tau, gauge, steps) for tp in tps]
    member_norms = (schedule.member_norms if schedule.gauge == gauge
                    else [_member_norms(tau, gauge, unit.block) for unit in steps])
    wanted = [any(column) for column in zip(*(y_norms for _, y_norms, _ in factors))]
    # one operator's N x N commutators at a time, all dropped before any recovery runs
    per_op = (commutator_tuple(tau, op.matrix) if any(wanted) else () for op in test_set)
    shrunk = [[_shrunk_norms(gauge, unit, ks, wanted) for unit in steps] for ks in per_op]

    reports = []
    for i, (phi, tp, (x1, y_norms, x_terms)) in enumerate(zip(phis, tps, factors)):
        trace_only = FunctionalSpec(trace_part=tp, label=f"{phi.label or 'phi'}-trace")
        diagnostics: list[str] = []
        records: list[RecoveryRecord] = []
        residuals: list[tuple[str, float]] = []
        directs: list[complex | None] = []
        idem_gap = 0.0
        for op, op_shrunk in zip(test_set, shrunk):
            sm = op.matrix
            target = eval_trace_part(tp, tau, sm)
            bounds = tuple(_certificate(x, sn, an, y_norms, op.operator_norm)
                           for x, sn, an in zip(x_terms, op_shrunk, member_norms))
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

        upper_trace = x1 + float(sum(y_norms))
        upper_tail = 1.0 if phi.singular_part is not None else 0.0
        lower, _, skipped = sampled_lower(directs, test_set)
        add_ok = lower <= upper_trace + upper_tail + ADDITIVITY_SLACK
        if not add_ok:
            diagnostics.append(
                f"norm lower bound {lower:.6e} exceeds split upper "
                f"{upper_trace + upper_tail:.6e}")

        reports.append(DecompositionReport(
            phi_id=phi.label or f"phi-{i}",
            schedule_id=f"{schedule.mode}-{len(schedule)}",
            per_s=tuple(records),
            residuals=tuple(residuals),
            additivity=AdditivityRecord(lower=lower, upper_trace=upper_trace,
                                        upper_tail=upper_tail, skipped=skipped, ok=add_ok),
            idempotence_gap=float(idem_gap),
            status="failed" if diagnostics else "ok",
            diagnostics=tuple(diagnostics),
        ))
    return tuple(reports)


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

    One `decompose` call covers every FunctionalSpec: each report gives the
    first-pass limits, the idempotence gap, and the additivity gap, how far
    the sampled norm lower bound exceeds the split upper bound.  Consecutive
    pairs are combined with `coeffs`, and the combination's recovery is
    compared with the matching combination of first-pass limits.  Raises NotConverged when
    a first-pass recovery does not settle; these checks assume convergence.
    """
    phis = list(phis)
    reports = decompose(phis, schedule, tau, gauge, test_set)
    for rec in (rec for report in reports for rec in report.per_s):
        if rec.limit is None:
            raise NotConverged(f"{rec.s_id}: recovery did not converge", rec.sequence)
    first = [{rec.s_id: rec.limit for rec in report.per_s} for report in reports]

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

    adds = [report.additivity for report in reports]
    return ProjectionReport(
        idempotence_gaps=tuple(report.idempotence_gap for report in reports),
        linearity_gaps=tuple(lin),
        additivity_gaps=tuple(max(0.0, a.lower - (a.upper_trace + a.upper_tail)) for a in adds))
