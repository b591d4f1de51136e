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
    combined_trace_part,
    detect_limit,
    eval_functional,
    eval_trace_part,
    rows_read,
    sampled_lower,
    trace_part_norms,
)
from .gauges import (GaugeSpec, conjugate_gauge, diagonal_or_none, gauge_norm, gauge_value,
                     operator_norm)
from .idealops import (HermitianTuple, commutator_tuple, corner_commutators, e_norm_max,
                       embed, tuple_gauge_norm)
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


def recover_ac_part(phi, schedule: UnitSchedule, tau: HermitianTuple, s,
                    depth: int | None = None) -> RecoveryResult:
    """Push S through the unit schedule and detect the limit of the values.

    The k-th value is the functional applied to A_k S.  Multiplying by A_k
    kills tail behaviour, so the limit is the trace-part value; the tail part
    contributes exactly zero at each step once its windows sit past the caps.
    A_k S vanishes outside its leading cap_r rows, and of those only the rows
    phi reads (`rows_read`) are formed.  Detection uses the plain five-delta
    rule shared with tail states.

    Raises NotConverged (carrying the sequence) when no limit settles.
    """
    n = len(schedule)
    if depth is None:
        depth = n
    if not (1 <= depth <= n):
        raise ValueError(f"depth must lie in [1, {n}], got {depth}")
    sm = np.asarray(s)
    if sm.shape != (tau.dimension, tau.dimension):
        raise ValueError("operand dimension does not match the tuple")
    read = rows_read(phi, tau)
    values = []
    for unit in schedule.steps[:depth]:
        if unit.dimension != tau.dimension:
            raise ValueError("schedule dimension does not match the tuple")
        rows = read[read < unit.cap_r]
        product = np.zeros(sm.shape, dtype=np.result_type(unit.block, sm))
        product[rows] = unit.block[rows] @ sm[:unit.cap_r]
        values.append(eval_functional(phi, tau, product))
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
              depth: int | None = None, phi_id: str | None = None,
              schedule_id: str = "schedule-0") -> DecompositionReport:
    """Recover the trace part of phi on a test set, with certificates.

    For every test operator the report records the recovery sequence, its
    limit, the per-step error bounds, and whether the measured gaps stay
    under the bounds.  Residuals of (phi - recovered part) are checked on the
    finitely supported members, and the sampled norm lower bound is compared
    against the sum of the split upper bounds.  Any NotConverged marks the
    report failed with diagnostics instead of raising.  Each operator's norm
    is the one its TestOperator carries, not taken again.
    """
    tp = combined_trace_part(phi, tau)
    if tp.gauge != gauge and not tp.x.size and not any(y.size for y in tp.ys):
        # a zero trace part carries no gauge content; align it with the caller
        tp = TracePart(x=tp.x, ys=tp.ys, gauge=gauge)
    diagnostics: list[str] = []
    records: list[RecoveryRecord] = []
    limits: dict[str, complex] = {}
    e_norms: dict[str, float] = {}  # e_norm_max of each operator, for the additivity check
    failed = False

    steps = schedule.steps if depth is None else schedule.steps[:depth]
    unit_norms = [unit_commutator_norms(tau, gauge, unit) for unit in steps]
    for op in test_set:
        sm = op.matrix
        target = eval_trace_part(tp, tau, sm)
        s_norm = op.operator_norm
        s_comms = commutator_tuple(tau, sm)
        e_norms[op.op_id] = max(s_norm, tuple_gauge_norm(s_comms, gauge))
        bounds = tuple(
            recovery_error_bound(tp, tau, gauge, unit, sm, s_norm=s_norm,
                                 s_commutators=s_comms, unit_norms=norms)
            for unit, norms in zip(steps, unit_norms))
        try:
            rec = recover_ac_part(phi, schedule, tau, sm, depth=depth)
            seq, limit = rec.sequence, rec.limit
        except NotConverged as err:
            failed = True
            diagnostics.append(f"{op.op_id}: recovery did not converge")
            seq, limit = tuple(err.sequence), None
        gaps = tuple(abs(target - v) for v in seq)
        sound = all(g <= b + SOUNDNESS_TOL for g, b in zip(gaps, bounds))
        if limit is not None:
            limits[op.op_id] = limit
            if not sound:
                failed = True
                diagnostics.append(f"{op.op_id}: gap exceeds certified bound")
        records.append(RecoveryRecord(s_id=op.op_id, sequence=seq, limit=limit,
                                      bounds=bounds, gaps=gaps, sound=sound))

    residuals = []
    for op in test_set:
        if not op.finitely_supported or op.op_id not in limits:
            continue
        try:
            direct = eval_functional(phi, tau, op.matrix)
        except NotConverged:
            failed = True
            diagnostics.append(f"{op.op_id}: direct evaluation did not converge")
            continue
        gap = abs(direct - limits[op.op_id])
        residuals.append((op.op_id, float(gap)))
        if gap > RESIDUAL_TOL:
            failed = True
            diagnostics.append(f"{op.op_id}: residual {gap:.3e} above tolerance")

    x1, ysum = trace_part_norms(tp, gauge)
    upper_trace = x1 + ysum
    upper_tail = 1.0 if phi.singular_part is not None else 0.0
    (lower,), skipped = sampled_lower(lambda s: eval_functional(phi, tau, s),
                                      test_set, (lambda op: e_norms[op.op_id],))
    add_ok = lower <= upper_trace + upper_tail + ADDITIVITY_SLACK
    if not add_ok:
        failed = True
        diagnostics.append(
            f"norm lower bound {lower:.6e} exceeds split upper "
            f"{upper_trace + upper_tail:.6e}")
    additivity = AdditivityRecord(lower=lower, upper_trace=upper_trace,
                                  upper_tail=upper_tail, skipped=skipped,
                                  ok=add_ok)

    idem_gap = 0.0
    trace_only = FunctionalSpec(trace_part=tp, label=f"{phi.label or 'phi'}-trace")
    for op in test_set:
        if op.op_id not in limits:
            continue
        try:
            again = recover_ac_part(trace_only, schedule, tau, op.matrix, depth=depth)
        except NotConverged:
            failed = True
            diagnostics.append(f"{op.op_id}: second-pass recovery did not converge")
            continue
        idem_gap = max(idem_gap, abs(again.limit - limits[op.op_id]))

    return DecompositionReport(
        phi_id=phi_id if phi_id is not None else (phi.label or "phi-0"),
        schedule_id=schedule_id,
        per_s=tuple(records),
        residuals=tuple(residuals),
        additivity=additivity,
        idempotence_gap=float(idem_gap),
        status="failed" if failed else "ok",
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
    """Check idempotence and linearity of the recovery map on a family.

    Per functional: recover once, rebuild a trace-only functional from the
    recovered part, recover again, and record the largest value change.
    Consecutive pairs are combined with `coeffs` and the combination's
    recovery is compared with the matching combination of individual
    recoveries.  NotConverged propagates; these checks assume convergence.
    """
    phis = list(phis)
    first: list[dict[str, complex]] = []
    idem: list[float] = []
    addit: list[float] = []
    for phi in phis:
        lim: dict[str, complex] = {}
        for op in test_set:
            lim[op.op_id] = recover_ac_part(phi, schedule, tau, op.matrix).limit
        first.append(lim)

        tp = combined_trace_part(phi, tau)
        trace_only = FunctionalSpec(trace_part=tp, label="second-pass")
        gap = 0.0
        for op in test_set:
            again = recover_ac_part(trace_only, schedule, tau, op.matrix)
            gap = max(gap, abs(again.limit - lim[op.op_id]))
        idem.append(float(gap))

        x1, ysum = trace_part_norms(tp, gauge)
        upper = x1 + ysum + (1.0 if getattr(phi, "singular_part", None) is not None else 0.0)
        (lower,), _ = sampled_lower(lambda s: eval_functional(phi, tau, s), test_set,
                                    (lambda op: e_norm_max(tau, gauge, op.matrix),))
        addit.append(float(max(0.0, lower - upper)))

    alpha, beta = coeffs
    lin: list[float] = []
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
