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
    NormBounds,
    NotConverged,
    TracePart,
    _check_margin,
    _eval_split,
    _norm_bracket,
    detect_limit,
    rows_read,
    trace_part_norms,
)
from .gauges import GaugeSpec, _check_gauge, _check_tuple, _rect_norm
from .idealops import HermitianTuple, commutator_strip, embed
from .qau import UnitElement, UnitSchedule
from .sampling import TestOperator

RESIDUAL_TOL = 1e-8
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
    phi reads (`rows_read`) are formed.  Detection takes `detect_limit`'s
    defaults, shared with tail states.  To recover along fewer steps, pass a
    schedule built on fewer windows.  The schedule must be built on tau.

    Raises NotConverged carrying the recovery values: all of them when no
    limit settles, those before the step when phi fails to converge there.
    """
    _check_tuple(tau, schedule=[schedule])
    return _recover(phi, schedule, tau, s)[0]


def _recover(phi, schedule: UnitSchedule, tau: HermitianTuple, s):
    """`recover_ac_part` on a schedule built on tau, and the values of phi's trace
    part at the same A_k S."""
    sm = np.asarray(s)
    if sm.shape != (tau.dimension, tau.dimension):
        raise ValueError("operand dimension does not match the tuple")
    read = rows_read(phi, tau)
    values, traces = [], []
    for k, unit in enumerate(schedule.steps, start=1):
        rows = read[read < unit.cap_r]
        product = np.zeros(sm.shape, dtype=np.result_type(unit.block, sm))
        product[rows] = unit.block[rows] @ sm[:unit.cap_r]
        try:
            value, trace = _eval_split(phi, tau, product)
        except NotConverged as err:
            raise NotConverged(f"step {k}: {err}", values) from None
        values.append(value)
        traces.append(trace)
    limit = detect_limit(values)
    return RecoveryResult(sequence=tuple(values), limit=limit), traces


def _trace_factors(tp: TracePart, tau: HermitianTuple, units):
    """Per functional: `trace_part_norms`, and |X - X A|_1 for each unit
    (None when X vanishes), from A's cap block: X - X A vanishes outside its
    leading sx x c rectangle."""
    _check_margin(tp, tau)
    x1, y_norms = trace_part_norms(tp)
    sx = tp.x.shape[0]
    x_terms = [None] * len(units)
    for i, unit in enumerate(units if sx and tp.x.any() else ()):
        c = min(unit.dimension, max(sx, unit.cap_r))
        x_terms[i] = _rect_norm(_TRACE_NORM,
                                embed(tp.x, c)[:sx] - tp.x @ embed(unit.block, c)[:sx])
    return x1, y_norms, x_terms


def _blocks(tps, factors) -> set:
    """The (j, sy) of each Y_j of nonzero norm, of support sy: where its terms are taken."""
    return {(j, y.shape[0]) for tp, (_, y_norms, _) in zip(tps, factors)
            for j, (y, yn) in enumerate(zip(tp.ys, y_norms)) if yn}


def _unit_terms(gauge: GaugeSpec, tau: HermitianTuple, unit: UnitElement, blocks) -> dict:
    """{(j, sy): |[T_j, A][:sy, :]|_gauge}: the sy x (r + b) rectangle where the
    leading sy rows of [T_j, A] live, from A's leading sy + b rows."""
    top = max((sy for _, sy in blocks), default=0)
    strips = commutator_strip(tau, unit.block, top, tau.commutator_corner(unit.cap_r))
    return {(j, sy): _rect_norm(gauge, strips[j, :sy]) for j, sy in blocks}


def _shrunk_terms(gauge: GaugeSpec, tau: HermitianTuple, units, blocks, s) -> list:
    """Per unit A, {(j, sy): |((I - A)[T_j, S])[:sy, :sy]|_gauge}.

    One strip K_j of [T_j, S], its leading max(R, sy) rows and sy columns for
    the largest cap R and support sy, serves every unit: the block is
    K_j[:sy, :sy] - A[:sy, :r] K_j[:r, :sy] for the unit A of cap r.
    """
    top = max((sy for _, sy in blocks), default=0)
    ks = commutator_strip(tau, s, max([top] + [unit.cap_r for unit in units]), top)
    terms = []
    for unit in units:
        r, a = unit.cap_r, unit.block
        terms.append({})
        for j, sy in blocks:
            m = np.array(ks[j, :sy, :sy], dtype=np.result_type(a, ks))
            m[:r] -= a[:sy] @ ks[j, :r, :sy]
            terms[-1][j, sy] = _rect_norm(gauge, m)
    return terms


def _certificate(x_term, tp: TracePart, y_norms, shrunk, unit_terms, s_norm: float) -> float:
    """The three terms of `recovery_error_bound`, summed from their factors."""
    total = 0.0 if x_term is None else x_term * s_norm
    for j, (y, yn) in enumerate(zip(tp.ys, y_norms)):
        if yn:
            total += (shrunk[j, y.shape[0]] + unit_terms[j, y.shape[0]] * s_norm) * yn
    return float(total)


def recovery_error_bound(tp: TracePart, tau: HermitianTuple, gauge: GaugeSpec,
                         unit: UnitElement, op: TestOperator) -> float:
    """Certified bound on |trace part at S minus trace part at A S|, S = op.matrix.

    Three terms, each exact at the instantiated dimension, with P_j the
    projection onto the leading sy_j coordinates, where Y_j lives:

        |X - X A|_1 * ||S||
      + sum_j |P_j (I - A)[T_j, S] P_j|_gauge * |Y_j|_dual
      + sum_j |P_j [T_j, A]|_gauge * |Y_j|_dual * ||S||

    Tr(Y_j M) = Tr(Y_j P_j M P_j) and [T_j, (I - A) S] = (I - A)[T_j, S]
    - [T_j, A] S, so Hoelder's inequality bounds the gap by these terms, and
    each is at most the unrestricted term.  A unit that is the identity on
    the rows the trace part reads (floor at least sx and sy_j + b) has every
    term exactly 0.  ||S|| is the norm op carries, which must be in this
    gauge and on tau (`measure_test_operator` takes it).  Each norm is taken
    on the singular values of a rectangle at most cap + b wide (`_rect_norm`).
    `decompose` sums the same factors, each taken once at the level it
    depends on.
    """
    _check_gauge(gauge, trace_part=[tp], test_set=[op])
    factors = _trace_factors(tp, tau, [unit])
    if op.matrix.shape != (tau.dimension,) * 2 or unit.dimension != tau.dimension:
        raise ValueError("operand or unit dimension does not match the tuple")
    _check_tuple(tau, test_set=[op])
    _, y_norms, (x_term,) = factors
    blocks = _blocks([tp], [factors])
    (shrunk,) = _shrunk_terms(gauge, tau, [unit], blocks, op.matrix)
    return _certificate(x_term, tp, y_norms, shrunk, _unit_terms(gauge, tau, unit, blocks),
                        op.operator_norm)


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
class DecompositionReport:
    phi_id: str
    schedule_id: str
    per_s: tuple[RecoveryRecord, ...]
    residuals: tuple[tuple[str, float], ...]
    additivity: NormBounds
    idempotence_gap: float
    status: str
    diagnostics: tuple[str, ...]


def decompose(phis, schedule: UnitSchedule, tau: HermitianTuple, gauge: GaugeSpec,
              test_set: tuple[TestOperator, ...]) -> tuple[DecompositionReport, ...]:
    """Recover the trace part of each FunctionalSpec in phis, with certificates.

    One report per functional, in order.  Per test operator, one pass forms
    each A_k S and reads off it phi's value, for the recovery sequence, and
    its trace part's value, whose limit gives the idempotence gap.  At S the
    trace part's value is the target of the per-step gaps, which the bounds
    of `recovery_error_bound` must dominate, and a summand of phi(S), which
    gives the residual on finitely supported members and the sampled norm
    lower bound, checked against the split upper bounds.  A NotConverged
    becomes a diagnostic; a report fails exactly when it has diagnostics,
    per operator in test-set order, the additivity one last.  Each factor of
    the restricted terms is formed once, at the level it depends on, for
    every (member j, support sy) that some Y_j of nonzero norm needs: per
    unit |P_j [T_j, A_k]|, per operator |P_j (I - A_k)[T_j, S] P_j| for every
    step, from one strip of each [T_j, S], and per functional |Y_j|_dual and
    |X - X A_k|_1.  ||S|| is the norm each TestOperator carries, which must be
    in this gauge and on tau.  No commutator or norm operand is N x N.
    """
    phis = tuple(phis)
    tps = [phi.trace_part or TracePart.zero(tau.n, gauge) for phi in phis]
    _check_gauge(gauge, trace_part=tps, schedule=[schedule], test_set=test_set)
    _check_tuple(tau, schedule=[schedule], test_set=test_set)
    steps = schedule.steps
    factors = [_trace_factors(tp, tau, steps) for tp in tps]
    blocks = _blocks(tps, factors)
    unit_terms = [_unit_terms(gauge, tau, unit, blocks) for unit in steps]
    shrunk = [_shrunk_terms(gauge, tau, steps, blocks, op.matrix) for op in test_set]

    reports = []
    for i, (phi, tp, (x1, y_norms, x_terms)) in enumerate(zip(phis, tps, factors)):
        diagnostics, records, residuals, directs = [], [], [], []
        idem_gap = 0.0
        for op, op_shrunk in zip(test_set, shrunk):
            sm = op.matrix
            direct, target = _eval_split(phi, tau, sm, strict=False)
            directs.append(direct)
            bounds = tuple(_certificate(x, tp, y_norms, sn, un, op.operator_norm)
                           for x, sn, un in zip(x_terms, op_shrunk, unit_terms))
            try:
                rec, traces = _recover(phi, schedule, tau, sm)
                seq, limit = rec.sequence, rec.limit
            except NotConverged as err:
                diagnostics.append(f"{op.op_id}: recovery did not converge: {err}")
                seq, limit = err.sequence, None
            gaps = tuple(abs(target - v) for v in seq)
            sound = all(g <= b + SOUNDNESS_TOL for g, b in zip(gaps, bounds))
            records.append(RecoveryRecord(s_id=op.op_id, sequence=seq, limit=limit,
                                          bounds=bounds, gaps=gaps, sound=sound))
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
                again = detect_limit(traces)
            except NotConverged:
                diagnostics.append(f"{op.op_id}: second-pass recovery did not converge")
            else:
                idem_gap = max(idem_gap, abs(again - limit))

        additivity = _norm_bracket(phi, x1, y_norms, directs, test_set)
        if not additivity.ok:
            diagnostics.append(f"norm lower bound {additivity.lower:.6e} "
                               f"exceeds split upper {additivity.upper:.6e}")

        reports.append(DecompositionReport(
            phi_id=phi.label or f"phi-{i}",
            schedule_id=f"{schedule.mode}-{len(schedule)}",
            per_s=tuple(records),
            residuals=tuple(residuals),
            additivity=additivity,
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
                     gauge: GaugeSpec, test_set: tuple[TestOperator, ...]) -> ProjectionReport:
    """Check idempotence, linearity and the norm sandwich of the recovery map.

    One `decompose` call covers every FunctionalSpec and, for each consecutive
    pair (phi_i, phi_i+1), the trace part of 2 phi_i - phi_i+1 as its own
    functional, each block 2 B - C with B and C embedded at the larger
    support.  The checks read its reports: the idempotence gap; the
    additivity gap, how far the sampled norm lower bound exceeds the split
    upper bound; and per pair the linearity gap, between the recovered limit
    of the combination and 2 lim a - lim b.  A singular part needs no
    combining: it vanishes on every A_k S once its windows lie past the caps,
    which the recovery assumes.  Raises NotConverged when a recovery, the
    combinations' included, does not settle; these checks assume convergence.
    """
    def mix(u, v):
        size = max(u.shape[0], v.shape[0])
        return 2.0 * embed(u, size) - embed(v, size)

    phis = tuple(phis)
    tps = [phi.trace_part or TracePart.zero(tau.n, gauge) for phi in phis]
    combos = tuple(FunctionalSpec(trace_part=TracePart(mix(a.x, b.x), tuple(map(mix, a.ys, b.ys)),
                                                       gauge))
                   for a, b in zip(tps[0::2], tps[1::2]))
    reports = decompose(phis + combos, schedule, tau, gauge, test_set)
    for rec in (rec for report in reports for rec in report.per_s):
        if rec.limit is None:
            raise NotConverged(f"{rec.s_id}: recovery did not converge", rec.sequence)

    reports, mixed = reports[:len(phis)], reports[len(phis):]
    lin = [max((abs(c.limit - (2.0 * a.limit - b.limit))
                for a, b, c in zip(first.per_s, second.per_s, combo.per_s)), default=0.0)
           for first, second, combo in zip(reports[0::2], reports[1::2], mixed)]
    return ProjectionReport(
        idempotence_gaps=tuple(report.idempotence_gap for report in reports),
        linearity_gaps=tuple(float(gap) for gap in lin),
        additivity_gaps=tuple(max(0.0, r.additivity.lower - r.additivity.upper)
                              for r in reports))
