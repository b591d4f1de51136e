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
from .gauges import (GaugeSpec, _check_gauge, _check_tuple, _frobenius, _sorted_gauge_value,
                     diagonal_or_none, gauge_norm, schatten)
from .idealops import HermitianTuple, commutator_tuple, embed
from .qau import UnitElement, UnitSchedule, _member_norms
from .sampling import TestOperator

RESIDUAL_TOL = 1e-8
SOUNDNESS_TOL = 1e-9
_FROBENIUS = schatten(2.0)


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
        rows = embed(tp.x, c)[:sx] - tp.x @ embed(unit.block, c)[:sx]
        x_terms[i] = _sorted_gauge_value(_TRACE_NORM, np.linalg.svd(rows, compute_uv=False))
    return x1, y_norms, x_terms


def _by_rows(gauge: GaugeSpec, diag) -> bool:
    """Whether `_shrunk_norms` takes a unit with diagonal diag (None when the
    unit is not diagonal) from the row norms of [T_j, S] alone."""
    return diag is not None and gauge == _FROBENIUS


def _shrunk_norms(gauge: GaugeSpec, unit: UnitElement, diag, rows, commutators,
                  wanted) -> list:
    """Per operator and unit: |(I - A) K_j|_gauge for each wanted, nonzero
    K_j = [T_j, S], else None; diag is A's diagonal, None when A is not diagonal.

    At Schatten-2 a diagonal A (a ramp) scales row i < r of K_j by 1 - a_i, so
    the norm is the Frobenius norm of the row norms of K_j (`rows`, as
    `commutator_row_norms` gives them) scaled the same way, and `commutators`
    is not read.  Otherwise the norm is taken of (I - A) K_j, formed from
    `commutators`: a diagonal A scales the leading r rows of K_j, the same
    bits as A @ K_j.
    """
    r, a = unit.cap_r, unit.block
    norms = [None] * len(wanted)
    if _by_rows(gauge, diag):
        factors = np.abs(1.0 - diag)
        for j, (nu, want) in enumerate(zip(rows, wanted)):
            if want and nu.any():
                norms[j] = _frobenius(np.concatenate((factors * nu[:r], nu[r:])))
        return norms
    for j, (k, want) in enumerate(zip(commutators, wanted)):
        if want and k.any():
            shrunk = np.array(k, dtype=np.complex128)
            shrunk[:r] -= a @ k[:r] if diag is None else diag[:, None] * k[:r]
            norms[j] = gauge_norm(gauge, shrunk)
    return norms


def _shrunk_by_unit(gauge: GaugeSpec, tau: HermitianTuple, units, diags, op: TestOperator,
                    wanted) -> list:
    """`_shrunk_norms` of op for each unit; diags are the units' `diagonal_or_none`.

    The tuple [T_j, S] is formed only when some unit is off the row route (not
    a ramp, or not Schatten-2), and never for an S whose carried commutator
    norm is 0 (the identity).
    """
    commutators = ()
    if any(wanted) and op.commutator_norm and not all(_by_rows(gauge, d) for d in diags):
        commutators = commutator_tuple(tau, op.matrix)
    return [_shrunk_norms(gauge, unit, d, op.commutator_rows, commutators, wanted)
            for unit, d in zip(units, diags)]


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
                         unit: UnitElement, op: TestOperator) -> float:
    """Certified bound on |trace part at S minus trace part at A S|, S = op.matrix.

    Three terms, each exact at the instantiated dimension:

        |X - X A|_1 * ||S||
      + sum_j |(I - A)[S, T_j]|_gauge * |Y_j|_dual
      + sum_j |[A, T_j]|_gauge * |Y_j|_dual * ||S||

    ||S|| and the row norms of [T_j, S] are those op carries, which must be
    in this gauge and on tau (`measure_test_operator` takes them).  At Schatten-2 a
    diagonal unit (a ramp) takes the middle term from the row norms alone;
    any other unit or gauge forms the tuple [T_j, S].  `decompose` sums the
    same factors, each taken once at the level it depends on.
    """
    _check_gauge(gauge, trace_part=[tp], test_set=[op])
    _, y_norms, (x_term,) = _trace_factors(tp, tau, [unit])
    if op.matrix.shape != (tau.dimension,) * 2 or unit.dimension != tau.dimension:
        raise ValueError("operand or unit dimension does not match the tuple")
    _check_tuple(tau, test_set=[op])
    (shrunk,) = _shrunk_by_unit(gauge, tau, [unit], [diagonal_or_none(unit.block)], op, y_norms)
    return _certificate(x_term, shrunk, _member_norms(tau, gauge, unit.block), y_norms,
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
    per operator in test-set order, the additivity one last.  Each bound
    factor is formed once, at the level it depends on: per unit, per
    operator or per functional.  The norms of the units and of S are those the
    schedule and the TestOperators carry, which must be in this gauge and on tau; at
    Schatten-2 a ramp's |(I - A_k)[T_j, S]| comes from the carried row norms,
    so a ramp schedule forms no N x N commutator.
    """
    phis = tuple(phis)
    tps = [phi.trace_part or TracePart.zero(tau.n, gauge) for phi in phis]
    _check_gauge(gauge, trace_part=tps, schedule=[schedule], test_set=test_set)
    _check_tuple(tau, schedule=[schedule], test_set=test_set)
    steps, member_norms = schedule.steps, schedule.member_norms
    factors = [_trace_factors(tp, tau, steps) for tp in tps]
    wanted = [any(column) for column in zip(*(y_norms for _, y_norms, _ in factors))]
    diags = [diagonal_or_none(unit.block) for unit in steps]
    shrunk = [_shrunk_by_unit(gauge, tau, steps, diags, op, wanted) for op in test_set]

    reports = []
    for i, (phi, (x1, y_norms, x_terms)) in enumerate(zip(phis, factors)):
        diagnostics, records, residuals, directs = [], [], [], []
        idem_gap = 0.0
        for op, op_shrunk in zip(test_set, shrunk):
            sm = op.matrix
            direct, target = _eval_split(phi, tau, sm, strict=False)
            directs.append(direct)
            bounds = tuple(_certificate(x, sn, an, y_norms, op.operator_norm)
                           for x, sn, an in zip(x_terms, op_shrunk, member_norms))
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

    One `decompose` call covers every FunctionalSpec, and the checks read its
    reports: the idempotence gap; the additivity gap, how far the sampled norm
    lower bound exceeds the split upper bound; and for consecutive pairs the
    linearity gap, between the limit detected on the sequence 2 a_k - b_k of
    the pair's recovery values and 2 lim a - lim b.  Evaluation is linear in
    the functional, so that sequence is the recovery of 2 phi_i - phi_{i+1}.
    Raises NotConverged when a recovery, or a pair's combination, does not
    settle; these checks assume convergence.
    """
    reports = decompose(phis, schedule, tau, gauge, test_set)
    for rec in (rec for report in reports for rec in report.per_s):
        if rec.limit is None:
            raise NotConverged(f"{rec.s_id}: recovery did not converge", rec.sequence)

    lin = []
    for first, second in zip(reports[0::2], reports[1::2]):
        gap = 0.0
        for a, b in zip(first.per_s, second.per_s):
            mixed = detect_limit([2.0 * u - v for u, v in zip(a.sequence, b.sequence)])
            gap = max(gap, abs(mixed - (2.0 * a.limit - b.limit)))
        lin.append(float(gap))

    return ProjectionReport(
        idempotence_gaps=tuple(report.idempotence_gap for report in reports),
        linearity_gaps=tuple(lin),
        additivity_gaps=tuple(max(0.0, r.additivity.lower - r.additivity.upper)
                              for r in reports))
