"""Seeded generation of test operators."""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .gauges import GaugeSpec, operator_norm
from .idealops import HermitianTuple, commutator_row_norms, commutator_tuple, tuple_gauge_norm

KINDS = ("random-hermitian", "banded", "finitely-supported")


@dataclass(frozen=True)
class SampleSpec:
    seed: int
    count: int = 6
    kinds: tuple[str, ...] = ("random-hermitian",)
    support: int = 6
    bandwidth: int = 3

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        for kind in self.kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown test operator kind {kind!r}")
        if not self.kinds and self.count:
            raise ValueError("kinds must be nonempty")


@dataclass(frozen=True)
class TestOperator:
    """A test operator with both halves of its norm, taken once by `measure_test_operator`.

    `operator_norm` is |S| and `commutator_norm` max_j |[T_j, S]|_gauge in the
    `gauge` it was measured in, against the tuple `tau`; their max is the
    max-form norm.
    `commutator_rows` is the read-only (n, N) array of the row norms of the
    [T_j, S] (`commutator_row_norms`), from which the recovery bounds take
    |(I - A)[T_j, S]|_2 for a diagonal unit A without forming [T_j, S] again.
    """

    op_id: str
    matrix: np.ndarray
    kind: str
    operator_norm: float
    commutator_norm: float
    commutator_rows: np.ndarray
    gauge: GaugeSpec
    tau: HermitianTuple

    @property
    def finitely_supported(self) -> bool:
        return self.kind == "finitely-supported"


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _sample_matrix(rng: np.random.Generator, kind: str, dim: int,
                   support: int, bandwidth: int) -> np.ndarray:
    if kind == "random-hermitian":
        return _random_hermitian(rng, dim)
    if kind == "banded":
        m = _random_hermitian(rng, dim)
        i, j = np.indices(m.shape, sparse=True)
        m[np.abs(i - j) > bandwidth] = 0.0
        return m
    s = min(support, dim)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[:s, :s] = _random_hermitian(rng, s)
    return out


def measure_test_operator(op_id: str, kind: str, matrix, tau: HermitianTuple,
                          gauge: GaugeSpec) -> TestOperator:
    """The `TestOperator` of S = matrix as it stands, its norms taken in `gauge`.

    One `commutator_tuple` gives both `commutator_norm` and `commutator_rows`,
    and is dropped on return.  The matrix is carried as a read-only view.
    """
    m = np.asarray(matrix).view()
    s_norm = operator_norm(m)
    ks = commutator_tuple(tau, m)
    rows = commutator_row_norms(ks)
    for a in (m, rows):
        a.setflags(write=False)
    return TestOperator(op_id=op_id, matrix=m, kind=kind, operator_norm=s_norm,
                        commutator_norm=tuple_gauge_norm(ks, gauge), commutator_rows=rows,
                        gauge=gauge, tau=tau)


def generate_test_set(spec: SampleSpec, tau: HermitianTuple,
                      gauge: GaugeSpec) -> tuple[TestOperator, ...]:
    """The identity, then `count` deterministic draws at the tuple's dimension.

    Each draw is measured (`measure_test_operator`), and each nonzero one
    scaled so its max-form norm (operator norm vs commutator gauge norm) is
    one, its carried norms and row norms over the same scale; the identity
    already has norm one and commutes with the tuple.
    """
    rng = np.random.default_rng(spec.seed)
    dim = tau.dimension
    eye = np.eye(dim, dtype=np.complex128)
    zeros = np.zeros((tau.n, dim))
    for a in (eye, zeros):
        a.setflags(write=False)
    ops = [TestOperator(op_id="identity", matrix=eye, kind="identity", operator_norm=1.0,
                        commutator_norm=0.0, commutator_rows=zeros, gauge=gauge, tau=tau)]
    for i in range(spec.count):
        kind = spec.kinds[i % len(spec.kinds)]
        op = measure_test_operator(f"{kind}-{i}", kind, _sample_matrix(
            rng, kind, dim, spec.support, spec.bandwidth), tau, gauge)
        norm = max(op.operator_norm, op.commutator_norm)
        if norm > 1e-14:
            m, rows = op.matrix / norm, op.commutator_rows
            # in place: a fresh (n, N) array here raised decompose-quotient's peak RSS
            # from 87.3 to 89.3 MB in 13 of 24 bench runs (1 of 14 in place)
            rows.setflags(write=True)
            rows /= norm
            for a in (m, rows):
                a.setflags(write=False)
            op = replace(op, matrix=m, operator_norm=op.operator_norm / norm,
                         commutator_norm=op.commutator_norm / norm)
        ops.append(op)
    return tuple(ops)
