"""Seeded generation of test operators."""

from __future__ import annotations

from dataclasses import dataclass
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
    """A test operator with both halves of its norm, taken once when it was drawn.

    `operator_norm` is |S| and `commutator_norm` max_j |[T_j, S]|_gauge in the
    `gauge` it was drawn with; their max is the max-form norm.
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


def generate_test_set(spec: SampleSpec, tau: HermitianTuple,
                      gauge: GaugeSpec) -> tuple[TestOperator, ...]:
    """The identity, then `count` deterministic draws at the tuple's dimension.

    Each nonzero draw is scaled so its max-form norm (operator norm vs
    commutator gauge norm) is one; the identity already has norm one and
    commutes with the tuple.  Both norms and the commutators' row norms are
    carried over the same scale; the commutators themselves are dropped
    before the next draw.
    """
    rng = np.random.default_rng(spec.seed)
    dim = tau.dimension
    eye = np.eye(dim, dtype=np.complex128)
    zeros = np.zeros((tau.n, dim))
    for a in (eye, zeros):
        a.setflags(write=False)
    ops = [TestOperator(op_id="identity", matrix=eye, kind="identity", operator_norm=1.0,
                        commutator_norm=0.0, commutator_rows=zeros, gauge=gauge)]
    for i in range(spec.count):
        kind = spec.kinds[i % len(spec.kinds)]
        m = _sample_matrix(rng, kind, dim, spec.support, spec.bandwidth)
        s_norm = operator_norm(m)
        ks = commutator_tuple(tau, m)
        c_norm = tuple_gauge_norm(ks, gauge)
        rows = commutator_row_norms(ks)
        del ks
        norm = max(s_norm, c_norm)
        if norm > 1e-14:
            m = m / norm
            s_norm /= norm
            c_norm /= norm
            rows /= norm
        for a in (m, rows):
            a.setflags(write=False)
        ops.append(TestOperator(op_id=f"{kind}-{i}", matrix=m, kind=kind, operator_norm=s_norm,
                                commutator_norm=c_norm, commutator_rows=rows, gauge=gauge))
    return tuple(ops)
