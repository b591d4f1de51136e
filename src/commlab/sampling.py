"""Seeded generation of test operators."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .gauges import GaugeSpec
from .idealops import HermitianTuple, e_norm_max

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
    op_id: str
    matrix: np.ndarray
    kind: str

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
    commutator gauge norm) is one; the identity already has norm one.
    """
    rng = np.random.default_rng(spec.seed)
    dim = tau.dimension
    eye = np.eye(dim, dtype=np.complex128)
    eye.setflags(write=False)
    ops = [TestOperator(op_id="identity", matrix=eye, kind="random-hermitian")]
    for i in range(spec.count):
        kind = spec.kinds[i % len(spec.kinds)]
        m = _sample_matrix(rng, kind, dim, spec.support, spec.bandwidth)
        norm = e_norm_max(tau, gauge, m)
        if norm > 1e-14:
            m = m / norm
        m.setflags(write=False)
        ops.append(TestOperator(op_id=f"{kind}-{i}", matrix=m, kind=kind))
    return tuple(ops)
