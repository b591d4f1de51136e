"""Hermitian operator tuples as banded matrices, with commutator norms.

Built-in models generate each entry from the index and fixed parameters only,
never from the instantiation dimension, so a tuple instantiated at N and at
N' > N agrees on the leading N x N corner.  Together with the declared
bandwidth b this makes commutators against finitely supported matrices exact
under truncation: [T, S] is computed on the leading (support + bandwidth)
corner c and embedded, which is both bitwise reproducible across dimensions and
cheap when the support is small.  On that corner (the whole matrix for a dense
S) the product is taken from the 2b + 1 diagonals of T at O(c^2 b) cost; only
a band as wide as the corner, 2b + 1 >= c, falls back to dense products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .gauges import GaugeSpec, gauge_norm, operator_norm

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class OperatorModelSpec:
    """Recipe for a built-in hermitian tuple.

    parameters:
        diagonal-grid: (steps,) with steps a positive integer count; operator
            i has diagonal entries min(j / (steps * i), 1).  Default (3,).
        lap-pos: (scale, grid) with T_1 = diag(min(j/grid, 1)) and T_2 the
            tridiagonal second-difference matrix times scale.  Default (1, 400).
        shift-parts: none.
    """

    name: str
    n: int = 0
    parameters: tuple[float, ...] = ()

    def __post_init__(self):
        if self.name not in _MODELS:
            raise ValueError(f"unknown model {self.name!r}")
        spec_n, _, _ = _MODELS[self.name]
        n = self.n if self.n else (spec_n or 1)
        if spec_n is not None and n != spec_n:
            raise ValueError(f"model {self.name!r} is a tuple of {spec_n} operators, got n={n}")
        if n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "parameters", tuple(float(v) for v in self.parameters))
        if self.name == "diagonal-grid" and self.parameters and int(self.parameters[0]) < 1:
            raise ValueError("diagonal-grid needs a positive step count")
        if self.name == "lap-pos" and len(self.parameters) > 1 and int(self.parameters[1]) < 1:
            raise ValueError("lap-pos needs a positive grid size")

    @property
    def bandwidth(self) -> int:
        return _MODELS[self.name][1]


def _build_diagonal_grid(spec: OperatorModelSpec, dim: int) -> list[np.ndarray]:
    steps = int(spec.parameters[0]) if spec.parameters else 3
    j = np.arange(1, dim + 1, dtype=float)
    return [np.diag(np.minimum(j / (steps * i), 1.0)).astype(np.complex128)
            for i in range(1, spec.n + 1)]


def _build_lap_pos(spec: OperatorModelSpec, dim: int) -> list[np.ndarray]:
    scale = spec.parameters[0] if spec.parameters else 1.0
    grid = int(spec.parameters[1]) if len(spec.parameters) > 1 else 400
    j = np.arange(1, dim + 1, dtype=float)
    position = np.diag(np.minimum(j / grid, 1.0)).astype(np.complex128)
    lap = np.zeros((dim, dim), dtype=np.complex128)
    np.fill_diagonal(lap, 2.0)
    idx = np.arange(dim - 1)
    lap[idx, idx + 1] = -1.0
    lap[idx + 1, idx] = -1.0
    return [position, scale * lap]


def _build_shift_parts(spec: OperatorModelSpec, dim: int) -> list[np.ndarray]:
    real = np.zeros((dim, dim), dtype=np.complex128)
    imag = np.zeros((dim, dim), dtype=np.complex128)
    idx = np.arange(dim - 1)
    real[idx + 1, idx] = 0.5
    real[idx, idx + 1] = 0.5
    imag[idx + 1, idx] = -0.5j
    imag[idx, idx + 1] = 0.5j
    return [real, imag]


# name -> (fixed n or None, bandwidth, builder)
_MODELS = {
    "diagonal-grid": (None, 0, _build_diagonal_grid),
    "lap-pos": (2, 1, _build_lap_pos),
    "shift-parts": (2, 1, _build_shift_parts),
}


@dataclass(frozen=True)
class HermitianTuple:
    """A finite tuple of hermitian N x N matrices with a certified bandwidth."""

    matrices: tuple[np.ndarray, ...]
    bandwidth: int
    source: OperatorModelSpec | None = None

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("tuple must contain at least one matrix")
        dim = self.matrices[0].shape[0]
        for t in self.matrices:
            if t.ndim != 2 or t.shape != (dim, dim):
                raise ValueError("all tuple members must be square with a common dimension")
            if np.abs(t - t.conj().T).max(initial=0.0) > HERMITIAN_TOL:
                raise ValueError("tuple members must be hermitian")
            if not _is_banded(t, self.bandwidth):
                raise ValueError(f"entry outside the declared bandwidth {self.bandwidth}")

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]

    @classmethod
    def from_matrices(cls, matrices, bandwidth: int | None = None,
                      source: OperatorModelSpec | None = None) -> "HermitianTuple":
        mats = tuple(np.asarray(m, dtype=np.complex128) for m in matrices)
        if bandwidth is None:
            bandwidth = mats[0].shape[0] - 1 if mats else 0
        return cls(matrices=mats, bandwidth=int(bandwidth), source=source)


def _is_banded(matrix: np.ndarray, bandwidth: int) -> bool:
    dim = matrix.shape[0]
    if bandwidth >= dim - 1:
        return True
    i, j = np.nonzero(matrix)
    return bool(np.all(np.abs(i - j) <= bandwidth))


def instantiate_model(spec: OperatorModelSpec, dim: int) -> HermitianTuple:
    """Materialize the leading dim x dim corner of a built-in model."""
    _, bandwidth, builder = _MODELS[spec.name]
    if dim < 2 * bandwidth + 2:
        raise ValueError(f"dimension {dim} too small for bandwidth {bandwidth}")
    mats = builder(spec, dim)
    for m in mats:
        m.setflags(write=False)
    return HermitianTuple(matrices=tuple(mats), bandwidth=bandwidth, source=spec)


def support_size(matrix: np.ndarray) -> int:
    """Smallest s such that the matrix vanishes outside its leading s-corner."""
    m = np.asarray(matrix)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        return 0
    cols = np.flatnonzero(m.any(axis=0))
    return int(max(rows[-1], cols[-1])) + 1


def embed(block: np.ndarray, dim: int) -> np.ndarray:
    """The square block zero-padded into the leading corner of a dim x dim matrix."""
    s = block.shape[0]
    if s > dim:
        raise ValueError(f"support {s} exceeds the instantiated dimension {dim}")
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[:s, :s] = block
    return out


def band_commutator(t: np.ndarray, s: np.ndarray, bandwidth: int) -> np.ndarray:
    """[T, S] = TS - ST for square T of the given bandwidth and S of its size.

    TS and ST are accumulated from the 2b + 1 diagonals of T, one shifted
    copy of S per diagonal, at O(c^2 b) cost for c x c matrices.  A band as
    wide as the matrix takes the dense products instead.  For diagonal S each
    entry receives a single nonzero product from each side, so the result is
    bitwise that of the dense products whenever each product is one rounding:
    for real S, and for T with real or imaginary entries as in the models.
    """
    c = s.shape[0]
    if 2 * bandwidth + 1 >= c:
        return t @ s - s @ t
    out = np.zeros((c, c), dtype=np.result_type(t, s))
    for d in range(-bandwidth, bandwidth + 1):
        diag = np.diagonal(t, d)  # T[i, i + d]
        if d >= 0:
            out[:c - d] += diag[:, None] * s[d:]
            out[:, d:] -= s[:, :c - d] * diag
        else:
            out[-d:] += diag[:, None] * s[:c + d]
            out[:, :c + d] -= s[:, -d:] * diag
    return out


def _banded_commutator(t: np.ndarray, s: np.ndarray, bandwidth: int) -> np.ndarray:
    dim = s.shape[0]
    c = min(dim, support_size(s) + bandwidth)
    if c >= dim:
        return band_commutator(t, s, bandwidth)
    out = np.zeros((dim, dim), dtype=np.result_type(t, s))
    out[:c, :c] = band_commutator(t[:c, :c], s[:c, :c], bandwidth)
    return out


def commutator_tuple(tau: HermitianTuple, s) -> tuple[np.ndarray, ...]:
    """The tuple ([T_1, S], ..., [T_n, S]) with [T, S] = TS - ST."""
    sm = np.asarray(s)
    if sm.ndim != 2 or sm.shape != (tau.dimension, tau.dimension):
        raise ValueError(
            f"operand dimension {sm.shape} does not match tuple dimension {tau.dimension}")
    return tuple(_banded_commutator(t, sm, tau.bandwidth) for t in tau.matrices)


def tuple_gauge_norm(matrices, gauge: GaugeSpec) -> float:
    """max_j of the gauge norms over a tuple of matrices."""
    mats = tuple(matrices)
    if not mats:
        raise ValueError("tuple_gauge_norm needs a nonempty tuple")
    return max(gauge_norm(gauge, m) for m in mats)


def e_norm_sum(tau: HermitianTuple, gauge: GaugeSpec, s) -> float:
    """Operator norm of S plus the tuple gauge norm of its commutators.

    This is the submultiplicative norm with isometric involution on the
    commutant-modulo-ideal algebra.
    """
    return operator_norm(s) + tuple_gauge_norm(commutator_tuple(tau, s), gauge)


def e_norm_max(tau: HermitianTuple, gauge: GaugeSpec, s) -> float:
    """max of the operator norm of S and the tuple gauge norm of its commutators."""
    return max(operator_norm(s), tuple_gauge_norm(commutator_tuple(tau, s), gauge))
