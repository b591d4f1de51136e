"""Hermitian operator tuples as banded matrices, with commutator norms.

Built-in models generate each entry from the index and fixed parameters only,
never from the instantiation dimension, so a tuple instantiated at N and at
N' > N agrees on the leading N x N corner.  Together with the declared
bandwidth b this makes commutators against finitely supported matrices exact
under truncation: `corner_commutators` computes [T, S] on the leading
(support + bandwidth) corner c, which is both bitwise reproducible across
dimensions and cheap when the support is small.  Every [T, S] in the package
goes through `band_commutator`, which takes a large corner from the 2b + 1
diagonals of T at O(c^2 b) cost and a small one, or a band as wide as it, by
dense products.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .gauges import GaugeSpec, gauge_norm, operator_norm, support_size

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
    return [np.diag(np.minimum(j / (steps * i), 1.0)) for i in range(1, spec.n + 1)]


def _build_lap_pos(spec: OperatorModelSpec, dim: int) -> list[np.ndarray]:
    scale = spec.parameters[0] if spec.parameters else 1.0
    grid = int(spec.parameters[1]) if len(spec.parameters) > 1 else 400
    j = np.arange(1, dim + 1, dtype=float)
    position = np.diag(np.minimum(j / grid, 1.0))
    lap = np.zeros((dim, dim))
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
    """A finite tuple of hermitian N x N matrices with a certified bandwidth.

    The members share one field, `dtype`: float64 when no member has a
    nonzero imaginary part, complex128 otherwise.  A real tuple keeps every
    unit computed against it real, since the real part of a unit is a unit
    with commutators no larger.
    """

    matrices: tuple[np.ndarray, ...]
    bandwidth: int

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("tuple must contain at least one matrix")
        mats = tuple(np.asarray(t) for t in self.matrices)
        if any(np.iscomplexobj(t) and t.imag.any() for t in mats):
            mats = tuple(np.ascontiguousarray(t, dtype=np.complex128) for t in mats)
        else:
            mats = tuple(np.ascontiguousarray(t.real, dtype=np.float64) for t in mats)
        object.__setattr__(self, "matrices", mats)
        dim = self.matrices[0].shape[0]
        for t in self.matrices:
            if t.ndim != 2 or t.shape != (dim, dim):
                raise ValueError("all tuple members must be square with a common dimension")
            if not np.all(np.isfinite(t)):
                raise ValueError("tuple members must have finite entries")
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

    @property
    def dtype(self) -> np.dtype:
        return self.matrices[0].dtype

    @classmethod
    def from_matrices(cls, matrices, bandwidth: int | None = None) -> "HermitianTuple":
        mats = tuple(np.asarray(m) for m in matrices)
        if bandwidth is None:
            bandwidth = mats[0].shape[0] - 1 if mats else 0
        return cls(matrices=mats, bandwidth=int(bandwidth))


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
    tau = HermitianTuple(matrices=tuple(builder(spec, dim)), bandwidth=bandwidth)
    for m in tau.matrices:
        m.setflags(write=False)
    return tau


def embed(block: np.ndarray, dim: int) -> np.ndarray:
    """The square block zero-padded into the leading corner of a dim x dim matrix."""
    s = block.shape[0]
    if s > dim:
        raise ValueError(f"support {s} exceeds the instantiated dimension {dim}")
    out = np.zeros((dim, dim), dtype=np.result_type(block, float))
    out[:s, :s] = block
    return out


DENSE_CORNER = 64


def band_commutator(t: np.ndarray, s: np.ndarray, bandwidth: int) -> np.ndarray:
    """[T_c, S] for c x c S, with T_c the leading c-corner of T (bandwidth b).

    Both operands broadcast over a leading tuple axis: T may be a stack
    (n, N, N) of members and S a c x c matrix or a stack (n, c, c), and the
    result is the stack of the members' commutators, each slice with the
    bits of its own call.  Above DENSE_CORNER, with 2b + 1 < c, T_c S and
    S T_c are accumulated from the 2b + 1 diagonals, one shifted copy of S
    each, at O(c^2 b) cost; other corners take the dense products.  The
    routes cross near c = 64 (one BLAS thread, lap-pos: dense 9.6 us against
    47 us at c = 11, 145 against 149 us at 64, 1.40 ms against 0.46 ms at
    145).  For diagonal S each entry gets a single nonzero product from each
    side, so both routes give bitwise the dense products whenever each
    product is one rounding: for real S, and for T with real or imaginary
    entries as in the models.
    """
    c = s.shape[-1]
    t = t[..., :c, :c]
    field = np.promote_types(t.dtype, s.dtype)
    # A real T meets a complex S in S's field: numpy's mixed-type products
    # cast inside every call, which costs more than casting T's entries once.
    if 2 * bandwidth + 1 >= c or c <= DENSE_CORNER:
        t = t.astype(field, copy=False)
        return t @ s - s @ t
    out = np.zeros(max(t.shape, s.shape, key=len), dtype=field)  # the stacked shape
    for d in range(-bandwidth, bandwidth + 1):
        diag = np.diagonal(t, d, axis1=-2, axis2=-1).astype(field, copy=False)  # T[i, i + d]
        rows, cols = diag[..., :, None], diag[..., None, :]
        if d >= 0:
            out[..., :c - d, :] += rows * s[..., d:, :]
            out[..., d:] -= s[..., :c - d] * cols
        else:
            out[..., -d:, :] += rows * s[..., :c + d, :]
            out[..., :c + d] -= s[..., -d:] * cols
    return out


def corner_commutators(tau: HermitianTuple, block: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tuple [T_j, B] on its leading c = min(N, s + b) corner, for s x s B.

    B stands for the N x N operator supported in its leading s-corner; the
    commutators of such an operator vanish outside the c-corner.
    """
    c = min(tau.dimension, block.shape[0] + tau.bandwidth)
    a = block if block.shape[0] == c else embed(block, c)  # no N x N copy at full support
    return tuple(band_commutator(t, a, tau.bandwidth) for t in tau.matrices)


def commutator_tuple(tau: HermitianTuple, s) -> tuple[np.ndarray, ...]:
    """The tuple ([T_1, S], ..., [T_n, S]) with [T, S] = TS - ST."""
    sm = np.asarray(s)
    dim = tau.dimension
    if sm.ndim != 2 or sm.shape != (dim, dim):
        raise ValueError(
            f"operand dimension {sm.shape} does not match tuple dimension {dim}")
    size = support_size(sm)
    ks = corner_commutators(tau, sm[:size, :size])
    return ks if ks[0].shape[0] == dim else tuple(embed(k, dim) for k in ks)


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
