"""Hermitian operator tuples stored by their 2b + 1 diagonals, with commutator norms.

Built-in models generate each entry from the index and fixed parameters only,
never from the instantiation dimension, so a tuple instantiated at N and at
N' > N agrees on the leading N x N corner.  A tuple of n members costs
n(2b + 1)N numbers, and dense members are formed only as the leading corners
that a computation reads (`HermitianTuple.corner`).  Together with the
declared bandwidth b this makes commutators against finitely supported
matrices exact under truncation: `commutator_tuple` computes [T, S] on the
leading (support + bandwidth) corner c, which is both bitwise reproducible
across dimensions and cheap when the support is small.  Every [T, S] in the
package goes through `band_commutator`, which takes a large corner from the
2b + 1 diagonals of T at O(c^2 b) cost and a small one, or a band as wide as
it, by dense products.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .gauges import GaugeSpec, _divide, _range_scale, gauge_norm, operator_norm, support_size

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


def _build_diagonal_grid(spec: OperatorModelSpec, dim: int) -> np.ndarray:
    steps = int(spec.parameters[0]) if spec.parameters else 3
    j = np.arange(1, dim + 1, dtype=float)
    return np.stack([np.minimum(j / (steps * i), 1.0) for i in range(1, spec.n + 1)])[:, None]


def _build_lap_pos(spec: OperatorModelSpec, dim: int) -> np.ndarray:
    scale = spec.parameters[0] if spec.parameters else 1.0
    grid = int(spec.parameters[1]) if len(spec.parameters) > 1 else 400
    diagonals = np.zeros((2, 3, dim))
    diagonals[0, 1] = np.minimum(np.arange(1, dim + 1, dtype=float) / grid, 1.0)
    # python floats: a scale beyond the float range gives inf here, refused as non-finite
    diagonals[1, 1] = 2.0 * scale
    diagonals[1, 0, 1:] = diagonals[1, 2, :-1] = -1.0 * scale
    return diagonals


def _build_shift_parts(spec: OperatorModelSpec, dim: int) -> np.ndarray:
    diagonals = np.zeros((2, 3, dim), dtype=np.complex128)
    diagonals[0, 0, 1:] = diagonals[0, 2, :-1] = 0.5
    diagonals[1, 0, 1:] = -0.5j
    diagonals[1, 2, :-1] = 0.5j
    return diagonals


# name -> (fixed n or None, bandwidth, builder of the diagonals)
_MODELS = {
    "diagonal-grid": (None, 0, _build_diagonal_grid),
    "lap-pos": (2, 1, _build_lap_pos),
    "shift-parts": (2, 1, _build_shift_parts),
}


def _band(bandwidth: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(slot, row, col) of each band entry T[row, col] of a size x size matrix,
    which is stored at diagonals[:, slot, row]."""
    cols = np.arange(size) + np.arange(-bandwidth, bandwidth + 1)[:, None]
    slot, row = np.nonzero((cols >= 0) & (cols < size))
    return slot, row, cols[slot, row]


@dataclass(frozen=True)
class HermitianTuple:
    """A tuple of n hermitian N x N matrices of bandwidth b, stored by diagonals.

    diagonals[j, b + d, i] holds T_j[i, i + d], in shape (n, 2b + 1, N); slots
    whose column falls outside the matrix hold zero.  Both halves of the band
    are stored, so entries below the diagonal keep their own bits, signed
    zeros included.  The storage is read-only, and dense members exist only
    as the corners that `corner` builds.  The members share one field,
    `dtype`: float64 when no entry has a nonzero imaginary part, complex128
    otherwise.  A real tuple keeps every unit computed against it real,
    since the real part of a unit is a unit with commutators no larger.
    """

    diagonals: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonals)
        if d.ndim != 3 or not d.shape[0] or d.shape[1] % 2 == 0:
            raise ValueError("diagonals must have shape (n, 2b + 1, N) with n >= 1")
        d = np.array(d, dtype=np.complex128) if np.iscomplexobj(d) and d.imag.any() \
            else np.array(d.real, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "diagonals", d)
        if not np.all(np.isfinite(d)):
            raise ValueError("tuple members must have finite entries")
        b, dim = self.bandwidth, self.dimension
        for k in range(b + 1):
            upper, lower = d[:, b + k], d[:, b - k]  # T[i, i + k] and T[i, i - k] at i
            inside = max(dim - k, 0)
            if upper[:, inside:].any() or lower[:, :dim - inside].any():
                raise ValueError("diagonal entry outside the matrix")
            if np.abs(upper[:, :inside] - lower[:, k:].conj()).max(initial=0.0) > HERMITIAN_TOL:
                raise ValueError("tuple members must be hermitian")

    @property
    def n(self) -> int:
        return self.diagonals.shape[0]

    @property
    def bandwidth(self) -> int:
        return self.diagonals.shape[1] // 2

    @property
    def dimension(self) -> int:
        return self.diagonals.shape[2]

    @property
    def dtype(self) -> np.dtype:
        return self.diagonals.dtype

    def commutator_corner(self, s: int) -> int:
        """The corner c = min(N, s + b) outside which [T_j, B] vanishes for s x s blocks B."""
        return min(self.dimension, s + self.bandwidth)

    def corner(self, c: int) -> np.ndarray:
        """The read-only (n, c, c) stack of the members' leading c x c corners."""
        if not 0 <= c <= self.dimension:
            raise ValueError(f"corner {c} outside the dimension {self.dimension}")
        slot, row, col = _band(self.bandwidth, c)
        out = np.zeros((self.n, c, c), dtype=self.dtype)
        out[:, row, col] = self.diagonals[:, slot, row]
        out.setflags(write=False)
        return out

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The members as read-only N x N arrays."""
        return tuple(self.corner(self.dimension))

    @classmethod
    def from_matrices(cls, matrices) -> "HermitianTuple":
        """The tuple of dense members, of bandwidth max |i - j| over their nonzero entries."""
        stack = np.array([np.asarray(m) for m in matrices])  # ValueError when ragged
        if stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
            raise ValueError("a tuple is at least one square matrix, all of one dimension")
        dim = stack.shape[1]
        _, i, j = np.nonzero(stack)
        b = int(np.abs(i - j).max(initial=0))
        slot, row, col = _band(b, dim)
        diagonals = np.zeros((len(stack), 2 * b + 1, dim), dtype=stack.dtype)
        diagonals[:, slot, row] = stack[:, row, col]
        return cls(diagonals)


def instantiate_model(spec: OperatorModelSpec, dim: int) -> HermitianTuple:
    """The leading dim x dim corner of a built-in model, stored by diagonals."""
    _, bandwidth, builder = _MODELS[spec.name]
    if dim < 2 * bandwidth + 2:
        raise ValueError(f"dimension {dim} too small for bandwidth {bandwidth}")
    return HermitianTuple(builder(spec, dim))


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


def commutator_tuple(tau: HermitianTuple, s) -> tuple[np.ndarray, ...]:
    """The tuple ([T_1, S], ..., [T_n, S]) with [T, S] = TS - ST.

    For S supported in its leading s-corner the commutators vanish outside the
    leading c = min(N, s + b) corner; each is formed there, member by member,
    by `band_commutator` and embedded at N.
    """
    sm = np.asarray(s)
    dim = tau.dimension
    if sm.shape != (dim, dim):
        raise ValueError(f"operand dimension {sm.shape} does not match tuple dimension {dim}")
    size = support_size(sm)
    c = tau.commutator_corner(size)
    block = sm[:size, :size]
    block = block if size == c else embed(block, c)  # no N x N copy at full support
    ks = tuple(band_commutator(t, block, tau.bandwidth) for t in tau.corner(c))
    return ks if c == dim else tuple(embed(k, dim) for k in ks)


def commutator_row_norms(commutators) -> np.ndarray:
    """The (n, N) row norms of a tuple of N x N matrices, such as `commutator_tuple` returns.

    Row i of member j holds |K_j[i, :]|, the sum of whose squares over i is
    |K_j|_F^2.  Each member is divided by its `_range_scale` before its squares
    are summed, as `gauges._frobenius` divides it, so no square overflows or
    goes subnormal; a row norm beyond the float range is inf.
    """
    rows = []
    with np.errstate(over="ignore"):  # a row norm beyond the float range is inf
        for k in commutators:
            scale = _range_scale(k, squares=True)
            m = np.ascontiguousarray(_divide(k, scale))
            parts = m.view(m.real.dtype) if m.dtype.kind == "c" else m  # real and imaginary parts
            rows.append(np.sqrt((parts * parts).sum(axis=1)) * scale)
    return np.array(rows)


def tuple_gauge_norm(matrices, gauge: GaugeSpec) -> float:
    """max_j of the gauge norms over a tuple of matrices; ValueError when it is empty."""
    return max(gauge_norm(gauge, m) for m in matrices)


def e_norm_sum(tau: HermitianTuple, gauge: GaugeSpec, s) -> float:
    """Operator norm of S plus the tuple gauge norm of its commutators.

    This is the submultiplicative norm with isometric involution on the
    commutant-modulo-ideal algebra.
    """
    return operator_norm(s) + tuple_gauge_norm(commutator_tuple(tau, s), gauge)


def e_norm_max(tau: HermitianTuple, gauge: GaugeSpec, s) -> float:
    """max of the operator norm of S and the tuple gauge norm of its commutators."""
    return max(operator_norm(s), tuple_gauge_norm(commutator_tuple(tau, s), gauge))
