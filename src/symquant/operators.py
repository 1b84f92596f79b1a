"""Grid wavefunctions and composable operators built from five primitives.

Operators are linear combinations of ordered products of the primitive grid
actions multiply-by-x, multiply-by-y, d/dx, d/dy, and the identity (the empty
product).  Products apply right to left.  Derivatives are evaluated spectrally
with the periodic FFT convention, which is accurate to roundoff for states that
decay below ~1e-13 at the grid boundary.

The Weyl-algebra normal form (all multiplications moved left of derivatives
via d_x x = x d_x + 1) gives an exact symbolic calculus on operator
expressions: equality, zero tests, and commutation checks never touch a grid.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class LocalizationWarning(UserWarning):
    """A state is not negligible at the grid boundary; periodic artifacts may leak in."""


@dataclass(frozen=True)
class GridSpec:
    """Square uniform grid on [-L, L)^2 with N points per axis (N even)."""

    half_width: float
    points: int

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, not {self.half_width!r}")
        if self.points < 16:
            raise ValueError("points must be at least 16")
        if self.points % 2:
            raise ValueError("points must be even")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")


@dataclass(frozen=True)
class WaveFunction:
    """Complex field sampled on a grid; values[i, j] = psi(x_i, y_j)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.points, self.grid.points):
            raise ValueError("values shape does not match grid")
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        """Riemann-sum L2 norm; inf when h^2 overflows, which normalize() rejects."""
        h = self.grid.spacing
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * h * h))

    def normalize(self) -> "WaveFunction":
        n = self.norm()
        if not (0 < n < math.inf):
            raise ValueError(f"cannot normalize a field of norm {n}")
        return WaveFunction(self.grid, self.values / n)

    def inner(self, other: "WaveFunction") -> complex:
        """L2 inner product <self|other> by Riemann sum; conjugates self."""
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        h = self.grid.spacing
        return complex(np.vdot(self.values, other.values) * h * h)

    def boundary_magnitude(self) -> float:
        v = np.abs(self.values)
        return float(max(v[0, :].max(), v[-1, :].max(), v[:, 0].max(), v[:, -1].max()))


@dataclass(frozen=True)
class GaussianPacket:
    """Isotropic Gaussian wavepacket with a linear phase."""

    center: tuple[float, float] = (0.0, 0.0)
    wavevector: tuple[float, float] = (0.0, 0.0)
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("center", "wavevector"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, not {self.sigma!r}")

    def sample(self, grid: GridSpec) -> WaveFunction:
        """Sample on the grid and normalize by the Riemann-sum norm."""
        xg, yg = grid.meshgrid()
        cx, cy = self.center
        kx, ky = self.wavevector
        # squares past the float range are far in the tail, where exp(-inf) = 0 is exact
        with np.errstate(over="ignore"):
            envelope = np.exp(-((xg - cx) ** 2 + (yg - cy) ** 2) / (4.0 * self.sigma ** 2))
        phase = np.exp(1j * (kx * xg + ky * yg))
        return WaveFunction(grid, envelope * phase).normalize()


class Primitive(enum.Enum):
    X = "x*"
    Y = "y*"
    DX = "d/dx"
    DY = "d/dy"


def _spectral_derivative(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    k = grid.wavenumbers()
    shape = [1, 1]
    shape[axis] = grid.points
    return np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(values, axis=axis), axis=axis)


def _apply_primitive(p: Primitive, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    if p is Primitive.X:
        return grid.axis()[:, None] * values
    if p is Primitive.Y:
        return grid.axis()[None, :] * values
    if p is Primitive.DX:
        return _spectral_derivative(values, grid, axis=0)
    return _spectral_derivative(values, grid, axis=1)


class OperatorExpr:
    """Complex linear combination of ordered products of primitives."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[complex, tuple[Primitive, ...]]] = ()):
        merged: dict[tuple[Primitive, ...], complex] = {}
        for coeff, prod in terms:
            prod = tuple(prod)
            merged[prod] = merged.get(prod, 0j) + complex(coeff)
        object.__setattr__(self, "terms",
                           tuple((c, p) for p, c in merged.items() if c != 0))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("OperatorExpr is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls) -> "OperatorExpr":
        return cls([(1.0, ())])

    @classmethod
    def primitive(cls, p: Primitive) -> "OperatorExpr":
        return cls([(1.0, (p,))])

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr(list(self.terms) + list(other.terms))

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr([(-c, p) for c, p in self.terms])

    def __mul__(self, scalar) -> "OperatorExpr":
        if isinstance(scalar, OperatorExpr):
            return NotImplemented
        return OperatorExpr([(c * complex(scalar), p) for c, p in self.terms])

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        """Operator composition: (A @ B) psi = A(B psi)."""
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr([(c1 * c2, p1 + p2)
                             for c1, p1 in self.terms for c2, p2 in other.terms])

    # -- exact symbolic calculus ---------------------------------------------

    def normal_form(self) -> dict[tuple[int, int, int, int], complex]:
        """Coefficients on the normally ordered basis x^a y^b d_x^c d_y^d."""
        total: dict[tuple[int, int, int, int], complex] = {}
        for coeff, prod in self.terms:
            mono = {(0, 0, 0, 0): coeff}
            for p in prod:
                nxt: dict[tuple[int, int, int, int], complex] = {}
                for (a, b, c, d), v in mono.items():
                    if p is Primitive.X:
                        _acc(nxt, (a + 1, b, c, d), v)
                        if c:
                            _acc(nxt, (a, b, c - 1, d), v * c)
                    elif p is Primitive.Y:
                        _acc(nxt, (a, b + 1, c, d), v)
                        if d:
                            _acc(nxt, (a, b, c, d - 1), v * d)
                    elif p is Primitive.DX:
                        _acc(nxt, (a, b, c + 1, d), v)
                    else:
                        _acc(nxt, (a, b, c, d + 1), v)
                mono = nxt
            for key, v in mono.items():
                _acc(total, key, v)
        return {k: v for k, v in total.items() if v != 0}

    def coefficient_scale(self) -> float:
        return sum(abs(c) for c, _ in self.terms)

    def is_zero(self, tol: float = 0.0, scale: float = 1.0) -> bool:
        nf = self.normal_form()
        return all(abs(v) <= tol * scale for v in nf.values())

    def equals(self, other: "OperatorExpr", tol: float = 1e-12) -> bool:
        scale = max(self.coefficient_scale(), other.coefficient_scale(), 1.0)
        return (self - other).is_zero(tol=tol, scale=scale)

    def commutator(self, other: "OperatorExpr") -> "OperatorExpr":
        return self @ other - other @ self

    def commutes_with(self, other: "OperatorExpr", tol: float = 1e-12) -> bool:
        scale = max(self.coefficient_scale() * other.coefficient_scale(), 1.0)
        return self.commutator(other).is_zero(tol=tol, scale=scale)

    # -- action on grids -----------------------------------------------------

    def apply(self, psi: WaveFunction) -> WaveFunction:
        """Apply to a wavefunction; the result is not renormalized."""
        out = np.zeros_like(psi.values)
        for coeff, prod in self.terms:
            work = psi.values
            for p in reversed(prod):
                work = _apply_primitive(p, work, psi.grid)
            out = out + coeff * work
        return WaveFunction(psi.grid, out)

    def __repr__(self):
        body = " + ".join(
            f"({c:.6g})*" + ("*".join(p.value for p in prod) if prod else "1")
            for c, prod in self.terms)
        return f"OperatorExpr[{body or '0'}]"


def _acc(table: dict, key, value):
    table[key] = table.get(key, 0j) + value


def apply(op: OperatorExpr, psi: WaveFunction) -> WaveFunction:
    """Apply an operator expression to a wavefunction (not renormalized)."""
    return op.apply(psi)


def check_localized(psi: WaveFunction, threshold: float = 1e-12,
                    action: str = "operator evaluation") -> bool:
    """Warn (and return False) when a state leaks past the boundary threshold."""
    mag = psi.boundary_magnitude()
    if mag >= threshold:
        warnings.warn(LocalizationWarning(
            f"{action}: boundary magnitude {mag:.3e} exceeds {threshold:.1e}; "
            "periodic-grid artifacts may contaminate results"))
        return False
    return True

