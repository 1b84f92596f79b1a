"""Grid wavefunctions and the four primitive grid actions.

The primitives are multiply-by-x, multiply-by-y, d/dx and d/dy; each acts on
a field on its own (`_apply_primitive`).  Derivatives are evaluated spectrally
with the periodic FFT convention, which is accurate to roundoff for states that
decay below ~1e-13 of their peak at the grid boundary.  A quadratic operator
is a 4 x 4 matrix over the primitives (`quantum._generator_matrix`), so no
operator type is needed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


# `run` and `check` form no complex N x N field on the scenario's grid; the
# public `GaussianPacket.sample` and `unitary_evolve` do.  Under tracemalloc at
# N = 512 and 1024, sampling peaks at 2.00 fields and evolving a sampled field
# at 6.00 beside it, so a caller that samples and evolves peaks at about 112
# bytes per grid point, and this cap keeps that under a 2 GiB budget:
# 112 * 3840**2 bytes = 1.54 GiB.
MAX_POINTS = 3840


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
        if self.points > MAX_POINTS:
            raise ValueError(f"points must be at most {MAX_POINTS}, "
                             "a memory budget of about 2 GiB")
        if self.points % 2:
            raise ValueError("points must be even")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    def axis(self) -> np.ndarray:
        """Grid coordinates along one axis; a read-only array computed once."""
        return self._axis

    def wavenumbers(self) -> np.ndarray:
        """FFT angular wavenumbers along one axis; a read-only array computed once."""
        return self._wavenumbers

    @cached_property
    def _axis(self) -> np.ndarray:
        return _read_only(-self.half_width + self.spacing * np.arange(self.points))

    @cached_property
    def _wavenumbers(self) -> np.ndarray:
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.points, d=self.spacing))

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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

    def factors(self, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """The packet's two axis factors on the grid, unnormalized and of peak at most 1:
        exp(-(x - c_x)^2 / (4 sigma^2) + i k_x x) as an N x 1 column and the y factor
        as a 1 x N row.  Their product is the packet on the grid, and each primitive
        acts on the factor of its own axis.

        Raises ValueError when 4 sigma^2, the envelope's divisor, is zero or not finite.
        """
        # a float product, not sigma ** 2, which raises OverflowError; both round alike
        width = 4.0 * self.sigma * self.sigma
        if not 0.0 < width < math.inf:
            raise ValueError(f"4 sigma^2 is past the float range at sigma = {self.sigma!r}")
        ax = grid.axis()
        factors = []
        for c, k in zip(self.center, self.wavevector):
            # squares past the float range are far in the tail, where exp(-inf) = 0 is exact
            with np.errstate(over="ignore"):
                envelope = np.exp(-((ax - c) ** 2) / width)
            factors.append(envelope * np.exp(1j * (k * ax)))
        return factors[0][:, None], factors[1][None, :]

    def sample(self, grid: GridSpec) -> WaveFunction:
        """The product of `factors`, normalized by its Riemann-sum norm.

        Raises ValueError when 4 sigma^2, the envelope's divisor, or the
        sampled field's norm is zero or not finite.
        """
        column, row = self.factors(grid)
        return WaveFunction(grid, column * row).normalize()


class Primitive(enum.Enum):
    X = "x*"
    Y = "y*"
    DX = "d/dx"
    DY = "d/dy"


def _spectral_derivative(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """ifft(i k fft(values)) along `axis`, transformed, multiplied and transformed
    back in one buffer."""
    k = grid.wavenumbers()
    shape = [1, 1]
    shape[axis] = grid.points
    out = np.fft.fft(values, axis=axis)
    np.multiply(1j * k.reshape(shape), out, out=out)
    return np.fft.ifft(out, axis=axis, out=out)


def _apply_primitive(p: Primitive, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    if p is Primitive.X:
        return grid.axis()[:, None] * values
    if p is Primitive.Y:
        return grid.axis()[None, :] * values
    if p is Primitive.DX:
        return _spectral_derivative(values, grid, axis=0)
    return _spectral_derivative(values, grid, axis=1)
