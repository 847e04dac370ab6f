"""Periodic spectral representation of real fields.

Transform convention (fixed once, used everywhere): the forward transform
carries the L/n quadrature weight,

    coeff(j) = (L/n) * sum_m u(x_m) exp(-i xi_j x_m),   xi_j = 2*pi*j/L,

so that coeff(0) = mean(u) * L and the discrete coefficients approximate the
continuum Fourier transform on a domain of length L.

Fields are real, so coeff(-j) = conj(coeff(j)) and only the real-FFT
half-spectrum j = 0, 1, ..., n/2 is stored: Hermitian symmetry holds by
construction.  coeff(0) is real.  Every mode 0 < j < n/2 stands for itself
and its mirror -j, so coefficient-space sums weight it by multiplicity 2
(``Grid.multiplicity``); with the Parseval weight 1/L,

    integral |u|^2 dx  =  (1/L) * sum_j multiplicity(j) * |coeff(j)|^2.

The mode j = n/2 has no partner on the grid and the inverse transform reads
only its real part; it is forced to zero after every nonlinear evaluation.

Every FFT of the package goes through ``_rfft`` and ``_irfft``, which call
numpy's pocketfft gufuncs (``numpy.fft._pocketfft_umath``) directly: the
kernels and scale factors of ``np.fft.rfft``/``irfft``, so bit for bit
their results, without the Python wrapper that costs more than the
transform itself at small n.  This is the only module that imports them.

The domain is a torus of length L (default 64): the continuum problem lives
on the whole real line, and the periodic box is a desk-scale proxy.  All
multiplier formulas are pointwise in xi and carry over verbatim to the
discrete wavenumbers; L must be chosen large enough that the solution stays
well away from the boundary of its effective support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import InvalidInput


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n_points collocation points on [0, L)."""

    n_points: int
    domain_length: float = 64.0

    def __post_init__(self):
        if self.n_points % 2 != 0 or self.n_points < 8:
            raise InvalidInput(f"n_points must be even and >= 8, got {self.n_points}")
        if not self.domain_length > 0:
            raise InvalidInput(f"domain_length must be positive, got {self.domain_length}")

    @property
    def dx(self) -> float:
        return self.domain_length / self.n_points

    @property
    def points(self) -> np.ndarray:
        """Collocation points x_m = m * dx."""
        return np.arange(self.n_points) * self.dx

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Stored mode indices j = 0, 1, ..., n/2 (read-only)."""
        return _read_only(np.arange(self.n_points // 2 + 1))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """xi_j = 2*pi*j / L for the stored modes (read-only)."""
        return _read_only(2.0 * np.pi * self.mode_numbers / self.domain_length)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """How many modes +-j each stored entry stands for: (1, 2, ..., 2, 1)."""
        counts = np.full(self.n_points // 2 + 1, 2.0)
        counts[0] = counts[-1] = 1.0
        return _read_only(counts)

    @property
    def parseval_weight(self) -> float:
        """Quadrature weight turning sum_j |coeff|^2 into integral |u|^2 dx."""
        return 1.0 / self.domain_length

    @property
    def dealias_cutoff(self) -> int:
        """Largest mode index |j| kept by the 2/3 rule."""
        return self.n_points // 3


@dataclass(frozen=True)
class SpectralField:
    """A real-valued periodic field stored by its half-spectrum j = 0..n/2."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        size = self.grid.n_points // 2 + 1
        if coeffs.shape != (size,):
            raise InvalidInput(f"coeffs must have shape ({size},), got {coeffs.shape}")
        if abs(coeffs[0].imag) > 0.0:  # a NaN passes on to blowup detection
            raise InvalidInput(f"coeff(0) of a real field is real, got {coeffs[0]}")
        object.__setattr__(self, "coeffs", coeffs)
        self.coeffs.setflags(write=False)

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)


# The gufuncs' scale factors as read-only 0-d arrays: numpy converts a
# Python number on every call, about 0.2-0.4 us of a 2 us transform at n = 128.
_UNSCALED = _read_only(np.array(1.0))


@lru_cache(maxsize=64)
def _inverse_scale(n: int) -> np.ndarray:
    """np.fft's 1/n for an inverse transform to n samples."""
    return _read_only(np.array(1.0 / n))


def _rfft(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled real FFT of even-length rows along the last axis, written
    into out (a fresh array when None).  Bit for bit np.fft.rfft."""
    if out is None:
        out = np.empty(samples.shape[:-1] + (samples.shape[-1] // 2 + 1,),
                       dtype=np.complex128)
    return _pocketfft_umath.rfft_n_even(samples, _UNSCALED, out)


def _irfft(coeffs: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse real FFT of half-spectra along the last axis to n real
    samples, with np.fft's 1/n, written into out (a fresh array when None).
    Bit for bit np.fft.irfft(coeffs, n); the imaginary parts of j = 0 and
    j = n/2 are ignored."""
    if out is None:
        out = np.empty(coeffs.shape[:-1] + (n,))
    return _pocketfft_umath.irfft(coeffs, _inverse_scale(n), out)


def forward_transform(samples, grid: Grid) -> SpectralField:
    """Transform physical samples to spectral coefficients.

    coeff(0) equals mean(samples) * L under the fixed L/n convention.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n_points,):
        raise InvalidInput(
            f"expected {grid.n_points} samples, got shape {samples.shape}"
        )
    coeffs = _rfft(samples) * (grid.domain_length / grid.n_points)
    return SpectralField(grid, coeffs)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Reconstruct the real physical samples from the coefficients."""
    grid = field.grid
    return _irfft(field.coeffs, grid.n_points) * (grid.n_points / grid.domain_length)


def dealias(field: SpectralField) -> SpectralField:
    """Zero all modes with j > n/3 (2/3 rule for the quadratic term)."""
    coeffs = field.coeffs.copy()
    coeffs[field.grid.dealias_cutoff + 1:] = 0.0
    return field.with_coeffs(coeffs)


def zero_nyquist(field: SpectralField) -> SpectralField:
    """Zero the unpaired j = n/2 mode (no conjugate partner on the grid)."""
    coeffs = field.coeffs.copy()
    coeffs[-1] = 0.0
    return field.with_coeffs(coeffs)


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_points // 2 + 1, dtype=np.complex128))
