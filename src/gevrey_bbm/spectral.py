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
only its real part.  The flow (see the evolution module) lives on the
alias-free band |j| <= K that the 2/3 rule keeps, with K = (n-1)//3
(``Grid.dealias_cutoff``), the largest K with 3K < n: the square of a field
on that band puts none of its modes back onto the band by aliasing.  This
module is the one place that derives K from n.  ``dealias`` projects onto
the band, which clears j = n/2 too, and an inverse transform of a shorter,
band-length half-spectrum reads every mode above it as zero, bit for bit
as if it were padded with zeros.

Every FFT of the package goes through ``_rfft`` and ``_to_samples``, which
call numpy's pocketfft gufuncs (``numpy.fft._pocketfft_umath``) directly:
the kernels of ``np.fft.rfft``/``irfft``, without the Python wrapper that
costs more than the transform itself at small n.  This is the only module
that imports them.  With np.fft's scales they are bit for bit its results.
A scale is the kernel's ``fct``, which it applies as one multiply per real
component after the transform.  So an inverse transform's bits are those of
a ufunc multiply by the same factor, and a forward transform's agree with
one on every value: a complex array times a real scalar is a complex
multiply by (s + 0j), which may flip the sign of an exactly zero component
where ``fct`` keeps it.

``_scales`` of a grid holds its n and the L/n convention's scalings, and
``_to_samples`` is the one inverse transform, which applies them:

* forward, L/n: the ``fct`` of ``_rfft`` on every grid.  A caller may halve
  it (as the BBM right-hand side does for u^2/2): halving commutes with
  rounding outside the subnormal range (below about 2.2e-308), so the
  result is the scaled one times 0.5.
* inverse, np.fft's 1/n followed by n/L.  On a power-of-two grid 1/n is a
  power of two, so (x * 1/n) * fl(n/L) = x * fl(1/L) exactly outside the
  subnormal range, and the kernel's ``fct`` is 1/L with nothing left over.
  On any other grid the two roundings differ in the last bit on some
  inputs, so the ``fct`` stays 1/n and n/L is a separate multiply.

``forward_transform``, which builds initial data once per run, keeps its
separate multiply by L/n, so a datum's coefficients are np.fft.rfft's
times L/n with every zero's sign.

The domain is a torus of length L (default 64): the continuum problem lives
on the whole real line, and the periodic box is a desk-scale proxy.  All
multiplier formulas are pointwise in xi and carry over verbatim to the
discrete wavenumbers; L must be chosen large enough that the solution stays
well away from the boundary of its effective support.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import InvalidInput


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _index(value, name: str) -> int:
    """value as an int (operator.index, so numpy integers pass); a value
    that is not an integer, such as 128.0, is InvalidInput naming name."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n_points collocation points on [0, L)."""

    n_points: int
    domain_length: float = 64.0

    def __post_init__(self):
        n, length = _index(self.n_points, "n_points"), self.domain_length
        if n % 2 != 0 or n < 8:
            raise InvalidInput(f"n_points must be even and >= 8, got {n}")
        if not (math.isfinite(length) and length > 0):
            raise InvalidInput(
                f"domain_length must be finite and positive, got {length}")
        # the largest wavenumber, pi n / L, in Python floats (no numpy warning)
        if not math.isfinite(math.pi * n / float(length)):
            raise InvalidInput(
                f"domain_length {length} is too small for {n} points: "
                "the largest wavenumber overflows")

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
        """K, the largest mode index |j| kept by the 2/3 rule: (n-1)//3, the
        largest K with 3K < n, so that the product of two modes of the band
        |j| <= K aliases onto no mode of it (Orszag 1971).  This is n//3
        unless 3 divides n, where K = n/3 would fold +-n/3 times +-n/3 onto
        -+n/3.  Every truncation of the package reads this one value."""
        return (self.n_points - 1) // 3


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


class _Scales(NamedTuple):
    """A grid's n and its transform scalings as read-only 0-d arrays: the
    forward ``fct`` L/n; the inverse ``fct``; and the n/L that the inverse
    ``fct`` leaves to a separate multiply, None on a power-of-two grid."""

    n: int
    forward: np.ndarray
    inverse: np.ndarray
    remainder: np.ndarray | None


@lru_cache(maxsize=64)
def _scales(grid: Grid) -> _Scales:
    """The L/n convention's scalings for transforms on the grid, each folded
    into the kernel where that keeps every bit (see the module docstring)."""
    n, length = grid.n_points, grid.domain_length
    forward = _read_only(np.array(length / n))
    if n & (n - 1) == 0:
        return _Scales(n, forward, _read_only(np.array(1.0 / length)), None)
    return _Scales(n, forward, _read_only(np.array(1.0 / n)),
                   _read_only(np.array(n / length)))


def _rfft(samples: np.ndarray, out: np.ndarray | None = None,
          scale: np.ndarray = _UNSCALED) -> np.ndarray:
    """Real FFT of even-length rows along the last axis times scale (a 0-d
    array), written into out (a fresh array when None).  Bit for bit
    np.fft.rfft unscaled, and np.fft.rfft times scale up to the sign of an
    exact zero."""
    if out is None:
        out = np.empty(samples.shape[:-1] + (samples.shape[-1] // 2 + 1,),
                       dtype=np.complex128)
    return _pocketfft_umath.rfft_n_even(samples, scale, out)


def _to_samples(coeffs: np.ndarray, scales: _Scales,
                out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of half-spectra along the last axis, written into out (a
    fresh array when None): the inverse FFT times scales.inverse, then times
    scales.remainder when there is one.  Under _scales(grid) this is the L/n
    convention, and under np.fft's 1/n with no remainder it is bit for bit
    np.fft.irfft(coeffs, n).  The imaginary parts of j = 0 and j = n/2 are
    ignored.  Half-spectra shorter than n/2 + 1 modes are read as if padded
    with zeros, which the RK4 kernel relies on to step the band
    j <= Grid.dealias_cutoff alone."""
    if out is None:
        out = np.empty(coeffs.shape[:-1] + (scales.n,))
    _pocketfft_umath.irfft(coeffs, scales.inverse, out)
    if scales.remainder is not None:
        np.multiply(out, scales.remainder, out)
    return out


def forward_transform(samples, grid: Grid) -> SpectralField:
    """Transform physical samples to spectral coefficients.

    coeff(0) equals mean(samples) * L under the fixed L/n convention.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n_points,):
        raise InvalidInput(
            f"expected {grid.n_points} samples, got shape {samples.shape}"
        )
    return SpectralField(grid, _rfft(samples) * _scales(grid).forward)


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Reconstruct the real physical samples from the coefficients."""
    return _to_samples(field.coeffs, _scales(field.grid))


def dealias(field: SpectralField) -> SpectralField:
    """Zero all modes with j > K = Grid.dealias_cutoff (the 2/3 rule for the
    quadratic term): the projection onto the alias-free band |j| <= K that
    the flow evolves."""
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
