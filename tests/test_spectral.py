import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_bbm import evolution, spectral
from gevrey_bbm.errors import InvalidInput
from gevrey_bbm.norms import l2_norm
from gevrey_bbm.spectral import (
    Grid,
    SpectralField,
    _rfft,
    _Scales,
    _scales,
    _to_samples,
    dealias,
    forward_transform,
    inverse_transform,
    zero_field,
    zero_nyquist,
)


def _irfft(coeffs, n, out=None):
    """_to_samples under np.fft's scales: 1/n in the kernel, nothing left
    over."""
    return _to_samples(coeffs, _Scales(n, None, np.array(1.0 / n), None), out)


class TestGrid:
    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(InvalidInput):
            Grid(63)
        with pytest.raises(InvalidInput):
            Grid(4)
        with pytest.raises(InvalidInput):
            Grid(64, domain_length=0.0)

    @pytest.mark.parametrize("n", [128.0, "128", None])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        # Grid(128.0) was accepted, and building data on it raised TypeError
        with pytest.raises(InvalidInput, match="n_points must be an integer"):
            Grid(n)

    def test_numpy_integer_sizes_pass(self):
        assert Grid(np.int64(128)) == Grid(128)

    @pytest.mark.parametrize("length", [math.inf, math.nan, 1e-320, 5e-324])
    def test_rejects_a_length_that_is_not_finite_or_overflows_xi(self, length):
        # Grid(64, inf) gave NaN data; at 1e-320, pi n / L overflows
        with pytest.raises(InvalidInput, match="domain_length"):
            Grid(64, length)

    def test_a_tiny_length_with_finite_wavenumbers_passes(self):
        assert np.all(np.isfinite(Grid(64, 1e-300).wavenumbers))

    def test_geometry(self, grid64):
        assert grid64.dx == 1.0
        assert grid64.points[0] == 0.0
        assert grid64.points[-1] == 64.0 - grid64.dx
        np.testing.assert_array_equal(
            grid64.mode_numbers[:4], [0, 1, 2, 3])
        assert grid64.mode_numbers[-1] == 32
        np.testing.assert_array_equal(grid64.multiplicity[:3], [1, 2, 2])
        assert grid64.multiplicity[-1] == 1
        assert np.sum(grid64.multiplicity) == 64
        assert grid64.parseval_weight == 1.0 / 64.0
        assert grid64.dealias_cutoff == 21

    def test_wavenumbers_scale(self, grid64):
        np.testing.assert_allclose(
            grid64.wavenumbers, 2 * np.pi * grid64.mode_numbers / 64.0)

    def test_cached_arrays_are_read_only(self, grid64):
        assert grid64.wavenumbers is grid64.wavenumbers
        for array in (grid64.mode_numbers, grid64.wavenumbers,
                      grid64.multiplicity):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestForwardTransform:
    def test_zero_samples(self, grid64):
        field = forward_transform(np.zeros(64), grid64)
        assert np.all(field.coeffs == 0)

    def test_mean_convention(self, grid64):
        field = forward_transform(np.full(64, 3.0), grid64)
        # coeff(0) = mean * L under the fixed L/n weighting
        assert field.coeffs[0] == pytest.approx(3.0 * 64.0)
        assert np.max(np.abs(field.coeffs[1:])) == 0.0

    def test_single_cosine_two_modes(self, grid64):
        # cos = (e^{i xi x} + e^{-i xi x}) / 2: the stored j = 1 stands for both
        samples = np.cos(2 * np.pi * grid64.points / 64.0)
        field = forward_transform(samples, grid64)
        mags = np.abs(field.coeffs)
        nonzero = np.flatnonzero(mags > 1e-10 * mags.max())
        assert grid64.mode_numbers[nonzero].tolist() == [1]
        assert grid64.multiplicity[1] == 2
        assert mags[1] == pytest.approx(64.0 / 2.0)

    def test_round_trip(self, rng):
        grid = Grid(32)
        samples = rng.standard_normal(32)
        back = inverse_transform(forward_transform(samples, grid))
        assert np.max(np.abs(back - samples)) < 1e-12

    def test_shape_checked(self, grid64):
        with pytest.raises(InvalidInput):
            forward_transform(np.zeros(32), grid64)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_matches_full_complex_fft(self, n, rng):
        grid = Grid(n, 10.0)
        samples = rng.standard_normal(n)
        reference = (np.fft.fft(samples) * (10.0 / n))[: n // 2 + 1]
        coeffs = forward_transform(samples, grid).coeffs
        assert np.max(np.abs(coeffs - reference)) <= 1e-13 * np.max(np.abs(reference))


class TestSpectralField:
    def test_rejects_full_length_coeffs(self, grid64):
        with pytest.raises(InvalidInput):
            SpectralField(grid64, np.zeros(64, dtype=complex))

    def test_rejects_complex_dc(self, grid64):
        coeffs = np.zeros(33, dtype=complex)
        coeffs[0] = 1.0 + 1e-300j
        with pytest.raises(InvalidInput):
            SpectralField(grid64, coeffs)


class TestInverseTransform:
    def test_zero(self, grid64):
        assert np.all(inverse_transform(zero_field(grid64)) == 0.0)

    def test_known_cosine(self, grid64):
        samples = np.cos(2 * np.pi * grid64.points / 64.0)
        field = forward_transform(samples, grid64)
        np.testing.assert_allclose(inverse_transform(field), samples,
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_matches_ifft_of_hermitian_extension(self, n, rng):
        grid = Grid(n, 10.0)
        coeffs = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        coeffs[0] = coeffs[0].real
        coeffs[-1] = coeffs[-1].real
        full = np.concatenate([coeffs, np.conj(coeffs[-2:0:-1])])
        reference = np.fft.ifft(full).real * (n / 10.0)
        back = inverse_transform(SpectralField(grid, coeffs))
        assert np.max(np.abs(back - reference)) <= 1e-13 * np.max(np.abs(reference))


class TestPrivateKernels:
    """_rfft and _to_samples call numpy's private pocketfft gufuncs, the
    kernels behind np.fft.rfft/irfft; under np.fft's scales they must stay
    bit for bit np.fft's result."""

    @staticmethod
    def inputs(n, rng):
        """1-D and (3, .) inputs, each also as a strided (non-contiguous) view."""
        m = n // 2 + 1
        samples = rng.standard_normal((3, 2 * n))
        coeffs = rng.standard_normal((3, 2 * m)) + 1j * rng.standard_normal((3, 2 * m))
        # imaginary parts at j = 0 and j = n/2, which irfft must ignore
        assert np.all(coeffs[:, [0, m - 1]].imag != 0)
        for rows in (0, slice(None)):
            yield samples[rows, :n], coeffs[rows, :m]
            yield samples[rows, ::2], coeffs[rows, ::2]

    @pytest.mark.parametrize("n", [8, 128, 1024])
    @pytest.mark.parametrize("given_out", [False, True])
    def test_rfft_is_np_fft_bitwise(self, n, given_out, rng):
        for samples, _ in self.inputs(n, rng):
            want = np.fft.rfft(samples)
            out = np.empty_like(want) if given_out else None
            got = _rfft(samples, out=out)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert out is None or got is out

    @pytest.mark.parametrize("n", [8, 128, 1024])
    @pytest.mark.parametrize("given_out", [False, True])
    def test_irfft_is_np_fft_bitwise(self, n, given_out, rng):
        for _, coeffs in self.inputs(n, rng):
            want = np.fft.irfft(coeffs, n)
            out = np.empty_like(want) if given_out else None
            got = _irfft(coeffs, n, out=out)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert out is None or got is out
            real_ends = coeffs.copy()
            real_ends[..., [0, n // 2]] = real_ends[..., [0, n // 2]].real
            assert got.tobytes() == np.fft.irfft(real_ends, n).tobytes()


    @pytest.mark.parametrize("n", [96, 100, 128, 1024])
    def test_irfft_reads_a_band_as_zero_padded_bitwise(self, n, rng):
        # the RK4 kernel hands the inverse transform the band's modes
        # alone, evolution._band of them (32 at n = 96): the kernel must
        # read every mode above them as zero, under np.fft's scales and
        # under the grid's own
        band, m = evolution._band(Grid(n)), n // 2 + 1
        coeffs = rng.standard_normal((3, 2 * band)) + 1j * rng.standard_normal((3, 2 * band))
        for rows in (0, slice(None)):
            for given in (coeffs[rows, :band], coeffs[rows, ::2]):
                padded = np.zeros(given.shape[:-1] + (m,), dtype=complex)
                padded[..., :band] = given
                want = np.fft.irfft(padded, n)
                assert _irfft(given, n).tobytes() == want.tobytes()
                scales = _scales(Grid(n))
                assert (_to_samples(given, scales).tobytes()
                        == _to_samples(padded, scales).tobytes())


class TestScaledTransforms:
    """forward_transform and inverse_transform apply the L/n convention's
    scalings; they must stay bit for bit the unscaled transforms times L/n
    and n/L, on power-of-two grids (where 1/L is the inverse's one scale)
    and on others."""

    @staticmethod
    def samples(grid, rng):
        x = grid.points
        yield rng.standard_normal(grid.n_points)
        yield np.cos(2 * np.pi * 3 * x / grid.domain_length)  # exact zeros
        yield np.zeros(grid.n_points)

    @pytest.mark.parametrize("n, length", [(8, 64.0), (128, 50.0),
                                           (1024, 256.0), (96, 64.0),
                                           (100, 30.0), (48, 7.0)])
    def test_pinned_to_the_scaled_unscaled_transforms(self, n, length, rng):
        grid = Grid(n, length)
        for samples in self.samples(grid, rng):
            coeffs = forward_transform(samples, grid).coeffs
            assert coeffs.tobytes() == (_rfft(samples) * (length / n)).tobytes()
            back = inverse_transform(SpectralField(grid, coeffs))
            assert back.tobytes() == (_irfft(coeffs, n) * (n / length)).tobytes()


def users(matches):
    """The lines of each module of the package that import, or read as an
    attribute, a name that matches; scanned by syntax tree, so that prose
    naming it does not count."""
    def lines(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any(map(matches, names)):
                yield node.lineno

    package = pathlib.Path(spectral.__file__).parent
    return {path.name: list(lines(path)) for path in package.glob("*.py")}


def test_only_spectral_imports_the_private_kernels():
    # every FFT goes through _rfft and _to_samples, so a numpy that moves
    # the private kernels breaks one module
    found = users(lambda name: "_pocketfft" in name)
    assert found["spectral.py"]
    assert [name for name, lines in found.items() if lines] == ["spectral.py"]


def test_only_spectral_makes_an_fft():
    # the triad route of the defect rate checks the transforms only while
    # it makes none, so no other module may call a numpy FFT (an FFT-based
    # convolution would merge the two routes) nor import one by name; the
    # module np.fft and np.fft.fftfreq are no transform
    transforms = {prefix + "fft" + suffix for prefix in ("", "i", "r", "ir")
                  for suffix in ("", "2", "n")} | {"hfft", "ihfft"}

    def fft_lines(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                names = [func.attr if isinstance(func, ast.Attribute)
                         else getattr(func, "id", "")]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                continue
            if transforms.intersection(names):
                yield node.lineno

    package = pathlib.Path(spectral.__file__).parent
    found = {path.name: list(fft_lines(path)) for path in package.glob("*.py")}
    assert found["spectral.py"]
    assert [name for name, lines in found.items() if lines] == ["spectral.py"]


def test_only_spectral_derives_the_cutoff_from_n():
    # Grid.dealias_cutoff is the one definition of the alias-free band, so
    # no other module floor-divides by 3 (scanned by syntax tree)
    def divides_by_3(node):
        if isinstance(node, ast.BinOp):
            op, right = node.op, node.right
        elif isinstance(node, ast.AugAssign):
            op, right = node.op, node.value
        else:
            return False
        return (isinstance(op, ast.FloorDiv) and isinstance(right, ast.Constant)
                and right.value == 3)

    package = pathlib.Path(spectral.__file__).parent
    found = {path.name: [node.lineno for node in ast.walk(ast.parse(
        path.read_text())) if divides_by_3(node)]
        for path in package.glob("*.py")}
    assert found["spectral.py"]
    assert [name for name, lines in found.items() if lines] == ["spectral.py"]


def test_only_spectral_applies_the_inverse_scaling():
    # every inverse transform goes through _to_samples, so the power-of-two
    # rule for its scaling sits in one module: no other reads the scalings
    # it applies (nor calls the raw kernel, which the test above holds)
    found = users(lambda name: name in ("inverse", "remainder"))
    assert found["spectral.py"]
    assert [name for name, lines in found.items() if lines] == ["spectral.py"]


@settings(max_examples=50, deadline=None)
@given(half_n=st.integers(4, 256), seed=st.integers(0, 2**32 - 1))
def test_parseval(half_n, seed):
    grid = Grid(2 * half_n, 7.0)
    samples = np.random.default_rng(seed).standard_normal(grid.n_points)
    expected = np.sum(samples**2) * grid.dx
    assert l2_norm(forward_transform(samples, grid)) ** 2 == pytest.approx(
        expected, rel=1e-12)


class TestDealias:
    def test_low_modes_untouched(self, grid64):
        coeffs = np.zeros(33, dtype=complex)
        coeffs[1] = 2.0
        field = SpectralField(grid64, coeffs)
        np.testing.assert_array_equal(dealias(field).coeffs, coeffs)

    def test_high_modes_removed(self, grid64):
        coeffs = np.zeros(33, dtype=complex)
        coeffs[31] = 1.0  # |j| = n/2 - 1, above n/3
        assert np.all(dealias(SpectralField(grid64, coeffs)).coeffs == 0)

    def test_survivor_count(self):
        # 3 divides 48, so the alias-free band stops one mode short of n/3:
        # |j| <= 15, 31 survivors
        grid = Grid(48)
        field = SpectralField(grid, np.ones(25, dtype=complex))
        kept = dealias(field).coeffs != 0
        assert grid.dealias_cutoff == 15
        assert np.sum(grid.multiplicity[kept]) == 2 * grid.dealias_cutoff + 1


def test_zero_nyquist_clears_unpaired_mode(grid64):
    coeffs = np.ones(33, dtype=complex)
    out = zero_nyquist(SpectralField(grid64, coeffs))
    assert out.coeffs[32] == 0.0
    assert out.coeffs[1] == 1.0


def test_coeffs_are_write_protected(random_field):
    with pytest.raises(ValueError):
        random_field.coeffs[0] = 1.0
