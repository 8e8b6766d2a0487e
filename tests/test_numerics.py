import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import chirpvote
from chirpvote.numerics import fresnel, fresnel_array, power_spectrum


class TestFresnel:
    def test_value_at_one_frozen(self):
        p = fresnel(1.0)
        assert p.c == pytest.approx(0.7798934003768226, abs=1e-12)
        assert p.s == pytest.approx(0.4382591473903548, abs=1e-12)

    def test_value_at_zero(self):
        p = fresnel(0.0)
        assert p.c == 0.0
        assert p.s == 0.0

    @pytest.mark.parametrize(
        "x", [0.05, 0.3, 0.7, 1.0, 1.3, 1.6, 1.9, 2.5, 3.7, 5.0, 8.0, 12.0]
    )
    def test_quadrature_oracle(self, x):
        c_ref = quad(lambda t: np.cos(np.pi * t * t / 2), 0, x, limit=400)[0]
        s_ref = quad(lambda t: np.sin(np.pi * t * t / 2), 0, x, limit=400)[0]
        p = fresnel(x)
        assert p.c == pytest.approx(c_ref, abs=1e-10)
        assert p.s == pytest.approx(s_ref, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    def test_odd_symmetry(self, x):
        plus = fresnel(x)
        minus = fresnel(-x)
        assert minus.c == pytest.approx(-plus.c, abs=1e-12)
        assert minus.s == pytest.approx(-plus.s, abs=1e-12)

    @pytest.mark.parametrize("x", [2.0, 3.0, 5.0, 8.0, 20.0])
    def test_large_argument_asymptotics(self, x):
        p = fresnel(x)
        assert abs(p.c - (0.5 + np.sin(np.pi * x * x / 2) / (np.pi * x))) < 1.0 / x**3
        assert abs(p.s - (0.5 - np.cos(np.pi * x * x / 2) / (np.pi * x))) < 1.0 / x**3

    def test_array_matches_scalar(self):
        x = np.linspace(-4.0, 4.0, 41)
        arr = fresnel_array(x)
        for i, xi in enumerate(x):
            p = fresnel(float(xi))
            assert arr[0][i] == pytest.approx(p.c, abs=1e-14)
            assert arr[1][i] == pytest.approx(p.s, abs=1e-14)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fresnel(float("nan"))
        with pytest.raises(ValueError):
            fresnel_array(np.array([0.0, np.inf]))


class TestPowerSpectrum:
    def test_total_power_matches_parseval(self):
        rng = np.random.default_rng(7)
        fs = 15.36e6
        x = (rng.standard_normal(32768) + 1j * rng.standard_normal(32768)) / np.sqrt(2)
        freqs, density = power_spectrum(x, fs, 1024)
        df = freqs[1] - freqs[0]
        total = float(np.sum(density) * df)
        assert total == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.02)

    def test_tone_concentrates_at_its_frequency(self):
        fs = 15.36e6
        f0 = 1.2e6
        n = 16384
        t = np.arange(n) / fs
        x = np.exp(2j * np.pi * f0 * t)
        freqs, density = power_spectrum(x, fs, 1024)
        df = freqs[1] - freqs[0]
        peak = freqs[np.argmax(density)]
        assert abs(peak - f0) <= df
        mainlobe = np.abs(freqs - f0) <= 2 * df
        frac = float(np.sum(density[mainlobe]) / np.sum(density))
        assert frac >= 0.99

    def test_white_noise_density_level(self):
        rng = np.random.default_rng(3)
        fs = 2.0e6
        sigma2 = 0.5
        x = np.sqrt(sigma2 / 2) * (
            rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
        )
        freqs, density = power_spectrum(x, fs, 512)
        assert float(np.median(density)) == pytest.approx(sigma2 / fs, rel=0.05)

    def test_frequencies_ascending_and_two_sided(self):
        x = np.ones(4096, dtype=complex)
        freqs, density = power_spectrum(x, 1.0e6, 256)
        assert np.all(np.diff(freqs) > 0)
        assert freqs[0] < 0 < freqs[-1]
        assert density.shape == freqs.shape

    def test_bad_segment_length_rejected(self):
        x = np.ones(128, dtype=complex)
        with pytest.raises(ValueError):
            power_spectrum(x, 1.0, 0)
        with pytest.raises(ValueError):
            power_spectrum(x, 1.0, 256)


class TestPowerSpectrumOracle:
    """The batched periodogram against ``scipy.signal.welch`` with the same
    recipe (periodic Hann, 50% overlap, no detrend, two-sided density)."""

    @staticmethod
    def _welch(x, fs, seg):
        from scipy.signal import welch

        freqs, dens = welch(
            x,
            fs=fs,
            window="hann",
            nperseg=seg,
            noverlap=seg // 2,
            detrend=False,
            return_onesided=False,
            scaling="density",
        )
        order = np.argsort(freqs)
        return freqs[order], dens[order]

    @pytest.mark.parametrize("complex_input", [True, False], ids=["complex", "real"])
    @pytest.mark.parametrize(
        "n, seg",
        [(1024, 1024), (1500, 1024), (4097, 64), (1001, 7), (1000, 1)],
        ids=["n=seg", "remainder", "even-seg", "odd-seg", "one-point"],
    )
    def test_matches_welch(self, n, seg, complex_input):
        rng = np.random.default_rng(n + seg)
        x = rng.standard_normal(n)
        if complex_input:
            x = x + 1j * rng.standard_normal(n)
        freqs, dens = power_spectrum(x, 15.36e6, seg)
        ref_freqs, ref_dens = self._welch(x, 15.36e6, seg)
        np.testing.assert_array_equal(freqs, ref_freqs)
        np.testing.assert_allclose(dens, ref_dens, rtol=1e-12, atol=0)

    def test_strided_input_matches_welch(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(9000) + 1j * rng.standard_normal(9000)
        x = base[::3]
        assert not x.flags.c_contiguous
        freqs, dens = power_spectrum(x, 1.0e6, 128)
        ref_freqs, ref_dens = self._welch(x, 1.0e6, 128)
        np.testing.assert_array_equal(freqs, ref_freqs)
        np.testing.assert_allclose(dens, ref_dens, rtol=1e-12, atol=0)

    def test_cli_import_does_not_load_scipy_signal(self):
        src = str(Path(chirpvote.__file__).resolve().parents[1])
        code = "import sys, chirpvote.cli; sys.exit('scipy.signal' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": src, "PATH": ""},
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()
