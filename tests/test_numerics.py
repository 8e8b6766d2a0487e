import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chirpvote
from chirpvote.rf import power_spectrum


def _one_shot_density(x, fs, seg):
    """Reference: window and transform every segment in one batch, then take
    the mean over segments."""
    step = seg - seg // 2
    segments = np.lib.stride_tricks.sliding_window_view(x, seg)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    spectra = np.fft.fft(segments * window, axis=-1)
    power = spectra.real**2 + spectra.imag**2
    return np.fft.fftshift(power.mean(axis=0) / (fs * np.sum(window**2)))


class TestPowerSpectrum:
    @pytest.mark.parametrize("seg", [2, 7, 64, 1024])
    @pytest.mark.parametrize("count", [1, 31, 32, 33, 64, 65])
    def test_blocks_equal_one_shot_periodogram(self, count, seg):
        # the running sum adds segment rows in the one-shot order, bit for bit
        n = (count - 1) * (seg - seg // 2) + seg
        rng = np.random.default_rng(count * 10_000 + seg)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        freqs, dens = power_spectrum(x, 15.36e6, seg)
        assert freqs.size == seg
        np.testing.assert_array_equal(dens, _one_shot_density(x, 15.36e6, seg))

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
        for seg in (0, 256):
            with pytest.raises(ValueError):
                power_spectrum(x, 1.0, seg)


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
        [(1024, 1024), (1500, 1024), (4097, 64), (1001, 7)],
        ids=["n=seg", "remainder", "even-seg", "odd-seg"],
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

    @pytest.mark.parametrize("complex_input", [True, False], ids=["complex", "real"])
    def test_one_point_segment_rejected(self, complex_input):
        """A one-point Hann window is all zeros, so ``segment_len`` 1 raises
        instead of matching SciPy's special case."""
        rng = np.random.default_rng(1001)
        x = rng.standard_normal(1000)
        if complex_input:
            x = x + 1j * rng.standard_normal(1000)
        with pytest.raises(ValueError):
            power_spectrum(x, 15.36e6, 1)

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
        """SciPy is a test-only oracle: importing the CLI loads no SciPy module."""
        src = str(Path(chirpvote.__file__).resolve().parents[1])
        code = (
            "import sys, chirpvote.cli; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
        )
        result = subprocess.run(
            [sys.executable, "-B", "-c", code],
            env={"PYTHONPATH": src, "PATH": ""},
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()
