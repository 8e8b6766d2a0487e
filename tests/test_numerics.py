import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chirpvote
from chirpvote.rf import SEGMENT_LEN, power_spectrum

#: the periodogram's bin frequencies in cycles per sample, ascending
FREQS = np.fft.fftshift(np.fft.fftfreq(SEGMENT_LEN))


def _one_shot_density(x):
    """Reference: window and transform every segment in one batch, then take
    the mean over segments."""
    seg = SEGMENT_LEN
    segments = np.lib.stride_tricks.sliding_window_view(x, seg)[:: seg // 2]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    spectra = np.fft.fft(segments * window, axis=-1)
    power = spectra.real**2 + spectra.imag**2
    return np.fft.fftshift(power.mean(axis=0) / np.sum(window**2))


class TestPowerSpectrum:
    @pytest.mark.blas_threads
    @pytest.mark.parametrize(
        "count", [1, 31, 32, 33, 64, 65], ids=lambda count: f"{count}-{SEGMENT_LEN}"
    )
    def test_blocks_equal_one_shot_periodogram(self, count):
        # the running sum adds segment rows in the one-shot order, bit for bit
        n = (count + 1) * SEGMENT_LEN // 2
        rng = np.random.default_rng(count * 10_000 + SEGMENT_LEN)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dens = power_spectrum(x)
        assert dens.shape == (SEGMENT_LEN,)
        np.testing.assert_array_equal(dens, _one_shot_density(x))

    def test_total_power_matches_parseval(self):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal(32768) + 1j * rng.standard_normal(32768)) / np.sqrt(2)
        total = float(np.mean(power_spectrum(x)))  # bins 1 / SEGMENT_LEN apart
        assert total == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.02)

    def test_tone_concentrates_at_its_frequency(self):
        f0 = 0.078125  # cycles per sample
        x = np.exp(2j * np.pi * f0 * np.arange(16384))
        density = power_spectrum(x)
        df = FREQS[1] - FREQS[0]
        peak = FREQS[np.argmax(density)]
        assert abs(peak - f0) <= df
        mainlobe = np.abs(FREQS - f0) <= 2 * df
        frac = float(np.sum(density[mainlobe]) / np.sum(density))
        assert frac >= 0.99

    def test_white_noise_density_level(self):
        rng = np.random.default_rng(3)
        sigma2 = 0.5
        x = np.sqrt(sigma2 / 2) * (
            rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
        )
        assert float(np.median(power_spectrum(x))) == pytest.approx(sigma2, rel=0.05)

    def test_frequencies_ascending_and_two_sided(self):
        # a tone at -1/4 cycles per sample peaks a quarter of the way up the
        # bins, one at +1/4 three quarters of the way up
        t = np.arange(4096)
        for f0, peak in ((-0.25, SEGMENT_LEN // 4), (0.25, 3 * SEGMENT_LEN // 4)):
            density = power_spectrum(np.exp(2j * np.pi * f0 * t))
            assert density.shape == (SEGMENT_LEN,)
            assert np.argmax(density) == peak

    def test_bad_segment_length_rejected(self):
        # a signal shorter than one segment has no periodogram
        with pytest.raises(ValueError, match="shorter than one"):
            power_spectrum(np.ones(SEGMENT_LEN - 1, dtype=complex))
        assert power_spectrum(np.ones(SEGMENT_LEN, dtype=complex)).shape == (SEGMENT_LEN,)

    def test_non_1d_input_rejected(self):
        # the periodogram of one stream: a stack of streams is an argument error
        with pytest.raises(ValueError, match=r"1-D sample stream.*\(2, 4096\)"):
            power_spectrum(np.ones((2, 4096), dtype=complex))


class TestPowerSpectrumOracle:
    """The batched periodogram against ``scipy.signal.welch`` with the same
    recipe (unit rate, ``SEGMENT_LEN``-sample segments, periodic Hann, 50%
    overlap, no detrend, two-sided density)."""

    @staticmethod
    def _welch(x):
        from scipy.signal import welch

        freqs, dens = welch(
            x,
            fs=1.0,
            window="hann",
            nperseg=SEGMENT_LEN,
            noverlap=SEGMENT_LEN // 2,
            detrend=False,
            return_onesided=False,
            scaling="density",
        )
        np.testing.assert_array_equal(np.sort(freqs), FREQS)
        return dens[np.argsort(freqs)]

    @pytest.mark.parametrize("complex_input", [True, False], ids=["complex", "real"])
    @pytest.mark.parametrize(
        "n", [1024, 1500, 20_000], ids=["n=seg", "remainder", "two-blocks"]
    )
    def test_matches_welch(self, n, complex_input):
        rng = np.random.default_rng(n + SEGMENT_LEN)
        x = rng.standard_normal(n)
        if complex_input:
            x = x + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(power_spectrum(x), self._welch(x), rtol=1e-12, atol=0)

    def test_strided_input_matches_welch(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(9000) + 1j * rng.standard_normal(9000)
        x = base[::3]
        assert not x.flags.c_contiguous
        np.testing.assert_allclose(power_spectrum(x), self._welch(x), rtol=1e-12, atol=0)

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
