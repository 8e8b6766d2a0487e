import numpy as np
import pytest

from chirpvote._rng import keyed_rng
from chirpvote.channel import (
    EPA_DELAYS_NS,
    EPA_POWERS_DB,
    draw_epa,
    draw_sync_offset,
    epa_rms_delay_spread_ns,
    epa_tap_delays,
    propagate,
)
from chirpvote.errors import ConfigError
from chirpvote.waveform import WaveformConfig

CFG = WaveformConfig()


def _sig(x):
    return np.asarray(x, dtype=complex)


def frequency_response(
    delays: np.ndarray,
    gains: np.ndarray,
    bin_indices: np.ndarray,
    idft_size: int,
    offset_samples: int = 0,
) -> np.ndarray:
    """Reference: the tap line's response at the given (signed) subcarrier
    indices, including an extra timing offset in samples. It is the oracle of
    ``channel.epa_phase_table``: the same expression, element by element."""
    j = np.asarray(bin_indices)[:, None]
    d = (delays + offset_samples)[None, :]
    phases = np.exp(-2j * np.pi * j * d / idft_size)
    return phases @ gains


class TestProfile:
    def test_profile_values(self):
        assert EPA_DELAYS_NS == (0.0, 30.0, 70.0, 90.0, 110.0, 190.0, 410.0)
        assert EPA_POWERS_DB == (0.0, -1.0, -2.0, -3.0, -8.0, -17.2, -20.8)

    def test_rms_delay_spread_frozen(self):
        assert epa_rms_delay_spread_ns() == pytest.approx(43.129, abs=0.01)

    def test_delays_snap_to_sample_grid(self):
        delays = epa_tap_delays(CFG)
        np.testing.assert_array_equal(delays, [0, 0, 1, 1, 2, 3, 6])
        assert delays.max() == 6

    def test_delays_past_int64_raise_config_error(self):
        # each rate snaps the 410 ns tap to 2^63 samples or more
        for rate in (1e300, 3.2e26, 1.001 * 2.0**63 / 410e-9):
            with pytest.raises(ConfigError, match="wave.sample_rate"):
                epa_tap_delays(WaveformConfig(sample_rate=rate))
        delays = epa_tap_delays(WaveformConfig(sample_rate=0.999 * 2.0**63 / 410e-9))
        assert delays.dtype == np.int64 and delays.max() > 2**62

    def test_average_tap_power_normalized(self):
        total = 0.0
        n = 4000
        rng = keyed_rng(1, "epa-power")
        for _ in range(n):
            gains = draw_epa([rng])[0]
            total += float(np.sum(np.abs(gains) ** 2))
        assert total / n == pytest.approx(1.0, rel=0.05)

    def test_draws_are_keyed_deterministic(self):
        a = draw_epa([keyed_rng(5, "epa")])[0]
        b = draw_epa([keyed_rng(5, "epa")])[0]
        np.testing.assert_array_equal(a, b)


class TestFrequencyResponse:
    def test_single_tap_phase_ramp(self):
        j = np.array([-2, 0, 5])
        h = frequency_response(np.array([3]), np.array([0.5 + 0.5j]), j, 64)
        ref = (0.5 + 0.5j) * np.exp(-2j * np.pi * j * 3 / 64)
        np.testing.assert_allclose(h, ref, atol=1e-15)

    def test_offset_adds_to_delay(self):
        gains = np.array([1.0 + 0j])
        j = np.arange(-27, 27)
        shifted = frequency_response(np.array([2]), gains, j, 64, offset_samples=4)
        combined = frequency_response(np.array([6]), gains, j, 64)
        np.testing.assert_allclose(shifted, combined, atol=1e-15)


class TestPropagate:
    def test_pure_delay_shifts_and_truncates(self):
        x = np.arange(1, 11, dtype=complex)
        y = propagate(np.array([3]), np.array([1.0 + 0j]), 0, _sig(x))
        assert y.size == x.size
        np.testing.assert_allclose(y[:3], 0.0)
        np.testing.assert_allclose(y[3:], x[:-3])

    def test_sync_offset_compounds(self):
        x = np.arange(1, 9, dtype=complex)
        y = propagate(np.array([1]), np.array([1.0 + 0j]), 2, _sig(x))
        np.testing.assert_allclose(y[3:], x[:-3])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        line = epa_tap_delays(CFG), draw_epa([rng])[0]
        a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        lhs = propagate(*line, 1, _sig(2.0 * a - 3.0 * b))
        rhs = 2.0 * propagate(*line, 1, _sig(a)) - 3.0 * propagate(*line, 1, _sig(b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_negative_offset_rejected(self):
        gains = draw_epa([np.random.default_rng(0)])[0]
        with pytest.raises(ValueError):
            propagate(epa_tap_delays(CFG), gains, -1, _sig(np.ones(8)))


class TestSyncOffset:
    def test_range_and_determinism(self):
        rng = keyed_rng(0, "sync")
        draws = [draw_sync_offset(4, rng) for _ in range(200)]
        assert set(draws) <= {0, 1, 2, 3, 4}
        assert min(draws) == 0 and max(draws) == 4
        with pytest.raises(ValueError):
            draw_sync_offset(-1, np.random.default_rng(0))
