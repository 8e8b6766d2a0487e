import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpvote import rf, studies
from chirpvote._rng import keyed_rng
from chirpvote.config import ExperimentConfig, MetricsConfig
from chirpvote.errors import InfeasibleError
from chirpvote.numerics import power_spectrum
from chirpvote.oac import random_csc_traffic, random_qpsk
from chirpvote.rf import (
    MetricDistribution,
    RappPa,
    aclr,
    aclr_at_obo,
    apply_pa,
    cubic_metric,
    cubic_metric_batch,
    drive,
    obo_for_aclr,
    occupied_band,
    pmepr,
    pmepr_batch,
    scale_to_obo,
)
from chirpvote.waveform import (
    ComplexSignal,
    WaveformConfig,
    analog_body,
    assemble_stream,
    build_fdss,
    precode,
)

CFG = WaveformConfig()


def _tone(n=4096, fs=15.36e6, f0=1.0e6, amp=1.0):
    t = np.arange(n) / fs
    return ComplexSignal(samples=amp * np.exp(2j * np.pi * f0 * t), sample_period=1 / fs)


def _csc_stream(votes, n_symbols, seed, oversample=4):
    rng = keyed_rng(seed, "rf-test", votes)
    bins = random_csc_traffic(CFG.num_bins, votes, n_symbols, rng)
    return assemble_stream(CFG, precode(CFG, build_fdss(CFG), bins), oversample)


class TestRappPa:
    def test_validation(self):
        with pytest.raises(ValueError):
            RappPa(sat_amplitude=0.0)
        with pytest.raises(ValueError):
            RappPa(smoothness=-1.0)

    def test_unit_drive_reference_point(self):
        # at the saturation amplitude with smoothness 3, gain is 2^(-1/6)
        pa = RappPa(sat_amplitude=1.0, smoothness=3.0)
        sig = ComplexSignal(samples=np.array([1.0 + 0j]), sample_period=1.0)
        out = apply_pa(pa, sig)
        assert abs(out.samples[0]) == pytest.approx(2.0 ** (-1.0 / 6.0), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=50.0))
    def test_amplifier_is_contractive_and_bounded(self, amplitude):
        pa = RappPa(sat_amplitude=1.0, smoothness=0.9)
        sig = ComplexSignal(samples=np.array([amplitude + 0j]), sample_period=1.0)
        out = abs(apply_pa(pa, sig).samples[0])
        assert out <= amplitude + 1e-12
        assert out <= pa.sat_amplitude + 1e-12

    def test_phase_preserved(self):
        pa = RappPa()
        z = 0.7 * np.exp(1j * 1.234)
        sig = ComplexSignal(samples=np.array([z]), sample_period=1.0)
        out = apply_pa(pa, sig).samples[0]
        assert np.angle(out) == pytest.approx(1.234, abs=1e-12)

    def test_scale_to_obo_sets_mean_power(self):
        pa = RappPa(sat_amplitude=2.0, obo_db=7.0)
        rng = np.random.default_rng(0)
        sig = ComplexSignal(
            samples=rng.standard_normal(512) + 1j * rng.standard_normal(512),
            sample_period=1.0,
        )
        out = scale_to_obo(pa, sig)
        assert out.mean_power == pytest.approx(4.0 * 10 ** (-0.7), rel=1e-12)

    def test_drive_composition(self):
        pa = RappPa(obo_db=6.0)
        sig = _tone()
        d = drive(pa, sig)
        ref = apply_pa(pa, scale_to_obo(pa, sig))
        np.testing.assert_allclose(d.samples, ref.samples)


class TestEnvelopeMetrics:
    def test_constant_envelope_pmepr_zero(self):
        assert pmepr(_tone()) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_pmepr_scale_invariant(self, scale):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        a = ComplexSignal(samples=x, sample_period=1.0)
        b = ComplexSignal(samples=scale * x, sample_period=1.0)
        assert pmepr(a) == pytest.approx(pmepr(b), abs=1e-9)

    def test_pmepr_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        batch = pmepr_batch(x)
        for i in range(5):
            assert batch[i] == pytest.approx(
                pmepr(ComplexSignal(samples=x[i], sample_period=1.0))
            )

    def test_constant_envelope_cubic_metric(self):
        # RCM of a constant envelope is 0 dB, so CM = -1 exactly
        assert cubic_metric(_tone()) == pytest.approx(-1.0, abs=1e-9)

    def test_single_chirp_cubic_metric_below_zero(self):
        rng = keyed_rng(0, "cm-test")
        bins = random_csc_traffic(CFG.num_bins, 1, 256, rng)
        bodies = analog_body(CFG, precode(CFG, build_fdss(CFG), bins), 4)
        med = float(np.median(cubic_metric_batch(bodies)))
        assert med < 0.0

    def test_zero_signal_rejected(self):
        dead = ComplexSignal(samples=np.zeros(16, dtype=complex), sample_period=1.0)
        with pytest.raises(ValueError):
            pmepr(dead)
        with pytest.raises(ValueError):
            cubic_metric(dead)


class TestAclr:
    def test_band_validation(self):
        sig = _tone()
        with pytest.raises(ValueError):
            aclr(sig, (1e6, 1e6), 1024)
        with pytest.raises(ValueError):
            aclr(sig, (-20e6, 20e6), 1024)

    def test_occupied_band_matches_grid(self):
        lo, hi = occupied_band(CFG)
        df = CFG.sample_rate / CFG.idft_size
        assert lo == pytest.approx((CFG.bin_low - 0.5) * df)
        assert hi == pytest.approx((CFG.bin_high + 0.5) * df)
        assert hi - lo == pytest.approx(CFG.num_bins * df)

    def test_inband_tone_leaks_little(self):
        sig = _tone(n=16384, f0=1.0e6)
        assert aclr(sig, (-2e6, 2e6), 1024) < -40.0

    def test_linear_regime_aclr_improves_with_backoff(self):
        pa = RappPa()
        stream = _csc_stream(2, 64, seed=3)
        band = occupied_band(CFG)
        hard = aclr_at_obo(pa, stream, band, 1.0)
        soft = aclr_at_obo(pa, stream, band, 12.0)
        assert soft < hard

    def test_obo_search_meets_target(self):
        pa = RappPa()
        stream = _csc_stream(2, 64, seed=4)
        band = occupied_band(CFG)
        target = -20.0
        obo = obo_for_aclr(pa, stream, band, target, tol_db=0.05)
        assert aclr_at_obo(pa, stream, band, obo) <= target + 0.05
        assert aclr_at_obo(pa, stream, band, max(obo - 1.0, 0.0)) > target - 3.0

    def test_obo_search_infeasible_target(self):
        pa = RappPa()
        stream = _csc_stream(2, 64, seed=5)
        band = occupied_band(CFG)
        with pytest.raises(InfeasibleError):
            obo_for_aclr(pa, stream, band, -60.0)


class TestSegmentLenWiring:
    """``metrics.segment_len`` is the PSD segment length of every ACLR."""

    def test_studies_pass_the_config_field(self, monkeypatch):
        seen = []

        def spy(samples, sample_rate, segment_len):
            seen.append(segment_len)
            return power_spectrum(samples, sample_rate, segment_len)

        monkeypatch.setattr(rf, "power_spectrum", spy)
        cfg = ExperimentConfig(
            metrics=MetricsConfig(stream_symbols=50, obo_step_db=5.0, segment_len=256),
            schemes=("csc_mv_2",),
        )
        studies.aclr_study(cfg, 0)
        studies.coverage_study(cfg, 0)
        assert len(seen) > 7 and set(seen) == {256}

    def test_segment_len_changes_aclr(self):
        stream = _csc_stream(2, 64, seed=6)
        band = occupied_band(CFG)
        assert aclr(stream, band, 256) != aclr(stream, band, 1024)

    def test_library_defaults_match_config(self):
        default = MetricsConfig().segment_len
        for fn in (aclr_at_obo, obo_for_aclr):
            assert inspect.signature(fn).parameters["segment_len"].default == default


class TestMetricDistribution:
    def test_sorted_and_percentiles(self):
        d = MetricDistribution.from_samples(np.array([3.0, 1.0, 2.0]))
        assert list(d.values) == [1.0, 2.0, 3.0]
        assert d.median == pytest.approx(2.0)
        assert d.percentile(0.0) == pytest.approx(1.0)
        assert d.percentile(100.0) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricDistribution.from_samples(np.array([]))
