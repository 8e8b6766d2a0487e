import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpvote import rf, studies
from chirpvote._rng import keyed_rng
from chirpvote.config import ExperimentConfig, MetricsConfig
from chirpvote.deployment import PowerControlParams
from chirpvote.errors import ConfigError, InfeasibleError
from chirpvote.oac import random_csc_traffic, random_qpsk
from chirpvote.rf import (
    PaDriver,
    RappPa,
    aclr,
    cubic_metric_batch,
    obo_for_aclr,
    occupied_band,
    pmepr_batch,
    power_spectrum,
)
from chirpvote.waveform import (
    WaveformConfig,
    analog_body,
    assemble_stream,
    build_fdss,
    precode,
)

CFG = WaveformConfig()


def scale_to_obo(pa: RappPa, x: np.ndarray, obo_db: float) -> np.ndarray:
    """Reference: scale the signal so its mean power sits obo_db below the
    PA's unit saturation."""
    mean_power = float(np.mean(np.abs(x) ** 2))
    if mean_power <= 0:
        raise ValueError("cannot scale a zero-power signal")
    target = 10.0 ** (-obo_db / 10.0)
    return x * math.sqrt(target / mean_power)


def apply_pa(pa: RappPa, x: np.ndarray) -> np.ndarray:
    """Reference: the unit-saturation Rapp curve sample by sample, on |x|
    itself."""
    expo = 2.0 * pa.smoothness
    return x / (1.0 + np.abs(x) ** expo) ** (1.0 / expo)


def _tone(n=4096, f0=0.065, amp=1.0):
    """A complex tone at ``f0`` cycles per sample."""
    return amp * np.exp(2j * np.pi * f0 * np.arange(n))


def _float_band(lo, hi):
    """The PSD bins from ``lo`` to ``hi`` cycles per sample, by comparing the
    bins' float frequencies with the float edges."""
    freqs = np.fft.fftshift(np.fft.fftfreq(rf.SEGMENT_LEN))
    return (freqs >= lo) & (freqs <= hi)


def _oracle_band(cfg):
    """The occupied band as float edges half a subcarrier past the outer
    occupied ones, at ``rf.OVERSAMPLE`` times the numerology's rate."""
    n = cfg.idft_size * rf.OVERSAMPLE
    return _float_band((cfg.bin_low - 0.5) / n, (cfg.bin_high + 0.5) / n)


def _csc_stream(votes, n_symbols, seed):
    rng = keyed_rng(seed, "rf-test", votes)
    bins = random_csc_traffic(CFG.num_bins, votes, n_symbols, rng)
    return assemble_stream(CFG, precode(CFG, build_fdss(CFG), bins), rf.OVERSAMPLE)


class TestRappPa:
    def test_validation(self):
        with pytest.raises(ValueError):
            RappPa(smoothness=0.0)
        with pytest.raises(ValueError):
            RappPa(smoothness=-1.0)

    def test_unit_drive_reference_point(self):
        # at the saturation amplitude with smoothness 3, gain is 2^(-1/6)
        pa = RappPa(smoothness=3.0)
        out = apply_pa(pa, np.array([1.0 + 0j]))
        assert abs(out[0]) == pytest.approx(2.0 ** (-1.0 / 6.0), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=50.0))
    def test_amplifier_is_contractive_and_bounded(self, amplitude):
        pa = RappPa(smoothness=0.9)
        out = abs(apply_pa(pa, np.array([amplitude + 0j]))[0])
        assert out <= amplitude + 1e-12
        assert out <= 1.0 + 1e-12

    def test_phase_preserved(self):
        pa = RappPa()
        z = 0.7 * np.exp(1j * 1.234)
        out = apply_pa(pa, np.array([z]))[0]
        assert np.angle(out) == pytest.approx(1.234, abs=1e-12)

    def test_scale_to_obo_sets_mean_power(self):
        pa = RappPa()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        out = scale_to_obo(pa, x, 7.0)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(10 ** (-0.7), rel=1e-12)

    @pytest.mark.parametrize("smoothness", [0.9, 3.0, 50.0, 200.0])
    def test_drive_matches_scale_then_amplify(self, smoothness):
        pa = RappPa(smoothness=smoothness)
        stream = _csc_stream(2, 32, seed=7)
        drive = PaDriver(pa, stream)
        for obo in (0.0, 3.3, 10.0, 30.0):
            ref = apply_pa(pa, scale_to_obo(pa, stream, obo))
            np.testing.assert_allclose(drive(obo), ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("smoothness", [0.9, 200.0])
    @pytest.mark.parametrize("amplitude", [1e-3, 1e3])
    def test_drive_independent_of_stream_scale(self, amplitude, smoothness):
        # the drive sets the mean power from the back-off, so a stream scaled
        # by any constant gives the same output; the stream's absolute power
        # must not enter the range of p that the drive accepts
        pa = RappPa(smoothness=smoothness)
        stream = _csc_stream(1, 16, seed=5)
        drive, drive_scaled = PaDriver(pa, stream), PaDriver(pa, stream * amplitude)
        for obo in (0.0, 3.3, 30.0):
            np.testing.assert_allclose(drive_scaled(obo), drive(obo), rtol=1e-14, atol=0)

    def test_reused_signal_matches_fresh_copy(self):
        # two drivers with different smoothness on one stream, called in
        # turn, must give what a driver on a fresh copy gives for each
        stream = _csc_stream(4, 16, seed=9)
        pas = (RappPa(smoothness=0.9), RappPa(smoothness=3.0))
        drivers = [PaDriver(pa, stream) for pa in pas]
        for obo in (0.0, 4.5, 12.0):
            for pa, drive in zip(pas, drivers):
                np.testing.assert_array_equal(drive(obo), PaDriver(pa, stream.copy())(obo))

    @pytest.mark.parametrize("smoothness", [5e-4, 1e-3, 150.0, 200.0, 400.0, 1e4])
    def test_drive_output_finite_or_smoothness_rejected(self, smoothness):
        # a large p overflows (g^2 max|x|^2)^p, the stream's peak-to-mean
        # power ratio less the back-off raised to p: at 0 dB, past p = 302
        # for OBDA's 16-symbol stream and past p = 1,660 for csc_mv_1's. A
        # small p makes the output's peak power, about 2^(-1/p), underflow.
        # The drive either gives finite samples whose peak power is a normal
        # float or names the profile key, never inf, NaN or a silent output
        pa = RappPa(smoothness=smoothness)
        cfg = ExperimentConfig(metrics=MetricsConfig(stream_symbols=16))
        rejected = set()
        for name in ("csc_mv_1", "obda"):
            drive = PaDriver(pa, studies.scheme_stream(cfg, name, 3))
            for obo in (0.0, 10.0, 30.0):
                try:
                    out = drive(obo)
                except ConfigError as exc:
                    assert "pa.smoothness" in str(exc)
                    rejected.add((name, obo))
                else:
                    assert np.isfinite(out).all()
                    assert np.max(np.abs(out) ** 2) >= sys.float_info.min
        assert bool(rejected) == (smoothness > 200.0 or smoothness < 1e-3)

    @pytest.mark.parametrize("scheme", ExperimentConfig().schemes)
    def test_drive_equals_two_pass_gain(self, scheme):
        # the driver scales the stream in one complex multiply; on the
        # rf-sweep workload's 80k-sample streams its bytes equal scaling the
        # real and imaginary parts apart, then the Rapp divide
        cfg = ExperimentConfig(metrics=MetricsConfig(stream_symbols=250))
        stream = studies.scheme_stream(cfg, scheme, cfg.seed)
        drive = PaDriver(cfg.pa, stream)
        x = stream
        p = cfg.pa.smoothness
        power = np.abs(x) ** 2
        mean, peak = float(np.mean(power)), float(power.max())
        for obo in (0.0, 9.6, 30.0):
            gain2 = 10.0 ** (-obo / 10.0) / mean
            divisor = np.power(power / peak, p) * (gain2 * peak) ** p + 1.0
            np.power(divisor, 1.0 / (2.0 * p), out=divisor)
            y = np.empty_like(x)
            np.multiply(x.real, math.sqrt(gain2), out=y.real)
            np.multiply(x.imag, math.sqrt(gain2), out=y.imag)
            y.real /= divisor
            y.imag /= divisor
            assert drive(obo).tobytes() == y.tobytes()

    def test_drive_rejects_zero_power(self):
        with pytest.raises(ValueError):
            PaDriver(RappPa(), np.zeros(8, dtype=complex))

    def test_drive_rejects_empty_stream(self):
        # before NumPy's "Mean of empty slice" warning and its empty max
        with pytest.raises(ValueError, match="empty stream"):
            PaDriver(RappPa(), np.zeros(0, dtype=complex))


class TestEnvelopeMetrics:
    def test_constant_envelope_pmepr_zero(self):
        assert pmepr_batch(_tone()[None])[0] == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_pmepr_scale_invariant(self, scale):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        a, b = pmepr_batch(x[None]), pmepr_batch(scale * x[None])
        assert a[0] == pytest.approx(b[0], abs=1e-9)

    def test_pmepr_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        batch = pmepr_batch(x)
        for i in range(5):
            assert batch[i] == pytest.approx(pmepr_batch(x[i][None])[0])

    def test_constant_envelope_cubic_metric(self):
        # RCM of a constant envelope is 0 dB, so CM = -1 exactly
        assert cubic_metric_batch(_tone()[None])[0] == pytest.approx(-1.0, abs=1e-9)

    def test_single_chirp_cubic_metric_below_zero(self):
        rng = keyed_rng(0, "cm-test")
        bins = random_csc_traffic(CFG.num_bins, 1, 256, rng)
        bodies = analog_body(CFG, precode(CFG, build_fdss(CFG), bins), 4)
        med = float(np.median(cubic_metric_batch(bodies)))
        assert med < 0.0

    def test_zero_signal_rejected(self):
        dead = np.zeros((1, 16), dtype=complex)
        with pytest.raises(ValueError):
            pmepr_batch(dead)
        with pytest.raises(ValueError):
            cubic_metric_batch(dead)


class TestSymbolBlocks:
    """The PMEPR/CM reports synthesize and measure ``studies._SYMBOL_BLOCK``
    symbols at a time; every step after the traffic draw works row by row,
    so the blocked values equal the one-shot synthesis byte for byte."""

    NUM_SYMBOLS = 40  # 5 full blocks of 7 and a partial one

    def _cfg(self, num_symbols):
        return ExperimentConfig(metrics=MetricsConfig(num_symbols=num_symbols))

    def _one_shot_bodies(self, cfg, scheme):
        rng = keyed_rng(cfg.seed, "traffic", scheme)
        symbols = studies.scheme_subcarriers(cfg, scheme, cfg.metrics.num_symbols, rng)
        return analog_body(cfg.wave, symbols, rf.OVERSAMPLE)

    @pytest.mark.parametrize("scheme", ExperimentConfig().schemes)
    @pytest.mark.parametrize("block", [1, 7, NUM_SYMBOLS + 1])
    def test_blocked_values_equal_one_shot(self, monkeypatch, scheme, block):
        monkeypatch.setattr(studies, "_SYMBOL_BLOCK", block)
        cfg = self._cfg(self.NUM_SYMBOLS)
        bodies = self._one_shot_bodies(cfg, scheme)
        for metric in (pmepr_batch, cubic_metric_batch):
            blocked = np.concatenate(studies._per_symbol_blocks(cfg, scheme, cfg.seed, metric))
            assert blocked.tobytes() == metric(bodies).tobytes()
        blocked_bodies = studies.scheme_symbol_bodies(cfg, scheme, cfg.seed)
        assert blocked_bodies.tobytes() == bodies.tobytes()

    @pytest.mark.parametrize("report", [studies.pmepr_report, studies.cm_report])
    def test_reports_hold_one_block(self, monkeypatch, report):
        rows_seen = []

        def spy(cfg, symbols, oversample):
            rows_seen.append(symbols.shape[0])
            return analog_body(cfg, symbols, oversample)

        monkeypatch.setattr(studies, "analog_body", spy)
        num_symbols = 3 * studies._SYMBOL_BLOCK + 5
        cfg = self._cfg(num_symbols)
        report(cfg)
        assert max(rows_seen) <= studies._SYMBOL_BLOCK
        assert sum(rows_seen) == len(cfg.schemes) * num_symbols

    @pytest.mark.parametrize(
        "report, metric",
        [(studies.pmepr_report, pmepr_batch), (studies.cm_report, cubic_metric_batch)],
    )
    def test_summary_equals_scalar_percentiles(self, report, metric):
        cfg = self._cfg(self.NUM_SYMBOLS)
        _, summary = report(cfg)
        for scheme in cfg.schemes:
            samples = metric(self._one_shot_bodies(cfg, scheme))
            assert summary[scheme] == {
                "median_db": float(np.percentile(samples, 50.0)),
                "p99_db": float(np.percentile(samples, 99.0)),
                "p99_9_db": float(np.percentile(samples, 99.9)),
            }


class TestQuantiles:
    """The reports' percentiles come from ``studies._quantiles``, which keeps
    ``np.percentile``'s bytes without its ``numpy.ma`` import."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 200, 999, 1000, 4000])
    def test_equals_percentile(self, n):
        rng = np.random.default_rng(n)
        for samples in (rng.standard_normal(n) * 3.0 + 7.0, rng.integers(0, 5, n) * 0.5):
            got = studies._quantiles(samples, studies.PERCENTILES / 100.0)
            assert got.tobytes() == np.percentile(samples, studies.PERCENTILES).tobytes()

    def test_reports_do_not_import_numpy_ma(self, tmp_path):
        quick = Path(__file__).resolve().parents[1] / "scripts" / "profiles" / "quick.json"
        code = (
            "import sys; from chirpvote.cli import main\n"
            "for cmd in ('pmepr', 'cm'):\n"
            "    assert main([cmd, '--config', sys.argv[1], '--out', sys.argv[2] + cmd]) == 0\n"
            "sys.exit('numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-B", "-c", code, str(quick), str(tmp_path / "out_")],
            env={"PYTHONPATH": str(Path(studies.__file__).resolve().parents[1]), "PATH": ""},
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()


class TestAclr:
    def test_band_validation(self):
        # the band is a (SEGMENT_LEN,) boolean mask with bins on both sides
        sig = _tone()
        seg = rf.SEGMENT_LEN
        for band in ((-0.13, 0.13), np.ones(seg - 1, dtype=bool), np.ones(seg), np.arange(seg)):
            with pytest.raises(ValueError, match="boolean mask"):
                aclr(sig, band)
        with pytest.raises(ValueError, match="no PSD bin"):
            aclr(sig, np.zeros(seg, dtype=bool))

    def test_occupied_band_matches_grid(self):
        # one run of bins, from the first at or above the low edge to the
        # last at or below the high edge, in cycles per sample of the
        # OVERSAMPLE-times stream
        inside = occupied_band(CFG)
        seg = rf.SEGMENT_LEN
        assert inside.dtype == bool and inside.shape == (seg,)
        assert not inside.flags.writeable
        k = np.flatnonzero(inside) - seg // 2
        np.testing.assert_array_equal(np.diff(k), 1)
        n = CFG.idft_size * rf.OVERSAMPLE
        assert (k[0] - 1) / seg < (CFG.bin_low - 0.5) / n <= k[0] / seg
        assert k[-1] / seg <= (CFG.bin_high + 0.5) / n < (k[-1] + 1) / seg

    @pytest.mark.parametrize(
        "idft_size, num_bins, n_inside",
        [(64, 54, 217), (96, 55, 147), (96, 56, 150), (80, 58, 186)],
    )
    def test_inband_mask_is_the_integer_rule(self, monkeypatch, idft_size, num_bins, n_inside):
        # the integer rule marks the bins the float edges do; at (96, 56) the
        # low edge falls exactly on bin -76
        cfg = WaveformConfig(idft_size=idft_size, num_bins=num_bins)
        inside = occupied_band(cfg)
        np.testing.assert_array_equal(inside, _oracle_band(cfg))
        assert inside.sum() == n_inside
        # on a unit density the ACLR is the ratio of the bin counts
        seg = rf.SEGMENT_LEN
        monkeypatch.setattr(rf, "power_spectrum", lambda samples: np.ones(seg))
        flat = aclr(None, inside)
        assert flat == pytest.approx(10.0 * np.log10((seg - n_inside) / n_inside), rel=1e-12)

    def test_aclr_equals_the_float_band_sums(self):
        # the density summed over the float-edge mask and its complement:
        # the same elements in the same order, so the same bits
        cfg = ExperimentConfig(metrics=MetricsConfig(stream_symbols=100))
        oracle = _oracle_band(cfg.wave)
        band = occupied_band(cfg.wave)
        for scheme in studies._radio_schemes(cfg):
            drive = PaDriver(cfg.pa, studies.scheme_stream(cfg, scheme, 0))
            for obo in (0.0, 3.0, 9.61, 30.0):
                y = drive(obo)
                dens = power_spectrum(y)
                expected = float(10.0 * np.log10(dens[~oracle].sum() / dens[oracle].sum()))
                assert aclr(y, band).hex() == expected.hex()

    def test_psd_without_bins_outside_the_band_rejected(self):
        # a band that fills the sampled spectrum leaves no bin to see leakage
        # in; no profile reaches this at 4x oversampling, so it is a plain
        # argument error that names no profile key
        sig = _tone()
        with pytest.raises(ValueError, match="no leakage") as exc:
            aclr(sig, np.ones(rf.SEGMENT_LEN, dtype=bool))
        assert type(exc.value) is ValueError
        assert math.isfinite(aclr(sig, _float_band(-0.13, 0.13)))

    def test_inband_tone_leaks_little(self):
        sig = _tone(n=16384)
        assert aclr(sig, _float_band(-0.13, 0.13)) < -40.0

    def test_linear_regime_aclr_improves_with_backoff(self):
        pa = RappPa()
        stream = _csc_stream(2, 64, seed=3)
        band = occupied_band(CFG)
        drive = PaDriver(pa, stream)
        hard = aclr(drive(1.0), band)
        soft = aclr(drive(12.0), band)
        assert soft < hard

    def test_obo_search_meets_target(self):
        pa = RappPa()
        stream = _csc_stream(2, 64, seed=4)
        band = occupied_band(CFG)
        target = -20.0
        obo = obo_for_aclr(pa, stream, band, target, tol_db=0.05)
        drive = PaDriver(pa, stream)
        assert aclr(drive(obo), band) <= target + 0.05
        assert aclr(drive(max(obo - 1.0, 0.0)), band) > target - 3.0

    def test_obo_search_ends_at_a_tolerance_below_the_float_spacing(self, monkeypatch):
        # once lo and hi are adjacent floats their midpoint is one of them and
        # hi - lo stops shrinking, so the search must stop there
        pa = RappPa()
        stream = _csc_stream(2, 64, seed=4)
        band = occupied_band(CFG)
        fine = obo_for_aclr(pa, stream, band, -20.0, tol_db=1e-12)
        calls = []

        def counted(samples, inband):
            calls.append(None)
            if len(calls) > 200:
                raise AssertionError("the bisection does not end")
            return aclr(samples, inband)

        monkeypatch.setattr(rf, "aclr", counted)
        assert obo_for_aclr(pa, stream, band, -20.0, tol_db=1e-300) == pytest.approx(fine, abs=1e-11)
        assert len(calls) < 70

    def test_two_dimensional_stream_rejected(self):
        # one stream at a time: a stack of streams is an argument error
        with pytest.raises(ValueError, match=r"1-D sample stream.*\(2, 4096\)"):
            aclr(np.stack([_tone(), _tone()]), _float_band(-0.13, 0.13))

    def test_obo_search_infeasible_target(self):
        pa = RappPa()
        stream = _csc_stream(2, 64, seed=5)
        band = occupied_band(CFG)
        with pytest.raises(InfeasibleError):
            obo_for_aclr(pa, stream, band, -60.0, tol_db=0.1)


    @pytest.mark.parametrize("obo_db", [math.nan, -400.0, 30.5, 1e308])
    def test_spot_backoff_outside_the_span_rejected_before_measuring(self, monkeypatch, obo_db):
        # below 0 dB the PA is driven past saturation; far above 30 dB the
        # drive gain underflows to a silent output
        def unreachable(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(studies, "scheme_stream", unreachable)
        with pytest.raises(ConfigError, match="^obo_db must lie in"):
            studies.aclr_study(ExperimentConfig(), obo_db)


class TestSegmentLenWiring:
    """Every study ACLR is measured on an ``rf.OVERSAMPLE``-times oversampled
    stream, the rate of the PSD bins ``occupied_band`` marks."""

    def test_stream_carries_the_oversampled_rate(self):
        # a plain array: every symbol stride and the last suffix at OVERSAMPLE
        # samples per numerology sample
        cfg = ExperimentConfig(metrics=MetricsConfig(stream_symbols=16))
        stream = studies.scheme_stream(cfg, "csc_mv_2", 0)
        wave = cfg.wave
        stride = (wave.cp_len + wave.idft_size) * rf.OVERSAMPLE
        assert type(stream) is np.ndarray
        assert stream.shape == (16 * stride + wave.window_rolloff * rf.OVERSAMPLE,)


class TestWorkerCount:
    """The ACLR sweep, the coverage solves and the PMEPR/CM symbol blocks give
    the same rows whatever the number of worker threads. The count is forced
    through ``studies._cpus``, so the test does not depend on the host's
    CPUs."""

    SMALL = ExperimentConfig(metrics=MetricsConfig(stream_symbols=50, obo_step_db=5.0))

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of every thread pool the studies open."""
        opened = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(studies, "ThreadPoolExecutor", Recording)
        return opened

    def _rows(self, monkeypatch, workers, study, *args):
        monkeypatch.setattr(studies, "_cpus", lambda: workers)
        # switch threads as often as the interpreter allows, so that workers
        # touching shared state would interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return study(*args)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "schemes, obo_db",
        [
            (("csc_mv_2",), None),
            (("csc_mv_1", "obda", "csc_mv_4"), None),
            (("obda", "csc_mv_2"), 7.5),
        ],
    )
    def test_aclr_rows_do_not_depend_on_workers(self, monkeypatch, pools, schemes, obo_db):
        cfg = replace(self.SMALL, schemes=schemes)
        serial = self._rows(monkeypatch, 1, studies.aclr_study, cfg, obo_db)
        assert pools == []
        threaded = self._rows(monkeypatch, 3, studies.aclr_study, cfg, obo_db)
        # one pool per scheme's sweep, whose calling thread is the third
        # worker; a single back-off needs none
        assert pools == ([2] * len(schemes) if obo_db is None else [])
        assert threaded == serial
        obos = [obo_db] if obo_db is not None else np.arange(0.0, 30.1, 5.0).tolist()
        assert [(r["scheme"], r["obo_db"]) for r in serial] == [
            (scheme, obo) for scheme in schemes for obo in obos
        ]

    def test_coverage_rows_do_not_depend_on_workers(self, monkeypatch, pools):
        cfg = replace(self.SMALL, metrics=MetricsConfig(stream_symbols=50, obo_step_db=2.5))
        serial = self._rows(monkeypatch, 1, studies.coverage_study, cfg)
        threaded = self._rows(monkeypatch, 3, studies.coverage_study, cfg)
        assert pools == [2]
        assert threaded == serial
        assert [r["scheme"] for r in serial] == list(cfg.schemes)
        assert all(r["status"] == "ok" for r in serial)

    @pytest.mark.parametrize("report", [studies.pmepr_report, studies.cm_report])
    @pytest.mark.parametrize("num_symbols", [3 * studies._SYMBOL_BLOCK + 5, studies._SYMBOL_BLOCK])
    def test_symbol_reports_do_not_depend_on_workers(
        self, monkeypatch, pools, report, num_symbols
    ):
        cfg = ExperimentConfig(metrics=MetricsConfig(num_symbols=num_symbols))
        serial = self._rows(monkeypatch, 1, report, cfg)
        assert pools == []
        threaded = self._rows(monkeypatch, 3, report, cfg)
        # one pool per scheme's blocks, whose calling thread is the third
        # worker; a one-block profile needs none
        assert pools == ([2] * len(cfg.schemes) if num_symbols > studies._SYMBOL_BLOCK else [])
        assert threaded == serial

    def test_calling_thread_is_a_worker(self, monkeypatch, pools):
        monkeypatch.setattr(studies, "_cpus", lambda: 3)
        idents = []

        def fn(item):
            idents.append(threading.get_ident())
            return item * item

        assert studies._map(fn, list(range(10))) == [i * i for i in range(10)]
        assert pools == [2]
        assert threading.get_ident() in idents

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("failing", [(1, 2), (3, 4)])  # at 3 workers, 3 is the caller's
    def test_first_exception_in_input_order_is_raised(self, monkeypatch, workers, failing):
        monkeypatch.setattr(studies, "_cpus", lambda: workers)

        def fn(item):
            if item in failing:
                raise ValueError(item)
            return item

        with pytest.raises(ValueError) as exc:
            studies._map(fn, list(range(6)))
        assert exc.value.args == (failing[0],)

    def test_infeasible_row_keeps_its_place(self, monkeypatch):
        # OBDA needs about 10 dB of back-off, more than the 5 dB available at
        # the reference point; the chirps need less
        cfg = replace(
            self.SMALL,
            schemes=("csc_mv_1", "obda", "csc_mv_2"),
            power=PowerControlParams(obo_ref=5.0, obo_min=4.0),
        )
        serial = self._rows(monkeypatch, 1, studies.coverage_study, cfg)
        threaded = self._rows(monkeypatch, 3, studies.coverage_study, cfg)
        assert threaded == serial
        assert [(r["scheme"], r["status"]) for r in threaded] == [
            ("csc_mv_1", "ok"), ("obda", "infeasible"), ("csc_mv_2", "ok")
        ]
