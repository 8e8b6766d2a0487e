from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import fresnel

from chirpvote.channel import draw_epa, propagate
from chirpvote.config import load_config
from chirpvote.errors import ConfigError, FramingError
from chirpvote.waveform import (
    WaveformConfig,
    analog_body,
    assemble_stream,
    build_fdss,
    demodulate_ofdm,
    despread,
    matched_despread,
    modulate_ofdm,
    precode,
    spread,
)

CFG = WaveformConfig()
QUICK = Path(__file__).resolve().parents[1] / "scripts" / "profiles" / "quick.json"


def _fold_weights(cfg, fdss):
    g2 = np.zeros(cfg.num_bins)
    g2[cfg.bin_indices % cfg.num_bins] = np.abs(fdss) ** 2
    return g2


def _reference_roundtrip(cfg, fdss, bins):
    g2 = _fold_weights(cfg, fdss)
    return np.fft.ifft(g2 * np.fft.fft(bins, norm="ortho"), norm="ortho")


class TestConfig:
    def test_defaults(self):
        assert CFG.num_bins == 54
        assert CFG.idft_size == 64
        assert (CFG.bin_low, CFG.bin_high) == (-27, 26)

    def test_bin_indices_cover_contiguous_range(self):
        assert set(CFG.bin_indices) == set(range(CFG.bin_low, CFG.bin_high + 1))
        # an odd band is symmetric about DC; an even one has its extra
        # subcarrier below DC, as the defaults show
        odd = WaveformConfig(num_bins=5, idft_size=8, sweep_cycles=2.0, cp_len=2)
        assert odd.bin_indices.tolist() == [-2, -1, 0, 1, 2]

    def test_sweep_must_fit_in_band(self):
        with pytest.raises(ConfigError):
            WaveformConfig(sweep_cycles=80.0)

    def test_cp_bounds(self):
        with pytest.raises(ConfigError):
            WaveformConfig(cp_len=-1)
        with pytest.raises(ConfigError):
            WaveformConfig(cp_len=64)

    def test_window_must_fit_in_cp(self):
        with pytest.raises(ConfigError):
            WaveformConfig(window_rolloff=17)


def _fresnel_fdss(cfg):
    """Closed form of the shaping: completing the square in the chirp's
    Fourier integral gives exp(-i pi (j^2/d + j)) [C(a) + C(b) + i (S(a) + S(b))]
    with a, b = (d +- 2j) / sqrt(2d), up to a positive constant."""
    d = float(cfg.sweep_cycles)
    j = cfg.bin_indices.astype(float)
    sa, ca = fresnel((d + 2.0 * j) / np.sqrt(2.0 * d))  # SciPy returns (S, C)
    sb, cb = fresnel((d - 2.0 * j) / np.sqrt(2.0 * d))
    f = np.exp(-1j * np.pi * (j * j / d + j)) * ((ca + cb) + 1j * (sa + sb))
    return f * np.sqrt(cfg.num_bins / np.sum(np.abs(f) ** 2))


class TestShaping:
    @pytest.mark.parametrize(
        "cfg",
        [
            CFG,
            load_config(QUICK).wave,
            WaveformConfig(num_bins=12, idft_size=16, sweep_cycles=10.0, cp_len=4),
            WaveformConfig(num_bins=240, idft_size=256, sweep_cycles=230.0, cp_len=16),
        ],
        ids=["default", "quick", "small", "large"],
    )
    def test_quadrature_matches_fresnel_closed_form(self, cfg):
        f = build_fdss(cfg)
        ref = _fresnel_fdss(cfg)
        assert f.shape == (cfg.num_bins,)
        assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cached_read_only(self):
        f = build_fdss(CFG)
        assert not f.flags.writeable
        assert build_fdss(WaveformConfig()) is f
        with pytest.raises(ValueError):
            f[0] = 0.0

    def test_total_shaping_power_equals_bin_count(self):
        f = build_fdss(CFG)
        assert np.sum(np.abs(f) ** 2) == pytest.approx(CFG.num_bins, abs=1e-9)

    def test_magnitude_symmetric_in_bin_index(self):
        f = build_fdss(CFG)
        mag = {j: abs(v) for j, v in zip(CFG.bin_indices, f)}
        for j in range(1, 27):
            assert mag[j] == pytest.approx(mag[-j], rel=1e-9)

    def test_interior_band_flat_edges_rolled_off(self):
        # Fresnel shaping: bounded ripple over the swept band, steep rolloff
        # at the outermost bins.
        f = build_fdss(CFG)
        db = 20 * np.log10(np.abs(f))
        j = CFG.bin_indices
        interior = db[np.abs(j) <= 18]
        assert interior.max() - interior.min() < 3.2
        edge = db[np.abs(j) >= 26]
        assert edge.max() < np.median(interior) - 10.0


class TestChirpSynthesis:
    def test_impulse_bin_shift_is_circular_time_shift(self):
        # bins b and 0 differ by a circular shift of b*N/M samples when that
        # is an integer: 27 * 64/54 = 32.
        f = build_fdss(CFG)
        e0 = np.zeros(CFG.num_bins, dtype=complex)
        e27 = np.zeros(CFG.num_bins, dtype=complex)
        e0[0] = 1.0
        e27[27] = 1.0
        body0 = spread(CFG, f, e0)[CFG.cp_len :]
        body27 = spread(CFG, f, e27)[CFG.cp_len :]
        assert np.max(np.abs(body27 - np.roll(body0, 32))) < 1e-12

    def test_single_chirp_envelope_nearly_constant(self):
        f = build_fdss(CFG)
        e = np.zeros(CFG.num_bins, dtype=complex)
        e[5] = 1.0
        body = analog_body(CFG, precode(CFG, f, e), oversample=4)
        env = np.abs(body) ** 2
        assert env.max() / env.mean() < 10 ** (2.5 / 10)  # under 2.5 dB peak

    def test_symbol_length_and_cyclic_prefix(self):
        f = build_fdss(CFG)
        rng = np.random.default_rng(0)
        s = rng.standard_normal(CFG.num_bins) + 1j * rng.standard_normal(CFG.num_bins)
        sym = spread(CFG, f, s)
        assert sym.size == CFG.cp_len + CFG.idft_size
        w = CFG.window_rolloff
        body = sym[CFG.cp_len :]
        # CP equals the body tail except for the windowed head samples
        np.testing.assert_allclose(
            sym[w : CFG.cp_len], body[-(CFG.cp_len - w) :], atol=1e-12
        )


class TestRoundTrip:
    def test_operator_identity_against_reference(self):
        f = build_fdss(CFG)
        rng = np.random.default_rng(42)
        for _ in range(100):
            s = rng.standard_normal(CFG.num_bins) + 1j * rng.standard_normal(
                CFG.num_bins
            )
            got = despread(CFG, f, spread(CFG, f, s))
            ref = _reference_roundtrip(CFG, f, s)
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_unit_shaping_gives_exact_identity(self):
        ones = np.ones(CFG.num_bins, dtype=complex)
        rng = np.random.default_rng(1)
        s = rng.standard_normal(CFG.num_bins) + 1j * rng.standard_normal(CFG.num_bins)
        got = despread(CFG, ones, spread(CFG, ones, s))
        assert np.max(np.abs(got - s)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, 54, elements=st.floats(-5, 5)),
        arrays(np.float64, 54, elements=st.floats(-5, 5)),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_chain_is_linear(self, re1, re2, a, b):
        f = build_fdss(CFG)
        s1 = re1 + 0.5j * re2
        s2 = re2 - 0.25j * re1
        lhs = despread(CFG, f, spread(CFG, f, a * s1 + b * s2))
        rhs = a * despread(CFG, f, spread(CFG, f, s1)) + b * despread(
            CFG, f, spread(CFG, f, s2)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_despread_rejects_wrong_length(self):
        f = build_fdss(CFG)
        for bad in (79, 96):  # one symbol is exactly cp_len + N = 80 samples
            with pytest.raises(FramingError):
                despread(CFG, f, np.ones(bad, dtype=complex))

    @pytest.mark.parametrize(
        "synthesize",
        [lambda s: spread(CFG, build_fdss(CFG), s), lambda s: modulate_ofdm(CFG, s)],
        ids=["spread", "modulate_ofdm"],
    )
    def test_symbol_synthesis_rejects_a_stack(self, synthesize):
        # a (3, M) stack would frame as a three-symbol stream, of which only
        # the first symbol's period would be returned
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((3, CFG.num_bins)) + 0j
        with pytest.raises(FramingError, match=r"\(3, 54\)"):
            synthesize(stack)
        assert synthesize(stack[0]).shape == (CFG.cp_len + CFG.idft_size,)

    def test_stream_rejects_a_deeper_stack(self):
        # a stream is one (M,) symbol or an (n_symbols, M) stack of them
        stack = np.ones((2, 3, CFG.num_bins), dtype=complex)
        with pytest.raises(FramingError, match=r"\(n_symbols, M\).*\(2, 3, 54\)"):
            assemble_stream(CFG, stack, 1)
        assert assemble_stream(CFG, stack[0], 1).shape == (
            3 * (CFG.cp_len + CFG.idft_size) + CFG.window_rolloff,
        )

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("num_bins", [53, 54])  # ifftshift != fftshift at odd M
    def test_matched_despread_rows_match_despread(self, num_bins):
        cfg = WaveformConfig(num_bins=num_bins)
        f = build_fdss(cfg)
        rng = np.random.default_rng(3)
        n = cfg.cp_len + cfg.idft_size
        rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        stacked = matched_despread(f, np.array([demodulate_ofdm(cfg, r) for r in rows]))
        assert np.array_equal(stacked, [despread(cfg, f, r) for r in rows])

    def test_plain_ofdm_roundtrip(self):
        rng = np.random.default_rng(2)
        qpsk = (
            rng.integers(0, 2, CFG.num_bins) * 2
            - 1
            + 1j * (rng.integers(0, 2, CFG.num_bins) * 2 - 1)
        ) / np.sqrt(2)
        got = demodulate_ofdm(CFG, modulate_ofdm(CFG, qpsk))
        assert np.max(np.abs(got - qpsk)) < 1e-9

    def test_symbol_chain_passes_plain_arrays(self):
        # every chain passes plain sample arrays; none carries a sample rate
        s = np.ones(CFG.num_bins, dtype=complex)
        chirp = spread(CFG, build_fdss(CFG), s)
        ofdm = modulate_ofdm(CFG, s)
        rx = propagate(draw_epa(CFG, np.random.default_rng(0)), 1, chirp)
        for samples in (chirp, ofdm, rx):
            assert type(samples) is np.ndarray


class TestAnalogPaths:
    def test_oversampled_body_preserves_mean_power(self):
        f = build_fdss(CFG)
        rng = np.random.default_rng(3)
        s = rng.standard_normal((10, CFG.num_bins)) + 1j * rng.standard_normal(
            (10, CFG.num_bins)
        )
        symbols = precode(CFG, f, s)
        body1 = analog_body(CFG, symbols, oversample=1)
        body4 = analog_body(CFG, symbols, oversample=4)
        p1 = np.mean(np.abs(body1) ** 2, axis=-1)
        p4 = np.mean(np.abs(body4) ** 2, axis=-1)
        np.testing.assert_allclose(p1, p4, rtol=1e-12)

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_in_place_body_matches_out_of_place(self, oversample):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((6, CFG.num_bins)) + 1j * rng.standard_normal(
            (6, CFG.num_bins)
        )
        symbols = precode(CFG, build_fdss(CFG), s)
        before = symbols.copy()
        padded = np.zeros((6, oversample * CFG.idft_size), dtype=complex)
        padded[:, CFG.bin_indices % (oversample * CFG.idft_size)] = symbols
        ref = np.fft.ifft(padded, norm="ortho", axis=-1) * np.sqrt(oversample)
        np.testing.assert_array_equal(analog_body(CFG, symbols, oversample), ref)
        np.testing.assert_array_equal(symbols, before)

    @pytest.mark.parametrize("oversample", [1, 4])
    @pytest.mark.parametrize("idft_size, num_bins", [(64, 54), (96, 55), (65, 65)])
    def test_one_scatter_matches_two_step_grid_map(self, idft_size, num_bins, oversample):
        # the former map: the M subcarriers onto an N-point grid, then the
        # centered scatter of that grid onto the oversampled grid
        cfg = WaveformConfig(idft_size=idft_size, num_bins=num_bins)
        rng = np.random.default_rng(9)
        s = rng.standard_normal((5, num_bins)) + 1j * rng.standard_normal((5, num_bins))
        n = idft_size
        grid = np.zeros((5, n), dtype=complex)
        grid[:, cfg.bin_indices % n] = s
        padded = np.zeros((5, oversample * n), dtype=complex)
        padded[:, ((np.arange(n) + n // 2) % n - n // 2) % (oversample * n)] = grid
        ref = np.fft.ifft(padded, norm="ortho", axis=-1) * np.sqrt(oversample)
        assert np.array_equal(analog_body(cfg, s, oversample), ref)

    def test_oversample_validity(self):
        with pytest.raises(ValueError):
            analog_body(CFG, np.ones(CFG.num_bins, dtype=complex), oversample=0)

    def test_stream_shape_and_rate(self):
        f = build_fdss(CFG)
        rng = np.random.default_rng(4)
        n = 12
        s = rng.standard_normal((n, CFG.num_bins)) + 1j * rng.standard_normal(
            (n, CFG.num_bins)
        )
        stream = assemble_stream(CFG, precode(CFG, f, s), oversample=4)
        stride = (CFG.cp_len + CFG.idft_size) * 4
        # n full symbol strides plus the last symbol's windowed suffix
        assert type(stream) is np.ndarray
        assert len(stream) == n * stride + CFG.window_rolloff * 4

    @pytest.mark.parametrize("os", [1, 2])
    @pytest.mark.parametrize("cp_len, rolloff", [(5, 3), (5, 5), (5, 0), (0, 0)])
    def test_stream_frames_and_overlaps_every_symbol(self, cp_len, rolloff, os):
        # prefix = body tail, suffix = body head; the rising ramp covers the
        # prefix head and the falling ramp the suffix, which lands on the
        # next symbol's prefix head
        cfg = WaveformConfig(cp_len=cp_len, window_rolloff=rolloff)
        rng = np.random.default_rng(6)
        bins = rng.standard_normal((3, cfg.num_bins)) + 1j * rng.standard_normal(
            (3, cfg.num_bins)
        )
        symbols = precode(cfg, build_fdss(cfg), bins)
        bodies = analog_body(cfg, symbols, os)
        stream = assemble_stream(cfg, symbols, os)
        n, cp, w = cfg.idft_size * os, cfg.cp_len * os, cfg.window_rolloff * os
        stride = cp + n
        ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(w) + 0.5) / w))
        for i, body in enumerate(bodies):
            start = i * stride
            np.testing.assert_array_equal(stream[start + cp : start + stride], body)
            np.testing.assert_array_equal(stream[start + w : start + cp], body[n - cp + w :])
            previous = ramp[::-1] * bodies[i - 1][:w] if i else 0.0
            np.testing.assert_allclose(
                stream[start : start + w], ramp * body[n - cp : n - cp + w] + previous,
                atol=1e-15,
            )
        np.testing.assert_allclose(stream[3 * stride :], ramp[::-1] * bodies[-1][:w], atol=1e-15)

    def test_symbol_is_first_period_of_its_stream(self):
        # a transmit symbol is the first period of its one-symbol stream, so
        # spread, modulate_ofdm and assemble_stream share one framing pass
        f = build_fdss(CFG)
        rng = np.random.default_rng(7)
        s = rng.standard_normal(CFG.num_bins) + 1j * rng.standard_normal(CFG.num_bins)
        period = CFG.cp_len + CFG.idft_size
        pairs = ((spread(CFG, f, s), precode(CFG, f, s)), (modulate_ofdm(CFG, s), s))
        for sym, subcarriers in pairs:
            stream = assemble_stream(CFG, subcarriers, 1)
            np.testing.assert_array_equal(stream[:period], sym)

    def test_stream_mean_power_close_to_symbol_power(self):
        f = build_fdss(CFG)
        rng = np.random.default_rng(5)
        n = 64
        s = rng.standard_normal((n, CFG.num_bins)) + 1j * rng.standard_normal(
            (n, CFG.num_bins)
        )
        symbols = precode(CFG, f, s)
        stream = assemble_stream(CFG, symbols, oversample=2)
        bodies = analog_body(CFG, symbols, oversample=2)
        assert np.mean(np.abs(stream) ** 2) == pytest.approx(
            float(np.mean(np.abs(bodies) ** 2)), rel=0.05
        )

    def test_analog_body_maps_subcarriers_to_bins(self):
        # subcarrier j lands on IDFT bin j mod (oversample * N), and every
        # other bin stays empty
        s = np.arange(1, CFG.num_bins + 1, dtype=complex)
        for oversample in (1, 4):
            size = oversample * CFG.idft_size
            body = analog_body(CFG, s, oversample)
            assert body.shape == (size,)
            expected = np.zeros(size, dtype=complex)
            expected[CFG.bin_indices % size] = s
            spectrum = np.fft.fft(body, norm="ortho") / np.sqrt(oversample)
            np.testing.assert_allclose(spectrum, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "mapping",
        [lambda v: analog_body(CFG, v, 1), lambda v: precode(CFG, build_fdss(CFG), v)],
        ids=["analog_body", "precode"],
    )
    def test_grid_mapping_rejects_wrong_length(self, mapping):
        # a 0-d input has no last axis to read a length from
        for bad in (1.0, np.ones(CFG.num_bins - 1), np.ones((2, CFG.num_bins + 1))):
            with pytest.raises(FramingError, match="must equal num_bins"):
                mapping(bad)
