from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from chirpvote.config import ExperimentConfig, TrainConfig
from chirpvote.deployment import (
    Deployment,
    PowerControlParams,
    coverage_radius,
    link_power,
)
from chirpvote.errors import ConfigError
from chirpvote.studies import SNR_DISTANCE_POINTS, snr_distance_study

PC = PowerControlParams(alpha=4.0, beta=4.0, r_ref=10.0, obo_ref=30.0, obo_min=10.5)


class TestParams:
    def test_beta_bounds(self):
        with pytest.raises(ConfigError):
            PowerControlParams(alpha=4.0, beta=5.0)
        with pytest.raises(ConfigError):
            PowerControlParams(beta=-0.5)
        with pytest.raises(ConfigError):
            PowerControlParams(beta=0.0)

    def test_positive_scales(self):
        with pytest.raises(ConfigError):
            PowerControlParams(r_ref=0.0)
        with pytest.raises(ConfigError):
            PowerControlParams(obo_ref=-1.0, obo_min=-2.0)

    def test_backoff_below_zero_rejected(self):
        with pytest.raises(ConfigError, match="obo_min"):
            PowerControlParams(obo_min=-0.5)
        assert PowerControlParams(obo_min=0.0).obo_min == 0.0


class TestCoverageRadius:
    def test_frozen_reference_value(self):
        # 10 * 10^((30 - 10.5) / 40) m
        assert coverage_radius(PC) == pytest.approx(30.7256, abs=0.001)

    def test_monotone_in_backoff_budget(self):
        base = coverage_radius(PC)
        assert coverage_radius(replace(PC, obo_min=3.3)) > base
        assert coverage_radius(replace(PC, obo_ref=35.0)) > base
        assert coverage_radius(replace(PC, obo_min=30.0)) == pytest.approx(PC.r_ref)

    def test_beta_zero_undefined(self):
        with pytest.raises(ValueError):
            coverage_radius(PowerControlParams(alpha=4.0, beta=0.0))


class TestLinkPower:
    def test_clamped_beyond_coverage(self):
        r_p = 30.0
        assert link_power(PC, r_p, 15.0) == pytest.approx(1.0)
        assert link_power(PC, r_p, 30.0) == pytest.approx(1.0)
        assert link_power(PC, r_p, 60.0) == pytest.approx(2.0**-4.0)

    def test_monotone_nonincreasing(self):
        d = np.linspace(10.0, 80.0, 200)
        p = np.array([link_power(PC, 30.0, x) for x in d])
        assert np.all(np.diff(p) <= 1e-15)


class TestSnrDistanceStudy:
    @pytest.mark.parametrize("alpha", [4.0, 3.0])
    def test_one_curve_per_target_flat_then_alpha_decades(self, alpha):
        # a wide cell so the far end lies a decade past the coverage radius
        power = replace(PC, alpha=alpha, beta=alpha)
        r_p = coverage_radius(power)
        cfg = ExperimentConfig(
            power=power, r_min=10.0, r_max=20.0 * r_p, train=TrainConfig(snr_db=(20.0, 5.0))
        )
        rows = snr_distance_study(cfg)
        assert len(rows) == 2 * SNR_DISTANCE_POINTS
        for target in (20.0, 5.0):
            curve = [r for r in rows if r["target_snr_db"] == target]
            d = np.array([r["distance_m"] for r in curve])
            snr = np.array([r["snr_db"] for r in curve])
            np.testing.assert_allclose(d, np.linspace(10.0, 20.0 * r_p, SNR_DISTANCE_POINTS))
            np.testing.assert_allclose(snr[d <= r_p], target, atol=1e-12)
            beyond = d > r_p
            expected = target - 10.0 * alpha * np.log10(d[beyond] / r_p)
            np.testing.assert_allclose(snr[beyond], expected, atol=1e-9)
            # a decade past the radius is 10 * alpha dB down
            decade = 10.0 * r_p
            assert np.interp(decade, d, snr) == pytest.approx(target - 10.0 * alpha, abs=0.1)


class TestDeployment:
    def test_bounds_and_determinism(self):
        a = Deployment.sample(500, 10.0, 50.0, seed=11)
        b = Deployment.sample(500, 10.0, 50.0, seed=11)
        c = Deployment.sample(500, 10.0, 50.0, seed=12)
        assert np.all(a.ed_distances >= 10.0)
        assert np.all(a.ed_distances <= 50.0)
        np.testing.assert_array_equal(a.ed_distances, b.ed_distances)
        assert not np.array_equal(a.ed_distances, c.ed_distances)

    def test_uniform_radius_ks(self):
        d = Deployment.sample(10_000, 10.0, 50.0, seed=0).ed_distances
        stat = kstest(d, "uniform", args=(10.0, 40.0))
        assert stat.pvalue > 0.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            Deployment(ed_distances=np.array([]), r_min=10.0, r_max=50.0)
        with pytest.raises(ConfigError):
            Deployment(ed_distances=np.array([5.0]), r_min=10.0, r_max=50.0)
        with pytest.raises(ConfigError):
            Deployment.sample(5, 50.0, 10.0, seed=0)
