import math
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpvote._rng import keyed_rng, keyed_rngs
from chirpvote.channel import (
    EPA_POWERS_DB,
    draw_epa,
    draw_sync_offset,
    epa_phase_table,
    epa_tap_delays,
    propagate,
)
from chirpvote.config import SCHEMES, ExperimentConfig
from chirpvote.datasets import Dataset, synthetic_digits
from chirpvote.deployment import Deployment, link_power
from chirpvote.errors import ConfigError, FramingError, InfeasibleError
from chirpvote import _placement, learn
from chirpvote.learn import (
    NUM_CLASSES,
    PARAM_DIM,
    BoundParams,
    RoundRecord,
    TrainSetup,
    _channel_responses,
    _collect_votes,
    _unpack,
    convergence_bound,
    evaluate,
    forward_logits,
    hidden_layer,
    init_params,
    initial_state,
    local_gradient,
    loss_by_distance,
    mean_loss,
    partition_dataset,
    run_round,
    run_training,
    scheme_uplink,
)
from chirpvote import studies
from chirpvote.oac import (
    VotePlan,
    decode_obda,
    detect_mv,
    encode_csc,
    encode_obda,
    sign_pm1,
)
from chirpvote.waveform import (
    WaveformConfig,
    build_fdss,
    demodulate_ofdm,
    despread,
    modulate_ofdm,
    spread,
)
from test_channel import frequency_response


def _max_admitted_offset(wave) -> int:
    """Largest max_sync_offset TrainSetup admits: the delay must stay inside
    the untapered part of the cyclic prefix."""
    return wave.cp_len - wave.window_rolloff - int(epa_tap_delays(wave).max())


def _tiny_cfg(num_eds=5, samples=120, partition="homogeneous", **train):
    cfg = ExperimentConfig()
    return replace(
        cfg,
        train=replace(
            cfg.train,
            num_eds=num_eds,
            train_samples=samples,
            test_samples=80,
            partition=partition,
            **train,
        ),
    )


def _device_sets(pool, bounds):
    """Device k's rows ``bounds[k]:bounds[k + 1]`` of the pooled set, in
    device order."""
    return [pool.subset(slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _parts(data, dep, mode):
    """Per-device datasets of a partition, in device order."""
    return _device_sets(*partition_dataset(data, dep, mode))


def _initial_votes(setup: TrainSetup, round_index: int = 0) -> np.ndarray:
    """Every device's votes at the initial model, from round
    ``round_index``'s batch draws."""
    return _collect_votes(replace(initial_state(setup), round_index=round_index), setup)


def loss_and_gradient(
    w: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Reference for the training passes: a forward and a backward pass of
    one batch, mean cross-entropy over the batch and its flat gradient.

    ``x`` is one batch (n, 64) or a stack of equal-size batches (..., n, 64)
    with labels (..., n); a stack gives one loss per batch, shape (...), and
    gradients (..., PARAM_DIM) from the same batched products.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    w1, b1, w2, b2 = _unpack(w)
    h = np.tanh(x @ w1 + b1)
    logits = h @ w2 + b2
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(probs, y[..., None], axis=-1)[..., 0]
    loss = np.mean(-np.log(picked + 1e-300), axis=-1)
    # subtracting the one-hot labels leaves the other entries bit-exact
    delta2 = probs - (y[..., None] == np.arange(NUM_CLASSES))
    delta2 /= x.shape[-2]
    g_w2 = h.swapaxes(-1, -2) @ delta2
    g_b2 = delta2.sum(axis=-2)
    delta1 = (delta2 @ w2.T) * (1.0 - h**2)
    g_w1 = x.swapaxes(-1, -2) @ delta1
    g_b1 = delta1.sum(axis=-2)
    lead = x.shape[:-2]
    grad = np.concatenate(
        [g_w1.reshape(*lead, -1), g_b1, g_w2.reshape(*lead, -1), g_b2], axis=-1
    )
    return (float(loss) if loss.ndim == 0 else loss), grad


class TestModel:
    def test_parameter_count(self):
        assert PARAM_DIM == 64 * 32 + 32 + 32 * 10 + 10
        assert init_params(0).shape == (PARAM_DIM,)

    def test_init_keyed_by_seed(self):
        np.testing.assert_array_equal(init_params(3), init_params(3))
        assert not np.array_equal(init_params(3), init_params(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w = init_params(0)
        x = rng.standard_normal((6, 64))
        y = rng.integers(0, 10, 6)
        _, grad = loss_and_gradient(w, x, y)
        eps = 1e-5
        idx = rng.choice(PARAM_DIM, 60, replace=False)
        for i in idx:
            wp = w.copy()
            wp[i] += eps
            wm = w.copy()
            wm[i] -= eps
            fd = (loss_and_gradient(wp, x, y)[0] - loss_and_gradient(wm, x, y)[0]) / (
                2 * eps
            )
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_loss_decreases_under_gradient_descent(self):
        data = synthetic_digits(200, seed=0)
        w = init_params(1)
        whole = [0, len(data)]
        (first,), _ = mean_loss(w, data, whole)
        for _ in range(40):
            hidden = hidden_layer(w, data.features)
            w = w - 0.5 * local_gradient(w, hidden, data, whole, 200, [keyed_rng(0, "gd")])[0]
        assert mean_loss(w, data, whole)[0][0] < first * 0.7

    def test_untrained_accuracy_near_chance(self):
        # one fixed random net can favor a few classes; the average over
        # independent initializations is 1/num_classes by symmetry
        data = synthetic_digits(2000, seed=9)
        accs = [evaluate(init_params(s), data) for s in range(10)]
        assert abs(float(np.mean(accs)) - 0.1) <= 0.03

    def test_bad_parameter_vector_rejected(self):
        with pytest.raises(ValueError, match="parameter vector"):
            hidden_layer(np.zeros(10), np.zeros((1, 64)))
        data = synthetic_digits(10, seed=0)
        hidden = hidden_layer(init_params(0), data.features)
        with pytest.raises(ValueError, match="parameter vector"):
            local_gradient(np.zeros(10), hidden, data, np.array([0, 10]), 5, [keyed_rng(0, "x")])

    def test_local_gradient_full_batch_deterministic(self):
        data = synthetic_digits(40, seed=1)
        w = init_params(2)
        whole = np.array([0, len(data)])
        hidden = hidden_layer(w, data.features)
        g1 = local_gradient(w, hidden, data, whole, 40, [keyed_rng(0, "a")])[0]
        g2 = local_gradient(w, hidden, data, whole, 40, [keyed_rng(1, "b")])[0]
        _, ref = loss_and_gradient(w, data.features, data.labels)
        # batch == dataset: the draw is without replacement, so both match
        np.testing.assert_allclose(np.sort(g1), np.sort(ref), atol=1e-12)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_local_gradient_batch_validation(self):
        data = synthetic_digits(10, seed=0)
        w = init_params(0)
        hidden = hidden_layer(w, data.features)
        with pytest.raises(ValueError):
            local_gradient(w, hidden, data, np.array([0, len(data)]), 0, [keyed_rng(0, "x")])


def ideal_mv(votes: np.ndarray) -> np.ndarray:
    """Error-free majority vote over per-device sign votes (num_eds, dim)."""
    votes = np.atleast_2d(np.asarray(votes))
    if votes.shape[0] < 1:
        raise ValueError("need at least one voter")
    return sign_pm1(votes.sum(axis=0))


class TestMajorityVote:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_bruteforce_on_exhaustive_patterns(self, k):
        import itertools

        for pattern in itertools.product((-1, 1), repeat=k):
            votes = np.array(pattern)[:, None] * np.ones((k, 3), dtype=int)
            out = ideal_mv(votes)
            total = sum(pattern)
            expected = 1 if total >= 0 else -1
            np.testing.assert_array_equal(out, expected * np.ones(3, dtype=int))

    def test_tie_breaks_positive(self):
        votes = np.array([[1, -1], [-1, 1]])
        np.testing.assert_array_equal(ideal_mv(votes), [1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ideal_mv(np.empty((0, 4)))


class TestPartition:
    def _deployment(self, distances):
        return Deployment(
            ed_distances=np.asarray(distances, dtype=float), r_min=10.0, r_max=50.0
        )

    def test_homogeneous_true_partition(self):
        data = synthetic_digits(2000, seed=0)
        dep = Deployment.sample(20, 10.0, 50.0, seed=0)
        parts = _parts(data, dep, "homogeneous")
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 2000
        assert max(sizes) - min(sizes) <= 1
        # every device sees every class
        for p in parts:
            assert set(p.labels) == set(range(10))

    def test_homogeneous_deals_samples_in_index_order(self):
        # device k holds rows k, k + K, k + 2K, ... whatever their labels
        labels = synthetic_digits(203, seed=3).labels
        tagged = Dataset(features=np.repeat(np.arange(203.0)[:, None], 64, axis=1), labels=labels)
        dep = Deployment.sample(5, 10.0, 50.0, seed=0)
        pool, bounds = partition_dataset(tagged, dep, "homogeneous")
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert np.array_equal(pool.features[a:b, 0], np.arange(k, 203, 5))
            assert np.array_equal(pool.labels[a:b], labels[k::5])

    def test_heterogeneous_label_split(self):
        data = synthetic_digits(1000, seed=1)
        dep = self._deployment([12.0, 20.0, 30.0, 40.0, 48.0])
        parts = _parts(data, dep, "heterogeneous")
        boundary = 50.0 / math.sqrt(2.0)
        for dist, p in zip(dep.ed_distances, parts):
            if dist <= boundary:
                assert set(p.labels) <= set(range(5))
            else:
                assert set(p.labels) <= set(range(5, 10))
        assert sum(len(p) for p in parts) == 1000

    def test_pool_keeps_each_devices_rows_in_dataset_order(self):
        # row i of the tagged set carries i in every feature
        labels = synthetic_digits(300, seed=2).labels
        tagged = Dataset(features=np.repeat(np.arange(300.0)[:, None], 64, axis=1), labels=labels)
        dep = self._deployment([12.0, 20.0, 30.0, 40.0, 48.0])
        pool, bounds = partition_dataset(tagged, dep, "heterogeneous")
        rows = pool.features[:, 0]
        assert sorted(rows) == list(range(300))
        assert bounds[0] == 0 and bounds[-1] == 300 and len(bounds) == 6
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert np.all(np.diff(rows[a:b]) > 0)
            assert np.array_equal(pool.labels[a:b], labels[rows[a:b].astype(int)])

    def test_heterogeneous_needs_both_sides(self):
        data = synthetic_digits(100, seed=0)
        with pytest.raises(ConfigError):
            partition_dataset(data, self._deployment([11.0, 12.0]), "heterogeneous")

    def test_fewer_samples_than_devices_rejected(self):
        data = synthetic_digits(3, seed=0)
        dep = Deployment.sample(5, 10.0, 50.0, seed=0)
        with pytest.raises(ConfigError):
            partition_dataset(data, dep, "homogeneous")

    def test_unknown_mode_rejected(self):
        data = synthetic_digits(100, seed=0)
        dep = Deployment.sample(4, 10.0, 50.0, seed=0)
        with pytest.raises(ConfigError):
            partition_dataset(data, dep, "nonsense")


@pytest.mark.blas_threads
class TestTrainingMechanics:
    def test_initial_state_shared_across_schemes(self):
        setup = studies.training_setup(_tiny_cfg(), 7)
        a = initial_state(setup)
        b = initial_state(setup)
        np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.mark.parametrize(
        "wave, scheme, error",
        [
            ({}, "carrier-pigeon", ConfigError),
            # in 30 bins no guard carries exactly 4 vote pairs
            ({"num_bins": 30, "sweep_cycles": 26.0}, "csc_mv_4", InfeasibleError),
        ],
        ids=["unknown-token", "inexact-vote-count"],
    )
    def test_uplink_rejected_before_first_round(self, monkeypatch, wave, scheme, error):
        cfg = _tiny_cfg()
        setup = studies.training_setup(replace(cfg, wave=replace(cfg.wave, **wave)), 0)
        with pytest.raises(error):
            scheme_uplink(setup, scheme, 0.01)

        def no_round(*args):
            raise AssertionError("a round ran before the uplink was built")

        monkeypatch.setattr(learn, "run_round", no_round)
        with pytest.raises(error):
            run_training(setup, scheme, 20.0)

    def test_uplink_built_once_per_run(self, monkeypatch):
        calls = Counter()

        def counting(name):
            original = getattr(learn, name)

            def wrapper(*args):
                calls[name] += 1
                if name == "detect_mv":
                    detected_rows.append(args[1].shape[0])
                return original(*args)

            monkeypatch.setattr(learn, name, wrapper)

        # the benchmark's oac.detect_mv and oac.encode_obda probes wrap these
        # names in learn: one call per round, all blocks in the one call
        detected_rows = []
        for name in ("link_power", "VotePlan", "detect_mv", "encode_obda"):
            counting(name)
        setup = studies.training_setup(_tiny_cfg(rounds=3), 0)
        run_training(setup, "csc_mv_2", 20.0)
        assert calls == {"link_power": 1, "VotePlan": 1, "detect_mv": 3}
        assert detected_rows == [_csc_plan(setup, 2).num_blocks] * 3
        calls.clear()
        run_training(setup, "obda", 20.0)
        assert calls == {"link_power": 1, "encode_obda": 3}

    def test_sweep_builds_one_setup_per_distinct_seed(self, monkeypatch):
        # a repeated seed keeps its runs and its place in the row order, and
        # every run equals one trained on a set-up of its own
        cfg = _tiny_cfg(rounds=2, snr_db=(5.0, 20.0), seeds=(0, 3, 0))
        schemes = ("csc_mv_2", "obda")
        build = studies.training_setup
        calls = Counter()

        def counted(cfg, seed):
            calls[seed] += 1
            return build(cfg, seed)

        monkeypatch.setattr(studies, "training_setup", counted)
        history, summary, loss_rows = studies.train_sweep(replace(cfg, schemes=schemes))
        assert calls == {0: 1, 3: 1}
        runs = [(s, snr, seed) for s in schemes for snr in (5.0, 20.0) for seed in (0, 3, 0)]
        assert [(r["scheme"], r["snr_db"], r["seed"]) for r in summary] == runs
        assert len(history) == 2 * len(runs) and len(loss_rows) == 5 * len(runs)
        for row, (scheme, snr_db, seed) in zip(summary, runs):
            last = run_training(build(cfg, seed), scheme, snr_db).history[-1]
            assert row["final_accuracy"] == last.test_accuracy
            assert row["final_train_loss"] == last.train_loss

    def test_run_round_deterministic(self):
        setup = studies.training_setup(_tiny_cfg(), 0)
        state = initial_state(setup)
        a = run_round(state, setup, scheme_uplink(setup, "csc_mv_2", 10.0 ** -1.5))
        b = run_round(state, setup, scheme_uplink(setup, "csc_mv_2", 10.0 ** -1.5))
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.history == b.history

    @pytest.mark.parametrize("scheme", ["ideal", "csc_mv_1", "csc_mv_4", "obda"])
    def test_scheme_token_selects_uplink(self, scheme):
        # a non-default step size: run_round must take it from the profile
        setup = studies.training_setup(_tiny_cfg(step_size=0.05), 2)
        state = initial_state(setup)
        uplink = scheme_uplink(setup, scheme, 10.0 ** (-15.0 / 10.0))
        votes = _collect_votes(state, setup)
        mv = sign_pm1(uplink(0, votes))
        if scheme == "ideal":
            assert np.array_equal(mv, ideal_mv(votes))
        new = run_round(state, setup, uplink)
        assert np.array_equal(new.weights, state.weights - 0.05 * mv)
        # run_training's own uplink gives the same first round
        first = run_training(replace(setup, train=replace(setup.train, rounds=1)), scheme, 15.0)
        assert np.array_equal(first.weights, new.weights)

    def test_run_round_steps_by_sign_of_statistic(self):
        setup = studies.training_setup(_tiny_cfg(step_size=0.05), 0)
        state = initial_state(setup)
        stat = keyed_rng(0, "stub-statistic").standard_normal(PARAM_DIM)
        stat[::3] = 0.0
        assert (stat < 0).any() and (stat == 0).any() and (stat > 0).any()
        new = run_round(state, setup, lambda round_index, votes: stat)
        assert np.array_equal(new.weights, state.weights - 0.05 * sign_pm1(stat))

    @pytest.mark.parametrize("scheme", ["ideal", "csc_mv_1", "csc_mv_2", "csc_mv_4", "obda"])
    def test_step_is_sign_of_uplink_statistic(self, scheme):
        setup = studies.training_setup(_tiny_cfg(step_size=0.05), 1)
        uplink = scheme_uplink(setup, scheme, 10.0 ** -1.5)
        stats = []

        def recording(round_index, votes):
            stats.append(uplink(round_index, votes))
            return stats[-1]

        state = initial_state(setup)
        for round_index in range(3):
            new = run_round(state, setup, recording)
            stat = stats[round_index]
            # the vote sum for ideal; energy margins or I/Q components on air
            assert stat.shape == (PARAM_DIM,)
            assert stat.dtype.kind == ("i" if scheme == "ideal" else "f")
            assert np.array_equal(new.weights, state.weights - 0.05 * sign_pm1(stat))
            state = new

    def test_batches_shared_between_phy_modes(self):
        setup = studies.training_setup(_tiny_cfg(), 3)
        state = initial_state(setup)
        v1 = _collect_votes(state, setup)
        v2 = _collect_votes(state, setup)
        np.testing.assert_array_equal(v1, v2)

    def test_training_produces_history(self):
        setup = studies.training_setup(_tiny_cfg(rounds=3), 1)
        state = run_training(setup, "ideal", 20.0)
        assert state.round_index == 3
        assert len(state.history) == 3
        assert [r.round_index for r in state.history] == [0, 1, 2]
        assert all(len(r.per_ed_loss) == 5 for r in state.history)

    @pytest.mark.parametrize("snr_db", [float("nan"), -float("inf"), -4000.0])
    def test_training_rejects_snr_without_finite_noise(self, snr_db):
        # an SNR passed outside the profile gets the profile's check
        setup = studies.training_setup(_tiny_cfg(rounds=1), 1)
        with pytest.raises(ConfigError, match="snr_db"):
            run_training(setup, "ideal", snr_db)

    def test_loss_by_distance_shapes(self):
        # the losses are the last round's record, so one round must have run
        setup = studies.training_setup(_tiny_cfg(rounds=1), 1)
        state = run_training(setup, "ideal", 20.0)
        d, losses = loss_by_distance(state, setup)
        assert d.shape == losses.shape == (5,)
        assert np.all(losses > 0)
        np.testing.assert_array_equal(d, setup.deployment.ed_distances)

    def test_setup_validation(self):
        setup = studies.training_setup(_tiny_cfg(), 0)
        with pytest.raises(ConfigError):
            replace(setup, bounds=setup.bounds[:-1])

    def test_setup_rejects_offset_beyond_cyclic_prefix(self):
        setup = studies.training_setup(_tiny_cfg(), 0)
        room = _max_admitted_offset(setup.wave)
        # 16-sample prefix, 2 tapered samples, 6-sample EPA tail
        assert room == 8
        def offset(max_sync_offset, **wave):
            return replace(
                setup,
                wave=replace(setup.wave, **wave),
                train=replace(setup.train, max_sync_offset=max_sync_offset),
            ).train.max_sync_offset

        assert offset(room) == room
        with pytest.raises(InfeasibleError, match="max_sync_offset.*window_rolloff"):
            offset(room + 1)
        # without the taper the whole prefix is usable
        assert offset(room + 2, window_rolloff=0) == 10
        with pytest.raises(InfeasibleError):
            offset(room + 3, window_rolloff=0)
        with pytest.raises(InfeasibleError):
            offset(0, cp_len=5)


@pytest.mark.blas_threads
class TestPipelinedUplink:
    """Given a worker, the chirp uplink draws each round's phases and receiver
    noise one round ahead on it, and ``run_training`` gives it one. Every
    draw is keyed, so no statistic may depend on the worker, and a draw made
    for another round is never used."""

    CHIRPS = ["csc_mv_1", "csc_mv_2", "csc_mv_4"]

    @staticmethod
    def _record_margins(monkeypatch) -> list:
        """Every statistic the uplink returns from now on, in call order."""
        margins = []

        def recording(plan, blocks):
            margins.append(detect_mv(plan, blocks))
            return margins[-1]

        monkeypatch.setattr(learn, "detect_mv", recording)
        return margins

    @pytest.mark.parametrize("scheme", CHIRPS)
    def test_statistics_equal_with_worker_on_and_off(self, monkeypatch, scheme):
        setup = studies.training_setup(_tiny_cfg(rounds=4), 3)
        margins = self._record_margins(monkeypatch)
        handed = []
        # the statistics already returned when each draw is handed off
        returned = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, *args):
                if fn is not learn._round_record:  # a draw, not a placed run's record
                    handed.append(args[0])
                    returned.append(len(margins))
                return super().submit(fn, *args)

        monkeypatch.setattr(learn, "ThreadPoolExecutor", Recording)
        # switch threads as often as the interpreter allows, so that a draw
        # touching the round's state would interleave with it
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            piped = run_training(setup, scheme, 20.0)
        finally:
            sys.setswitchinterval(interval)
        piped_margins = margins[:]
        # the same rounds with every draw inline
        del margins[:]
        inline = initial_state(setup)
        uplink = scheme_uplink(setup, scheme, 10.0 ** (-20.0 / 10.0))
        for _ in range(4):
            inline = run_round(inline, setup, uplink)
        # no hand-off past the last round
        assert handed == [1, 2, 3]
        # round r + 1's draw is handed off before round r's detect_mv runs
        assert returned == [0, 1, 2]
        assert len(margins) == len(piped_margins) == 4
        for a, b in zip(margins, piped_margins):
            assert a.tobytes() == b.tobytes()
        assert inline.weights.tobytes() == piped.weights.tobytes()
        assert inline.history == piped.history

    @pytest.mark.parametrize("scheme", CHIRPS)
    def test_out_of_order_calls_draw_afresh(self, scheme):
        setup = studies.training_setup(_tiny_cfg(rounds=5), 4)
        fresh = scheme_uplink(setup, scheme, 0.05)
        with ThreadPoolExecutor(1) as worker:
            uplink = scheme_uplink(setup, scheme, 0.05, worker)
            # a repeat, a skip and a step back each find a draw made for
            # another round waiting; the last three rounds use theirs
            for round_index in (0, 0, 2, 1, 1, 2, 3, 4):
                votes = _initial_votes(setup, round_index)
                stat = uplink(round_index, votes)
                assert stat.tobytes() == fresh(round_index, votes).tobytes()

    @pytest.mark.parametrize("scheme, workers", [("csc_mv_2", 1), ("obda", 0), ("ideal", 0)])
    def test_worker_thread_lives_only_inside_a_chirp_run(self, monkeypatch, scheme, workers):
        # beside a foreign thread pool nothing is placed, so OBDA and ideal
        # runs keep their records and start no thread (TestRecordHandOff
        # covers the placed runs)
        monkeypatch.setattr(_placement, "foreign_threads", lambda: True)
        step = learn.run_round
        during = []

        def counting(state, setup, uplink):
            during.append(threading.active_count())
            return step(state, setup, uplink)

        monkeypatch.setattr(learn, "run_round", counting)
        setup = studies.training_setup(_tiny_cfg(rounds=3), 0)
        before = threading.active_count()
        run_training(setup, scheme, 20.0)
        assert threading.active_count() == before
        # the thread starts at the first hand-off, at the end of round 0
        assert during == [before] + [before + workers] * 2

    def test_worker_error_surfaces_from_its_round(self, monkeypatch):
        draw = learn._receiver_noise
        failed_on = []

        def failing(setup, round_index, *args):
            if round_index == 2:
                failed_on.append(threading.current_thread())
                raise InfeasibleError("noise draw failed")
            return draw(setup, round_index, *args)

        step = learn.run_round
        rounds = []

        def counting(state, setup, uplink, **worker):
            rounds.append(state.round_index)
            return step(state, setup, uplink, **worker)

        monkeypatch.setattr(learn, "_receiver_noise", failing)
        monkeypatch.setattr(learn, "run_round", counting)
        setup = studies.training_setup(_tiny_cfg(rounds=4), 0)
        before = threading.active_count()
        with pytest.raises(InfeasibleError, match="noise draw failed"):
            run_training(setup, "csc_mv_2", 20.0)
        assert rounds == [0, 1, 2]
        assert len(failed_on) == 1 and failed_on[0] is not threading.main_thread()
        assert threading.active_count() == before

    @pytest.mark.parametrize("roll", [0, 3, -15, 31])
    def test_rolled_noise_matches_np_roll(self, roll):
        # the draw writes the noise straight into DFT order
        setup = studies.training_setup(_tiny_cfg(rounds=3), 2)
        shape = (7, 30)
        rng = keyed_rng(setup.seed, "noise", 1)
        expected = np.empty(shape, dtype=complex)
        expected.real = rng.standard_normal(shape)
        expected.imag = rng.standard_normal(shape)
        expected *= math.sqrt(0.05 / 2.0)
        noise = learn._receiver_noise(setup, 1, 0.05, shape, roll)
        assert noise.tobytes() == np.roll(expected, roll, axis=-1).tobytes()

    @pytest.mark.parametrize(
        "shape",
        [(4, PARAM_DIM), (6, PARAM_DIM), (5, PARAM_DIM - 1)],
        ids=["fewer-devices", "more-devices", "short-votes"],
    )
    def test_votes_of_the_wrong_shape_rejected(self, shape):
        setup = studies.training_setup(_tiny_cfg(rounds=3), 0)
        votes = _initial_votes(setup, 0)
        assert votes.shape == (5, PARAM_DIM)
        with ThreadPoolExecutor(1) as worker:
            uplink = scheme_uplink(setup, "csc_mv_2", 0.05, worker)
            uplink(0, votes)  # hands round 1's draws to the worker
            with pytest.raises(FramingError):
                uplink(1, np.ones(shape, dtype=int))
            with pytest.raises(FramingError):
                scheme_uplink(setup, "csc_mv_2", 0.05)(0, np.ones(shape, dtype=int))


@pytest.fixture
def placed(monkeypatch):
    """``run_training``'s worker placed, whatever the host: a placement that
    hands the pool an initializer that pins nothing."""

    @contextmanager
    def placement():
        yield lambda: None

    monkeypatch.setattr(learn, "cpu_placement", placement)


@pytest.mark.blas_threads
class TestRecordHandOff:
    """Where its worker is placed, a run of any scheme computes each round's
    record (per-device losses, their mean and the test accuracy) on it while
    the next round runs; a run whose worker is not placed keeps its records
    on the calling thread.  The record reads only the round's weights and
    hidden activations, so the history may not depend on where it is
    computed."""

    @staticmethod
    def _record_threads(monkeypatch, delay=0.0, failing=None) -> list:
        """The thread of every record from now on, as (round, thread); a
        record sleeps ``delay`` seconds first, and round ``failing``'s
        raises."""
        record = learn._round_record
        threads = []

        def recording(round_index, *args):
            threads.append((round_index, threading.current_thread()))
            time.sleep(delay)
            if round_index == failing:
                raise InfeasibleError("record failed")
            return record(round_index, *args)

        monkeypatch.setattr(learn, "_round_record", recording)
        return threads

    @pytest.mark.parametrize("scheme", ["obda", "ideal"])
    def test_run_equals_rounds_with_inline_records(self, monkeypatch, placed, scheme):
        setup = studies.training_setup(_tiny_cfg(rounds=4), 5)
        threads = self._record_threads(monkeypatch)
        # switch threads as often as the interpreter allows, so that a record
        # touching the round's state would interleave with it
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = run_training(setup, scheme, 20.0)
        finally:
            sys.setswitchinterval(interval)
        assert [r for r, thread in threads] == [0, 1, 2, 3]
        assert all(thread is not threading.current_thread() for _, thread in threads)
        inline = initial_state(setup)
        uplink = scheme_uplink(setup, scheme, 10.0 ** (-20.0 / 10.0))
        for _ in range(4):
            inline = run_round(inline, setup, uplink)
        assert run.pending is None and inline.pending is None
        assert run.weights.tobytes() == inline.weights.tobytes()
        assert run.hidden.tobytes() == inline.hidden.tobytes()
        assert run.history == inline.history
        assert [r.round_index for r in run.history] == [0, 1, 2, 3]

    @pytest.mark.parametrize("scheme", ["obda", "ideal"])
    def test_one_record_in_flight_off_the_calling_thread(self, monkeypatch, placed, scheme):
        # each record outlasts a tiny round, so a second hand-off before the
        # first record is collected would find it still running
        threads = self._record_threads(monkeypatch, delay=0.05)
        handed = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, *args):
                assert all(future.done() for future in handed)
                handed.append(super().submit(fn, *args))
                return handed[-1]

        monkeypatch.setattr(learn, "ThreadPoolExecutor", Recording)
        setup = studies.training_setup(_tiny_cfg(rounds=4), 0)
        run = run_training(setup, scheme, 20.0)
        assert len(handed) == 4
        assert [r for r, _ in threads] == [0, 1, 2, 3]
        assert all(thread is not threading.current_thread() for _, thread in threads)
        assert [r.round_index for r in run.history] == [0, 1, 2, 3]

    @pytest.mark.parametrize("failing", [1, 3])  # collected by round 2; by the run
    def test_raising_record_surfaces_from_the_run(self, monkeypatch, placed, failing):
        threads = self._record_threads(monkeypatch, failing=failing)
        setup = studies.training_setup(_tiny_cfg(rounds=4), 0)
        before = threading.active_count()
        with pytest.raises(InfeasibleError, match="record failed"):
            run_training(setup, "obda", 20.0)
        assert threading.active_count() == before
        assert threads[-1][0] == failing
        assert threads[-1][1] is not threading.current_thread()

    @pytest.mark.parametrize("scheme", ["csc_mv_1", "csc_mv_2", "csc_mv_4"])
    def test_chirp_records_share_the_worker_one_in_flight(self, monkeypatch, placed, scheme):
        # the worker takes each next round's draw before the round's record,
        # and each record outlasts a tiny round, so a second record handed
        # off before the first is collected would find it still running
        threads = self._record_threads(monkeypatch, delay=0.05)
        records = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, *args):
                if fn is learn._round_record:
                    assert all(future.done() for future in records)
                    records.append(super().submit(fn, *args))
                    return records[-1]
                return super().submit(fn, *args)

        monkeypatch.setattr(learn, "ThreadPoolExecutor", Recording)
        setup = studies.training_setup(_tiny_cfg(rounds=3), 0)
        run = run_training(setup, scheme, 20.0)
        assert len(records) == 3
        assert [r for r, _ in threads] == [0, 1, 2]
        assert all(thread is not threading.current_thread() for _, thread in threads)
        inline = initial_state(setup)
        uplink = scheme_uplink(setup, scheme, 10.0 ** (-20.0 / 10.0))
        for _ in range(3):
            inline = run_round(inline, setup, uplink)
        assert run.weights.tobytes() == inline.weights.tobytes()
        assert run.history == inline.history
        assert [r.round_index for r in run.history] == [0, 1, 2]

    @pytest.mark.parametrize("scheme", ["obda", "ideal"])
    def test_records_stay_on_the_calling_thread_beside_a_foreign_pool(
        self, monkeypatch, scheme
    ):
        monkeypatch.setattr(_placement, "foreign_threads", lambda: True)
        threads = self._record_threads(monkeypatch)
        run = run_training(studies.training_setup(_tiny_cfg(rounds=3), 0), scheme, 20.0)
        assert threads == [(r, threading.current_thread()) for r in range(3)]
        assert [r.round_index for r in run.history] == [0, 1, 2]

    @pytest.mark.parametrize("scheme", ["obda", "ideal"])
    def test_placed_run_starts_its_worker_at_the_first_record(
        self, monkeypatch, placed, scheme
    ):
        step = learn.run_round
        during = []

        def counting(state, setup, uplink, **worker):
            during.append(threading.active_count())
            return step(state, setup, uplink, **worker)

        monkeypatch.setattr(learn, "run_round", counting)
        before = threading.active_count()
        run_training(studies.training_setup(_tiny_cfg(rounds=3), 0), scheme, 20.0)
        assert threading.active_count() == before
        # the thread starts at the first hand-off, round 0's record
        assert during == [before] + [before + 1] * 2


def _batches(setup: TrainSetup, round_index: int) -> list[np.ndarray]:
    """Each device's batch rows of the pooled training set in round
    ``round_index``, from its keyed draw."""
    batches = []
    for k, (a, b) in enumerate(zip(setup.bounds[:-1], setup.bounds[1:])):
        rng = keyed_rng(setup.seed, "batch", round_index, k)
        size = min(setup.train.batch_size, b - a)
        batches.append(a + rng.choice(b - a, size=size, replace=False))
    return batches


def local_gradient_loop(w: np.ndarray, round_index: int, setup: TrainSetup) -> np.ndarray:
    """Per-device reference for the gradient pass: the same keyed batch
    draws, one 2-D loss_and_gradient call, forward pass included, per
    device."""
    data = setup.train_set
    return np.array(
        [
            loss_and_gradient(w, data.features[idx], data.labels[idx])[1]
            for idx in _batches(setup, round_index)
        ]
    )


def mean_loss_loop(w: np.ndarray, setup: TrainSetup) -> tuple[float, ...]:
    """Per-device reference for the pooled loss pass: one softmax
    cross-entropy per local dataset, over that device's rows of one pooled
    ``forward_logits``.  Pooled, because a device's own forward pass can
    differ from its pooled rows in the last bit of the output layer, and the
    package's losses read the pooled rows."""
    pooled = forward_logits(w, setup.train_set.features)
    losses = []
    for a, b in zip(setup.bounds[:-1], setup.bounds[1:]):
        logits, labels = pooled[a:b], setup.train_set.labels[a:b]
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        nll = np.log(probs[np.arange(len(labels)), labels] + 1e-300)
        losses.append(float(-np.mean(nll)))
    return tuple(losses)


#: (devices, training samples, partition, seed): one equal-size group, and
#: ragged label splits with devices holding fewer samples than a batch
RAGGED_CASES = [
    (5, 120, "homogeneous", 0),
    (7, 150, "heterogeneous", 0),
    (8, 300, "heterogeneous", 1),
    (20, 2000, "heterogeneous", 1),
]


def _ideal_states(case, rounds=3):
    """A case's set-up and the states of ``rounds`` ideal rounds from the
    initial one, that one included."""
    num_eds, samples, partition, seed = case
    setup = studies.training_setup(_tiny_cfg(num_eds, samples, partition), seed)
    state = initial_state(setup)
    states = [state]
    for _ in range(rounds):
        state = run_round(state, setup, scheme_uplink(setup, "ideal", 0.01))
        states.append(state)
    return setup, states


@pytest.mark.blas_threads
class TestBatchedAgainstLoops:
    @pytest.mark.parametrize("case", RAGGED_CASES)
    def test_stacked_votes_match_device_loop(self, case):
        setup, states = _ideal_states(case)
        for state in states:
            ref = local_gradient_loop(state.weights, state.round_index, setup)
            rngs = [
                keyed_rng(setup.seed, "batch", state.round_index, k)
                for k in range(setup.deployment.num_eds)
            ]
            grads = local_gradient(
                state.weights,
                state.hidden,
                setup.train_set,
                setup.bounds,
                setup.train.batch_size,
                rngs,
            )
            assert np.array_equal(grads, ref)
            votes = _collect_votes(state, setup)
            assert np.array_equal(votes, sign_pm1(ref))

    def test_ragged_cases_are_ragged(self):
        def batch_sizes(case):
            setup = _ideal_states(case, rounds=0)[0]
            return set(np.minimum(np.diff(setup.bounds), setup.train.batch_size))

        assert len(batch_sizes(RAGGED_CASES[1])) > 1
        assert max(batch_sizes(RAGGED_CASES[1])) < 32
        assert len(batch_sizes(RAGGED_CASES[2])) == 3
        assert max(batch_sizes(RAGGED_CASES[2])) == 32

    @pytest.mark.parametrize("case", RAGGED_CASES)
    def test_pooled_losses_match_device_loop(self, case):
        setup, states = _ideal_states(case)
        for state in states[1:]:
            ref = mean_loss_loop(state.weights, setup)
            assert state.history[-1].per_ed_loss == ref
            assert state.history[-1].train_loss == float(np.mean(ref))
        _, losses = loss_by_distance(states[-1], setup)
        assert np.array_equal(losses, mean_loss_loop(states[-1].weights, setup))

    def test_stacked_losses_match_two_dimensional_calls(self):
        rng = np.random.default_rng(5)
        w = init_params(1)
        x = rng.standard_normal((4, 9, 64))
        y = rng.integers(0, 10, (4, 9))
        losses, grads = loss_and_gradient(w, x, y)
        assert losses.shape == (4,) and grads.shape == (4, PARAM_DIM)
        for k in range(4):
            loss, grad = loss_and_gradient(w, x[k], y[k])
            assert losses[k] == loss
            assert np.array_equal(grads[k], grad)

    @pytest.mark.parametrize("max_offset", [None, 0, "max"])
    def test_channel_responses_match_frequency_response(self, max_offset):
        """The per-offset phase table against the tap-line oracle
        ``frequency_response`` of each draw: 200 draws, every admissible
        offset, bit for bit."""
        train = {} if max_offset is None else {"max_sync_offset": 0}
        setup = studies.training_setup(_tiny_cfg(20, 200, **train), 0)
        if max_offset == "max":
            limit = _max_admitted_offset(setup.wave)
            setup = replace(setup, train=replace(setup.train, max_sync_offset=limit))
        wave, seen = setup.wave, set()
        delays = epa_tap_delays(wave)
        for round_index in range(10):
            ref = []
            for k in range(setup.deployment.num_eds):
                gains, offset = _channel_draws(setup, round_index, k)
                seen.add(offset)
                ref.append(
                    frequency_response(delays, gains, wave.bin_indices, wave.idft_size, offset)
                )
            assert np.array_equal(_channel_responses(setup, round_index), ref)
        assert seen == set(range(setup.train.max_sync_offset + 1))
        table = epa_phase_table(wave, setup.train.max_sync_offset)
        assert not table.flags.writeable
        assert epa_phase_table(wave, setup.train.max_sync_offset) is table

    @pytest.mark.parametrize("partition", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize(
        "wave",
        [WaveformConfig(), WaveformConfig(45, 50, 40.0, 13, 9.6e6, 1)],
        ids=["default", "odd"],
    )
    def test_stacked_draw_matches_device_draws(self, partition, wave):
        """The stacked EPA draw and its batched product against each
        device's own keyed draw -- its real normals, then its imaginary
        ones -- and ``table[offset] @ gains``: 100 rounds of 20 devices at
        every admissible offset, bit for bit."""
        limit = _max_admitted_offset(wave)
        cfg = replace(_tiny_cfg(20, 200, partition, max_sync_offset=limit), wave=wave)
        setup = studies.training_setup(cfg, 1)
        table = epa_phase_table(wave, limit)
        powers = 10.0 ** (np.asarray(EPA_POWERS_DB) / 10.0)
        scales = np.sqrt(powers / powers.sum() / 2.0)
        taps = len(EPA_POWERS_DB)
        for round_index in range(100):
            gains, responses = [], []
            for k in range(20):
                rng = keyed_rng(setup.seed, "channel", round_index, k)
                gains.append((rng.standard_normal(taps) + 1j * rng.standard_normal(taps)) * scales)
                offset = draw_sync_offset(limit, keyed_rng(setup.seed, "sync", round_index, k))
                responses.append(table[offset] @ gains[-1])
            rngs = keyed_rngs(setup.seed, "channel", round_index, count=20)
            assert draw_epa(rngs).tobytes() == np.array(gains).tobytes()
            stacked = _channel_responses(setup, round_index)
            assert stacked.tobytes() == np.array(responses).tobytes()

    @pytest.mark.parametrize("case", RAGGED_CASES)
    def test_link_powers_match_device_loop(self, case):
        setup = _ideal_states(case, rounds=0)[0]
        for coverage in (SCHEMES["csc_mv_2"].clamp_radius_m, SCHEMES["obda"].clamp_radius_m):
            ref = [link_power(setup.power, coverage, d) for d in setup.deployment.ed_distances]
            links = link_power(setup.power, coverage, setup.deployment.ed_distances)
            assert links.shape == (len(ref),)
            assert np.array_equal(links, ref)


def pooled_loss_ref(w: np.ndarray, setup: TrainSetup) -> tuple[float, ...]:
    """Reference for the per-device losses: one out-of-place forward pass
    over the pooled training set, as the oracle makes it, and ``np.mean``
    over each device's rows.  Pooled, because a device's own pass can
    differ from it in the last bit of the output layer."""
    data = setup.train_set
    w1, b1, w2, b2 = _unpack(w)
    logits = np.tanh(data.features @ w1 + b1) @ w2 + b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    nll = -np.log(probs[np.arange(len(data)), data.labels] + 1e-300)
    return tuple(float(np.mean(nll[a:b])) for a, b in zip(setup.bounds[:-1], setup.bounds[1:]))


@pytest.mark.blas_threads
class TestSharedHiddenLayer:
    """A round's one forward pass over the training set feeds both the
    round's losses and, through its hidden activations, the next round's
    gradients.  That equals each batch's own hidden layer bit for bit only
    while every row of ``x @ w1`` is computed independently of the other
    rows, which these tests hold at whatever BLAS thread count they run
    under."""

    @pytest.mark.parametrize("case", RAGGED_CASES)
    def test_batch_rows_of_the_pass_equal_the_batch_hidden_layer(self, case):
        setup, states = _ideal_states(case)
        features = setup.train_set.features
        for state in states:
            assert state.hidden.tobytes() == hidden_layer(state.weights, features).tobytes()
            batches = _batches(setup, state.round_index)
            for idx in batches:
                alone = hidden_layer(state.weights, features[idx])
                assert alone.tobytes() == state.hidden[idx].tobytes()
            # stacked as the gradient pass stacks equal-size batches
            for size in {len(idx) for idx in batches}:
                idx = np.stack([idx for idx in batches if len(idx) == size])
                stacked = hidden_layer(state.weights, features[idx])
                assert stacked.tobytes() == state.hidden[idx].tobytes()

    @pytest.mark.parametrize("scheme", ["ideal", "obda", "csc_mv_2"])
    @pytest.mark.parametrize("case", [RAGGED_CASES[0], RAGGED_CASES[2]], ids=["equal", "ragged"])
    def test_run_equals_loop_that_recomputes_each_batch_pass(self, case, scheme):
        num_eds, samples, partition, seed = case
        setup = studies.training_setup(_tiny_cfg(num_eds, samples, partition, rounds=5), seed)
        run = run_training(setup, scheme, 10.0)
        uplink = scheme_uplink(setup, scheme, 0.1)
        w = init_params(seed)
        history = []
        for round_index in range(5):
            votes = sign_pm1(local_gradient_loop(w, round_index, setup))
            w = w - setup.train.step_size * sign_pm1(uplink(round_index, votes))
            per_ed = pooled_loss_ref(w, setup)
            accuracy = evaluate(w, setup.test_set)
            history.append(RoundRecord(round_index, float(np.mean(per_ed)), accuracy, per_ed))
        assert run.weights.tobytes() == w.tobytes()
        assert run.history == tuple(history)
        assert run.hidden.tobytes() == hidden_layer(w, setup.train_set.features).tobytes()


def _csc_plan(setup: TrainSetup, votes_per_block: int):
    return VotePlan(PARAM_DIM, setup.wave.num_bins, votes_per_block)


def _channel_draws(setup: TrainSetup, round_index: int, k: int):
    """Device k's EPA tap gains and timing offset this round, each from its
    own key."""
    gains = draw_epa([keyed_rng(setup.seed, "channel", round_index, k)])[0]
    offset = draw_sync_offset(
        setup.train.max_sync_offset, keyed_rng(setup.seed, "sync", round_index, k)
    )
    return gains, offset


def superpose(
    contributions: Sequence[tuple[np.ndarray, float]],
    noise_power: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum sqrt(P_k)-weighted signals and add complex white Gaussian noise of
    the given per-sample variance."""
    if not contributions:
        raise ValueError("need at least one signal")
    length = len(contributions[0][0])
    total = np.zeros(length, dtype=complex)
    for sig, power in contributions:
        if len(sig) != length:
            raise FramingError("superposed signals must share a common length")
        total += math.sqrt(power) * sig
    if noise_power > 0:
        scale = math.sqrt(noise_power / 2.0)
        total = total + scale * (rng.standard_normal(length) + 1j * rng.standard_normal(length))
    return total


def _sig(x):
    return np.asarray(x, dtype=complex)


class TestSuperpose:
    def test_weighted_sum_noiseless(self):
        x = np.ones(16, dtype=complex)
        y = 1j * np.ones(16, dtype=complex)
        out = superpose([(_sig(x), 4.0), (_sig(y), 9.0)], 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(out, 2.0 * x + 3.0 * y)

    def test_noise_variance(self):
        x = np.zeros(200_000, dtype=complex)
        out = superpose([(_sig(x), 1.0)], 0.25, np.random.default_rng(1))
        assert np.mean(np.abs(out) ** 2) == pytest.approx(0.25, rel=0.03)

    def test_length_mismatch_rejected(self):
        with pytest.raises(FramingError):
            superpose(
                [(_sig(np.ones(8)), 1.0), (_sig(np.ones(9)), 1.0)],
                0.0,
                np.random.default_rng(0),
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            superpose([], 0.0, np.random.default_rng(0))


def csc_majority_sampled(
    round_index: int,
    setup: TrainSetup,
    votes: np.ndarray,
    noise_power: float,
    votes_per_block: int,
) -> np.ndarray:
    """Sample-level reference for the chirp uplink's statistic, the
    ``detect_mv`` margins: full spread / multipath / superposition / despread
    chain.  Slower than the spectral path but uses the identical keyed draws
    for phases, channels and offsets, so with noise disabled the two agree to
    rounding and their signs agree exactly."""
    wave = setup.wave
    plan = _csc_plan(setup, votes_per_block)
    fdss = build_fdss(wave)
    links = link_power(
        setup.power,
        SCHEMES[f"csc_mv_{votes_per_block}"].clamp_radius_m,
        setup.deployment.ed_distances,
    )
    amp = math.sqrt(wave.idft_size / votes_per_block)
    delays = epa_tap_delays(wave)
    arrivals = []  # per device: (list of per-block received symbols, link power)
    for k in range(votes.shape[0]):
        rng = keyed_rng(setup.seed, "phase", round_index, k)
        blocks = encode_csc(plan, votes[k], rng) * amp
        gains, offset = _channel_draws(setup, round_index, k)
        rx = [propagate(delays, gains, offset, spread(wave, fdss, row)) for row in blocks]
        arrivals.append((rx, links[k]))
    noise_rng = keyed_rng(setup.seed, "noise", round_index)
    despreads = np.vstack(
        [
            despread(
                wave,
                fdss,
                superpose([(rx[s], p) for rx, p in arrivals], noise_power, noise_rng),
            )
            for s in range(plan.num_blocks)
        ]
    )
    return detect_mv(plan, despreads)


def obda_majority_sampled(
    round_index: int, setup: TrainSetup, votes: np.ndarray
) -> np.ndarray:
    """Sample-level reference for the noiseless OBDA uplink's statistic, the
    received I/Q components: each device's channel-inverted QPSK blocks are
    OFDM modulated, sent through its tap line with its timing offset,
    superposed at its link power and demodulated, with the keyed channel and
    offset draws of the bin-domain path."""
    wave = setup.wave
    links = link_power(
        setup.power, SCHEMES["obda"].clamp_radius_m, setup.deployment.ed_distances
    )
    amp = math.sqrt(wave.idft_size / wave.num_bins)
    delays = epa_tap_delays(wave)
    arrivals = []  # per device: (list of per-block received symbols, received power)
    for k in range(votes.shape[0]):
        gains, offset = _channel_draws(setup, round_index, k)
        response = frequency_response(delays, gains, wave.bin_indices, wave.idft_size, offset)
        tx = encode_obda(votes[k], response)
        rx = [propagate(delays, gains, offset, modulate_ofdm(wave, row)) for row in tx]
        arrivals.append((rx, links[k] * amp**2))
    received = np.array(
        [
            demodulate_ofdm(wave, superpose([(rx[b], p) for rx, p in arrivals], 0.0, None))
            for b in range(len(arrivals[0][0]))
        ]
    )
    # a sign that truncated inversion silenced on every device sums to an
    # exact 0 in the bin domain, which sign_pm1 reads as +1; the sample-level
    # chain leaves rounding residue of either sign there, so that is a tie
    components = received.view(float)
    components[np.abs(components) < 1e-9 * np.abs(components).max()] = 0.0
    return decode_obda(received, PARAM_DIM)


def _assert_matches_oracle(fast: np.ndarray, oracle: np.ndarray) -> None:
    """The uplink's statistic equals the sample-level oracle's to rounding."""
    assert fast.shape == oracle.shape == (PARAM_DIM,)
    assert np.max(np.abs(fast - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.blas_threads
class TestRadioAggregation:
    def test_spectral_path_matches_sampled_path_noiseless(self):
        setup = studies.training_setup(_tiny_cfg(num_eds=4, samples=100), 2)
        votes = _initial_votes(setup, 0)
        fast = scheme_uplink(setup, "csc_mv_2", 0.0)(0, votes)
        slow = csc_majority_sampled(0, setup, votes, 0.0, 2)
        np.testing.assert_array_equal(sign_pm1(fast), sign_pm1(slow))

    # the oracle costs up to 1.7 s per example (one vote per block, six
    # devices), so the example count is kept small
    @settings(max_examples=6, deadline=None)
    @given(
        votes_per_block=st.sampled_from((1, 2, 4)),
        num_eds=st.integers(1, 6),
        # every offset TrainSetup admits (0-8 at the defaults)
        max_sync_offset=st.integers(0, _max_admitted_offset(ExperimentConfig().wave)),
        seed=st.integers(0, 3),
        round_index=st.integers(0, 5),
    )
    def test_spectral_path_matches_sampled_path_property(
        self, votes_per_block, num_eds, max_sync_offset, seed, round_index
    ):
        cfg = _tiny_cfg(num_eds=num_eds, samples=60, max_sync_offset=max_sync_offset)
        setup = studies.training_setup(cfg, seed)
        votes = _initial_votes(setup, round_index)
        np.testing.assert_array_equal(
            sign_pm1(scheme_uplink(setup, f"csc_mv_{votes_per_block}", 0.0)(round_index, votes)),
            sign_pm1(csc_majority_sampled(round_index, setup, votes, 0.0, votes_per_block)),
        )

    #: (seed, round) pairs the OBDA oracle runs at each device count and offset
    OBDA_DRAWS = ((0, 0), (1, 3), (2, 5))

    @pytest.mark.parametrize("num_eds", range(1, 7))
    def test_obda_matches_sampled_path_noiseless(self, num_eds):
        for seed, round_index in self.OBDA_DRAWS:
            base = studies.training_setup(_tiny_cfg(num_eds=num_eds, samples=60), seed)
            # every offset TrainSetup admits (0-8 at the defaults)
            for max_sync_offset in range(_max_admitted_offset(base.wave) + 1):
                setup = replace(base, train=replace(base.train, max_sync_offset=max_sync_offset))
                votes = _initial_votes(setup, round_index)
                np.testing.assert_array_equal(
                    sign_pm1(scheme_uplink(setup, "obda", 0.0)(round_index, votes)),
                    sign_pm1(obda_majority_sampled(round_index, setup, votes)),
                )

    @pytest.mark.parametrize("votes_per_block", [1, 2, 4])
    def test_chirp_statistic_matches_sampled_path(self, votes_per_block):
        offset = _max_admitted_offset(ExperimentConfig().wave)
        cfg = _tiny_cfg(num_eds=4, samples=80, max_sync_offset=offset)
        setup = studies.training_setup(cfg, 1)
        votes = _initial_votes(setup, 2)
        _assert_matches_oracle(
            scheme_uplink(setup, f"csc_mv_{votes_per_block}", 0.0)(2, votes),
            csc_majority_sampled(2, setup, votes, 0.0, votes_per_block),
        )

    @pytest.mark.parametrize("num_eds", range(1, 7))
    def test_obda_statistic_matches_sampled_path(self, num_eds):
        offset = _max_admitted_offset(ExperimentConfig().wave)
        cfg = _tiny_cfg(num_eds=num_eds, samples=60, max_sync_offset=offset)
        setup = studies.training_setup(cfg, 3)
        votes = _initial_votes(setup, 1)
        _assert_matches_oracle(
            scheme_uplink(setup, "obda", 0.0)(1, votes), obda_majority_sampled(1, setup, votes)
        )

    def test_single_device_noiseless_csc_recovers_votes(self):
        setup = studies.training_setup(_tiny_cfg(num_eds=1, samples=60), 4)
        # heavy fading cannot flip a single device's energy detection
        votes = _initial_votes(setup, 0)
        out = scheme_uplink(setup, "csc_mv_2", 0.0)(0, votes)
        np.testing.assert_array_equal(sign_pm1(out), votes[0])

    def test_csc_majority_tracks_ideal_at_high_snr(self):
        setup = studies.training_setup(_tiny_cfg(num_eds=5, samples=150), 5)
        votes = _initial_votes(setup, 0)
        radio = sign_pm1(scheme_uplink(setup, "csc_mv_2", 1e-6)(0, votes))
        ideal = ideal_mv(votes)
        assert np.mean(radio == ideal) > 0.7

    def test_obda_majority_tracks_ideal_at_high_snr(self):
        setup = studies.training_setup(_tiny_cfg(num_eds=5, samples=150), 5)
        votes = _initial_votes(setup, 0)
        radio = sign_pm1(scheme_uplink(setup, "obda", 1e-6)(0, votes))
        ideal = ideal_mv(votes)
        assert np.mean(radio == ideal) > 0.7


class TestConvergenceBound:
    def _params(self, **kw):
        base = dict(
            smoothness=np.full(10, 2.0),
            grad_noise_scale=np.full(10, 0.5),
            initial_gap=5.0,
            step_scale=1.0,
            num_workers=10,
            detection_snr=1.0,
            num_rounds=100,
        )
        base.update(kw)
        return BoundParams(**base)

    def test_inverse_sqrt_round_scaling(self):
        b1 = convergence_bound(self._params(num_rounds=100))
        b2 = convergence_bound(self._params(num_rounds=400))
        assert b1 / b2 == pytest.approx(2.0, rel=1e-12)

    def test_perfect_detection_limit(self):
        # as the detection quality grows, the drift coefficient approaches
        # 1/sqrt(step_scale)
        p = self._params(detection_snr=1e12)
        got = convergence_bound(p)
        l1 = 10 * 2.0
        expected = (
            math.sqrt(l1) * (5.0 + 0.5) + (2.0 * math.sqrt(2.0) / 3.0) * (10 * 0.5)
        ) / math.sqrt(100)
        assert got == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_monotone_in_detection_quality(self, xi_a, xi_b):
        lo, hi = sorted((xi_a, xi_b))
        b_lo = convergence_bound(self._params(detection_snr=lo))
        b_hi = convergence_bound(self._params(detection_snr=hi))
        assert b_hi <= b_lo + 1e-12

    def test_monotone_in_workers_and_noise(self):
        assert convergence_bound(self._params(num_workers=50)) <= convergence_bound(
            self._params(num_workers=2)
        )
        assert convergence_bound(
            self._params(grad_noise_scale=np.full(10, 2.0))
        ) > convergence_bound(self._params())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["initial_gap", "step_scale", "detection_snr", "smoothness", "grad_noise_scale"]
    )
    def test_non_finite_inputs_rejected(self, name, value):
        arg = np.array([1.0, value]) if name in ("smoothness", "grad_noise_scale") else value
        with pytest.raises(ValueError, match=name):
            self._params(**{name: arg})

    @pytest.mark.parametrize(
        "kw",
        [{"step_scale": 1e308}, {"initial_gap": 1e308}, {"detection_snr": 1e-308}],
        ids=["step_scale", "initial_gap", "detection_snr"],
    )
    def test_overflowing_bound_rejected(self, kw):
        with pytest.raises(ValueError, match="overflows"):
            convergence_bound(self._params(**kw))

    def test_validation(self):
        # BoundParams checks the guarantee's domain itself, so no invalid
        # instance reaches convergence_bound
        for kw, message in [
            ({"num_rounds": 0}, "num_rounds must be positive"),
            ({"num_workers": 0}, "num_workers must be positive"),
            ({"detection_snr": 0.0}, "detection_snr must be positive"),
            ({"step_scale": -1.0}, "step_scale must be positive"),
            ({"smoothness": np.array([-1.0])}, "^smoothness must hold finite non-negative"),
            ({"grad_noise_scale": np.array([-1.0])}, "^grad_noise_scale must hold finite non-negative"),
            ({"initial_gap": -1.0}, "initial_gap must be non-negative"),
        ]:
            with pytest.raises(ConfigError, match=message):
                self._params(**kw)
