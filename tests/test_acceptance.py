"""Release acceptance gate.

One test per release criterion, each at its stated tolerance, each printing a
single ``criterion N: PASS/FAIL`` line (run with ``-s`` to see the lines for
passing criteria; a failing criterion always shows its line).  The tolerances
are part of the contract: loosening one to get green defeats the gate's
purpose.
"""
import itertools
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from chirpvote._rng import keyed_rng
from chirpvote.channel import draw_epa, epa_rms_delay_spread_ns, propagate
from chirpvote.config import ExperimentConfig, MetricsConfig, TrainConfig, save_config
from chirpvote.deployment import PowerControlParams, coverage_radius
from chirpvote.learn import BoundParams, convergence_bound, loss_by_distance, run_training
from chirpvote.oac import (
    VotePlan,
    detect_mv,
    encode_csc,
    sign_pm1,
)
from chirpvote.rf import PaDriver, aclr, obo_for_aclr, occupied_band, pmepr_batch
from chirpvote import studies
from chirpvote.waveform import (
    WaveformConfig,
    analog_body,
    build_fdss,
    despread,
    precode,
    spread,
)

CFG = WaveformConfig()
M = CFG.num_bins


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_roundtrip_identity_and_chirp_slope():
    fdss = build_fdss(CFG)
    # despread(spread(v)) must equal v filtered by the squared shaping
    # magnitudes: a diagonal operator in the bin-DFT domain
    g2 = np.zeros(M)
    g2[CFG.bin_indices % M] = np.abs(fdss) ** 2
    rng = keyed_rng(0, "acceptance-roundtrip")
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        got = despread(CFG, fdss, spread(CFG, fdss, v))
        ref = np.fft.ifft(g2 * np.fft.fft(v, norm="ortho"), norm="ortho")
        worst = max(worst, float(np.max(np.abs(got - ref))))

    # a single unshifted chirp must sweep at sweep_cycles / symbol_period^2
    v = np.zeros(M, dtype=complex)
    v[0] = 1.0
    ratio = 8
    body = analog_body(CFG, precode(CFG, fdss, v)[None, :], ratio)[0]
    fs = CFG.sample_rate * ratio
    inst_freq = np.angle(body[1:] * np.conj(body[:-1])) * fs / (2 * np.pi)
    t = np.arange(inst_freq.size) / fs
    lo = int(inst_freq.size * 0.15)
    slope = np.polyfit(t[lo:-lo], inst_freq[lo:-lo], 1)[0]
    target = CFG.sweep_cycles * CFG.sample_rate**2 / CFG.idft_size**2
    rel = abs(slope - target) / target

    ok = worst < 1e-9 and rel <= 0.05
    _report(1, ok, f"roundtrip err {worst:.2e} < 1e-9; slope err {rel:.1%} <= 5%")


def test_criterion_02_pmepr_levels_and_ordering():
    cfg = ExperimentConfig()  # 10^4 symbols per scheme
    dists = {
        scheme: pmepr_batch(studies.scheme_symbol_bodies(cfg, scheme, cfg.seed))
        for scheme in ("csc_mv_1", "csc_mv_2", "csc_mv_4", "obda")
    }
    p999 = {s: float(np.percentile(d, 99.9)) for s, d in dists.items()}
    targets = {"csc_mv_1": 2.0, "csc_mv_2": 3.0, "csc_mv_4": 6.0}
    ok_levels = all(abs(p999[s] - t) <= 1.0 for s, t in targets.items())
    ok_order = all(
        np.percentile(dists["obda"], q) > np.percentile(dists[s], q)
        for q in (50.0, 90.0, 99.0, 99.9)
        for s in targets
    )
    _report(
        2,
        ok_levels and ok_order,
        "p99.9 dB mv1/mv2/mv4 = "
        f"{p999['csc_mv_1']:.2f}/{p999['csc_mv_2']:.2f}/{p999['csc_mv_4']:.2f} "
        f"within +/-1 of 2/3/6; baseline dominates at every percentile: {ok_order}",
    )


def test_criterion_03_aclr_floors_and_minimum_backoff():
    cfg = ExperimentConfig()
    inband = occupied_band(cfg.wave)
    floors, obos = {}, {}
    for scheme in ("csc_mv_2", "csc_mv_4", "obda"):
        stream = studies.scheme_stream(cfg, scheme, cfg.seed)
        floors[scheme] = aclr(PaDriver(cfg.pa, stream)(30.0), inband)
        obos[scheme] = obo_for_aclr(cfg.pa, stream, inband, -22.0, tol_db=0.1)
    ok = (
        abs(floors["obda"] - (-23.0)) <= 1.5
        and abs(floors["csc_mv_2"] - (-28.2)) <= 1.5
        and abs(floors["csc_mv_4"] - (-28.2)) <= 1.5
        and abs(obos["obda"] - 10.5) <= 1.5
        and abs(obos["csc_mv_2"] - 3.3) <= 1.5
        and abs(obos["csc_mv_4"] - 4.4) <= 1.5
    )
    _report(
        3,
        ok,
        f"floors dB obda/mv2/mv4 = {floors['obda']:.2f}/"
        f"{floors['csc_mv_2']:.2f}/{floors['csc_mv_4']:.2f}; "
        f"min back-off dB = {obos['obda']:.2f}/{obos['csc_mv_2']:.2f}/"
        f"{obos['csc_mv_4']:.2f} vs 10.5/3.3/4.4",
    )


def test_criterion_04_coverage_radius_formula():
    radius = coverage_radius(
        PowerControlParams(obo_ref=30.0, obo_min=10.5, beta=4.0, r_ref=10.0)
    )
    ok = abs(radius - 30.73) <= 0.1
    _report(4, ok, f"coverage radius {radius:.4f} m within 0.1 of 30.73")


def test_criterion_05_delay_profile_spread():
    rms = epa_rms_delay_spread_ns()
    ok = abs(rms - 43.1) <= 1.0
    _report(5, ok, f"RMS delay spread {rms:.3f} ns within 1 of 43.1")


def test_criterion_06_detection_through_channel_and_vote_margins():
    fdss = build_fdss(CFG)
    rng = keyed_rng(0, "acceptance-detect")
    failures = 0
    n_trials = 1000
    for trial in range(n_trials):
        mv = (1, 2, 4)[trial % 3]
        plan = VotePlan(mv, M, mv)
        votes = sign_pm1(rng.standard_normal(plan.grad_dim))
        block = encode_csc(plan, votes, rng)[0]
        realization = draw_epa(CFG, rng)
        offset = int(rng.integers(0, 5))
        rx = propagate(realization, offset, spread(CFG, fdss, block))
        out = detect_mv(plan, despread(CFG, fdss, rx)[None, :])
        if not np.array_equal(sign_pm1(out), votes):
            failures += 1

    # superposed devices, unit flat channels: the mean detected margin must
    # match the vote balance (sign and value) for every K <= 4 sign pattern
    plan1 = VotePlan(1, M, 1)
    rng2 = keyed_rng(1, "acceptance-margin")
    n_draws = 1200
    oracle_ok = True
    for k in (1, 2, 3, 4):
        for pattern in itertools.product((-1, 1), repeat=k):
            margins = np.empty(n_draws)
            for t in range(n_draws):
                total = np.zeros((1, M), dtype=complex)
                for vote in pattern:
                    total += encode_csc(plan1, np.array([vote]), rng2)
                margins[t] = detect_mv(plan1, total)[0]
            mean = margins.mean()
            band = 4.0 * margins.std(ddof=1) / np.sqrt(n_draws)
            expected = sum(pattern)
            if expected == 0:
                oracle_ok &= abs(mean) <= band
            else:
                oracle_ok &= np.sign(mean) == np.sign(expected)
                oracle_ok &= abs(mean - expected) <= band

    ok = failures == 0 and oracle_ok
    _report(
        6,
        ok,
        f"{n_trials - failures}/{n_trials} noiseless channel round-trips exact; "
        f"margin oracle over all K<=4 patterns: {oracle_ok}",
    )


def _final_accuracy(state) -> float:
    return float(np.mean([rec.test_accuracy for rec in state.history[-10:]]))


def test_criterion_07_homogeneous_training_matches_ideal():
    cfg = ExperimentConfig()
    snr_db = cfg.train.snr_db[0]
    ideal, csc = [], []
    for seed in cfg.train.seeds:
        ideal.append(
            _final_accuracy(run_training(studies.training_setup(cfg, seed), "ideal", snr_db))
        )
        csc.append(
            _final_accuracy(run_training(studies.training_setup(cfg, seed), "csc_mv_2", snr_db))
        )
    mean_ideal, mean_csc = float(np.mean(ideal)), float(np.mean(csc))
    ok = mean_csc >= mean_ideal - 0.03
    _report(
        7,
        ok,
        f"{len(ideal)}-seed mean accuracy: chirp votes {mean_csc:.3f} vs "
        f"error-free votes {mean_ideal:.3f} (allowed gap 0.03)",
    )


def test_criterion_08_heterogeneous_training_beats_baseline():
    base = ExperimentConfig()
    cfg = replace(base, train=replace(base.train, partition="heterogeneous"))
    snr_db = cfg.train.snr_db[0]
    csc, obda = [], []
    far_losses, near_losses = [], []
    boundary = cfg.r_max / np.sqrt(2.0)
    for seed in cfg.train.seeds:
        csc.append(
            _final_accuracy(run_training(studies.training_setup(cfg, seed), "csc_mv_2", snr_db))
        )
        state = run_training(studies.training_setup(cfg, seed), "obda", snr_db)
        obda.append(_final_accuracy(state))
        setup = studies.training_setup(cfg, seed)
        dist, loss = loss_by_distance(state, setup)
        far_losses.extend(loss[dist > boundary])
        near_losses.extend(loss[dist <= boundary])
    mean_csc, mean_obda = float(np.mean(csc)), float(np.mean(obda))
    far, near = float(np.mean(far_losses)), float(np.mean(near_losses))
    ok = mean_csc - mean_obda >= 0.05 and far > near
    _report(
        8,
        ok,
        f"{len(csc)}-seed mean accuracy: chirp votes {mean_csc:.3f} vs "
        f"baseline {mean_obda:.3f} (need +0.05); baseline far/near loss "
        f"{far:.3f}/{near:.3f}",
    )


def test_criterion_09_bound_scalings():
    base = BoundParams(
        smoothness=np.full(10, 2.0),
        grad_noise_scale=np.full(10, 1.5),
        initial_gap=5.0,
        step_scale=1.0,
        num_workers=10,
        detection_snr=2.0,
        num_rounds=100,
    )
    ratio = convergence_bound(base) / convergence_bound(replace(base, num_rounds=400))
    ok_rate = ratio == 2.0

    # clean-detection limit: the drift prefactor collapses to 1/sqrt(step_scale)
    gamma = base.step_scale
    limit = (
        np.sqrt(np.sum(base.smoothness) / gamma) * (base.initial_gap + gamma / 2.0)
        + (2.0 * np.sqrt(2.0 * gamma) / 3.0) * np.sum(base.grad_noise_scale)
    ) / np.sqrt(base.num_rounds)
    at_huge = convergence_bound(replace(base, detection_snr=1e12))
    ok_limit = abs(at_huge - limit) <= 1e-9 * limit

    snr_vals = [convergence_bound(replace(base, detection_snr=x)) for x in (0.25, 1.0, 4.0, 16.0)]
    worker_vals = [convergence_bound(replace(base, num_workers=k)) for k in (1, 2, 8, 32)]
    noise_vals = [
        convergence_bound(replace(base, grad_noise_scale=np.full(10, s)))
        for s in (0.5, 1.5, 4.5)
    ]
    ok_mono = (
        all(a > b for a, b in zip(snr_vals, snr_vals[1:]))
        and all(a > b for a, b in zip(worker_vals, worker_vals[1:]))
        and all(a < b for a, b in zip(noise_vals, noise_vals[1:]))
    )
    ok = ok_rate and ok_limit and ok_mono
    _report(
        9,
        ok,
        f"quadrupling rounds halves the bound exactly: {ok_rate}; "
        f"clean-detection limit matched: {ok_limit}; monotone in detection "
        f"SNR / workers / gradient noise: {ok_mono}",
    )


def test_criterion_10_cli_byte_determinism(tmp_path):
    cfg = ExperimentConfig(
        metrics=MetricsConfig(num_symbols=100, stream_symbols=50),
        train=TrainConfig(
            num_eds=4,
            rounds=2,
            train_samples=60,
            test_samples=40,
            snr_db=(10.0,),
            seeds=(0,),
        ),
    )
    cfg_path = tmp_path / "determinism.json"
    save_config(cfg, cfg_path)

    commands = [
        ["pmepr"],
        ["cm"],
        ["aclr", "--obo-db", "10"],
        ["coverage"],
        ["snr-distance"],
        ["train", "--scheme", "csc_mv_2"],
        ["waveform-dump", "--scheme", "csc_mv_1"],
        ["bound", "--workers", "7"],
    ]

    def run_cli(argv: list[str], threads: int) -> bytes:
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=str(threads),
            OMP_NUM_THREADS=str(threads),
            MKL_NUM_THREADS=str(threads),
        )
        config = [] if argv[0] == "bound" else ["--config", str(cfg_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "chirpvote.cli", *argv, *config],
            capture_output=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    stable = all(run_cli(argv, 1) == run_cli(argv, 1) for argv in commands)
    thread_proof = run_cli(["train", "--scheme", "csc_mv_2"], 1) == run_cli(
        ["train", "--scheme", "csc_mv_2"], 4
    )
    ok = stable and thread_proof
    _report(
        10,
        ok,
        f"{len(commands)} commands byte-identical on rerun: {stable}; "
        f"training output independent of BLAS thread count: {thread_proof}",
    )
