"""Federated sign-vote training over the simulated radio links.

Each round, every edge device computes a mini-batch gradient of a shared
two-layer MLP, reduces it to per-coordinate sign votes, and the votes are
aggregated to a majority decision that all devices apply with a common step
size.  The scheme token (its record in ``config.SCHEMES``) selects the
aggregation:

* ``ideal``      -- error-free majority vote (upper bound);
* ``csc_mv_<V>`` -- V = 1, 2 or 4 votes per block ride on chirp tones with
                    energy detection at the receiver (no channel knowledge
                    anywhere);
* ``obda``       -- QPSK sign modulation with truncated channel inversion at
                    the transmitters (needs channel knowledge).

The radio paths share batch, channel, timing-offset and noise draws through
keyed RNG streams so schemes can be compared on identical realisations.

A round makes one forward pass of the model over the pooled training set,
at the updated weights.  The round's per-device losses are read from it,
and the next round's mini-batch gradients gather their hidden activations
from it instead of running the hidden layer again.  That equals the
batch's own hidden layer bit for bit because each row of ``x @ w1`` and of
tanh depends only on the matching input row; the test suite holds the BLAS
to that at 1 and 2 threads.  The narrow output layer is not shared: the
BLAS computes the last rows of a (n, 32) @ (32, 10) product by another
kernel, so a row's logits can differ in the last bit with its place.
"""
from __future__ import annotations

import math
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ._placement import cpu_placement
from ._rng import keyed_rng, keyed_rngs
from .channel import draw_epa, draw_sync_offset, epa_phase_table, epa_tap_delays
from .config import TrainConfig, scheme as scheme_record
from .datasets import Dataset
from .deployment import Deployment, PowerControlParams, link_power
from .errors import ConfigError, InfeasibleError, require_field_types
from .oac import VotePlan, csc_phases, detect_mv, decode_obda, encode_obda, place_tones, sign_pm1
from .waveform import WaveformConfig, build_fdss, despread_folded, matched_despread

INPUT_DIM = 64
HIDDEN_DIM = 32
NUM_CLASSES = 10
#: total trainable parameters: 64*32 + 32 + 32*10 + 10
PARAM_DIM = INPUT_DIM * HIDDEN_DIM + HIDDEN_DIM + HIDDEN_DIM * NUM_CLASSES + NUM_CLASSES


def init_params(seed: int) -> np.ndarray:
    """Flat parameter vector; scaled-Gaussian weights, zero biases."""
    rng = keyed_rng(seed, "model-init")
    w1 = rng.standard_normal((INPUT_DIM, HIDDEN_DIM)) / math.sqrt(INPUT_DIM)
    w2 = rng.standard_normal((HIDDEN_DIM, NUM_CLASSES)) / math.sqrt(HIDDEN_DIM)
    return np.concatenate(
        [w1.ravel(), np.zeros(HIDDEN_DIM), w2.ravel(), np.zeros(NUM_CLASSES)]
    )


def _unpack(w: np.ndarray):
    w = np.asarray(w, dtype=float)
    if w.shape != (PARAM_DIM,):
        raise ValueError(f"parameter vector must have length {PARAM_DIM}")
    i = 0
    w1 = w[i : i + INPUT_DIM * HIDDEN_DIM].reshape(INPUT_DIM, HIDDEN_DIM)
    i += INPUT_DIM * HIDDEN_DIM
    b1 = w[i : i + HIDDEN_DIM]
    i += HIDDEN_DIM
    w2 = w[i : i + HIDDEN_DIM * NUM_CLASSES].reshape(HIDDEN_DIM, NUM_CLASSES)
    i += HIDDEN_DIM * NUM_CLASSES
    b2 = w[i : i + NUM_CLASSES]
    return w1, b1, w2, b2


def hidden_layer(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The tanh hidden activations of the rows ``x`` (..., n, 64), computed
    in place of the pre-activations."""
    w1, b1, _, _ = _unpack(w)
    h = x @ w1
    h += b1
    np.tanh(h, out=h)
    return h


def _output_logits(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    _, _, w2, b2 = _unpack(w)
    logits = h @ w2
    logits += b2
    return logits


def forward_logits(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _output_logits(w, hidden_layer(w, x))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place of ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _sample_nll(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy of class probabilities (..., n, 10)."""
    picked = np.take_along_axis(probs, y[..., None], axis=-1)[..., 0]
    return -np.log(picked + 1e-300)


def mean_loss(w: np.ndarray, data: Dataset, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy of each contiguous segment
    ``data[bounds[i]:bounds[i + 1]]``, from one forward pass over ``data``,
    and that pass's hidden activations, (len(data), HIDDEN_DIM).

    Each mean is ``np.add.reduce`` of the segment over its length, which is
    ``np.mean`` bit for bit (``np.add.reduceat`` is not: its segment sums
    can differ in the last bit)."""
    hidden = hidden_layer(w, data.features)
    nll = _sample_nll(_softmax(_output_logits(w, hidden)), data.labels)
    segments = zip(bounds[:-1], bounds[1:])
    return np.array([np.add.reduce(nll[a:b]) / (b - a) for a, b in segments]), hidden


def evaluate(w: np.ndarray, data: Dataset) -> float:
    """Classification accuracy on the dataset: the share of samples whose
    largest logit is their label's."""
    predicted = np.argmax(forward_logits(w, data.features), axis=1)
    return float(np.mean(predicted == data.labels))


def local_gradient(
    w: np.ndarray,
    hidden: np.ndarray,
    data: Dataset,
    bounds: np.ndarray,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Mini-batch gradients of all devices, shape (len(bounds) - 1, PARAM_DIM).

    Device k holds rows ``bounds[k]:bounds[k + 1]`` of ``data`` and draws
    min(batch_size, n_k) of them uniformly without replacement with
    ``rngs[k]``.  ``hidden`` is ``hidden_layer(w, data.features)``: a batch's
    hidden activations are gathered from it, which equals the batch's own
    hidden layer bit for bit while the BLAS computes each row of ``x @ w1``
    independently of the other rows.  The output layer is recomputed per
    batch, since the rows of the narrow ``h @ w2`` product do depend on
    their place in it.  Devices with equal batch sizes share one gather and
    one stacked pass, normally a single pass for all.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    counts = np.diff(bounds)
    rows = [
        start + rng.choice(n, size=min(batch_size, n), replace=False)
        for start, n, rng in zip(bounds[:-1], counts, rngs, strict=True)
    ]
    sizes = np.minimum(counts, batch_size)
    w2 = _unpack(w)[2]
    grads = np.empty((len(rows), PARAM_DIM))
    for size in set(sizes.tolist()):  # groups write disjoint rows, in any order
        group = np.flatnonzero(sizes == size)
        idx = np.stack([rows[k] for k in group])
        x, y, h = data.features[idx], data.labels[idx], hidden[idx]
        # subtracting the one-hot labels leaves the other entries bit-exact
        delta2 = _softmax(_output_logits(w, h))
        delta2 -= y[..., None] == np.arange(NUM_CLASSES)
        delta2 /= size
        delta1 = (delta2 @ w2.T) * (1.0 - h**2)
        grads[group] = np.concatenate(
            [
                (x.swapaxes(-1, -2) @ delta1).reshape(len(group), -1),
                delta1.sum(axis=-2),
                (h.swapaxes(-1, -2) @ delta2).reshape(len(group), -1),
                delta2.sum(axis=-2),
            ],
            axis=-1,
        )
    return grads


def partition_dataset(
    full: Dataset, deployment: Deployment, mode: str
) -> tuple[Dataset, np.ndarray]:
    """Split a dataset across the deployed devices (a true partition).

    Returns the samples in device order and the row bounds: device k holds
    rows ``bounds[k]:bounds[k + 1]``, in their order within ``full``.

    ``homogeneous``   -- sample i goes to device i mod num_eds, dealt in
    index order over all labels at once: every device holds the same number
    of samples (to within one), but labels are not balanced per device.
    ``heterogeneous`` -- devices inside radius r_max/sqrt(2) receive only
    labels 0-4 and the outer ring only labels 5-9, so that near and far
    devices hold disjoint halves of the task.
    """
    k = deployment.num_eds
    if len(full) < k:
        raise ConfigError("fewer samples than devices")
    assignment = np.empty(len(full), dtype=int)
    if mode == "homogeneous":
        groups = [(np.arange(k), np.arange(NUM_CLASSES))]
    elif mode == "heterogeneous":
        boundary = deployment.r_max / math.sqrt(2.0)
        inner = np.flatnonzero(deployment.ed_distances <= boundary)
        outer = np.flatnonzero(deployment.ed_distances > boundary)
        if inner.size == 0 or outer.size == 0:
            raise ConfigError("heterogeneous split needs devices on both sides of the boundary")
        half = NUM_CLASSES // 2
        groups = [(inner, np.arange(half)), (outer, np.arange(half, NUM_CLASSES))]
    else:
        raise ConfigError(f"unknown partition mode {mode!r}")
    for eds, labels in groups:
        pool = np.flatnonzero(np.isin(full.labels, labels))
        assignment[pool] = eds[np.arange(pool.size) % eds.size]
    counts = np.bincount(assignment, minlength=k)
    if not counts.all():
        raise ConfigError(
            f"partition leaves devices {np.flatnonzero(counts == 0).tolist()} without samples"
        )
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return full.subset(np.argsort(assignment, kind="stable")), bounds


@dataclass(frozen=True)
class TrainSetup:
    """Everything a training run needs besides the mutable model state.

    ``train`` is the profile's own section: batch size, step size, rounds
    and timing offset are read from it. The uplinks' clamp radii are the
    scheme records' ``clamp_radius_m`` and OBDA's inversion threshold is
    ``oac.TCI_THRESHOLD``.
    """

    wave: WaveformConfig
    power: PowerControlParams
    train: TrainConfig
    deployment: Deployment
    #: all local datasets end to end; device k holds rows bounds[k]:bounds[k+1]
    train_set: Dataset
    bounds: np.ndarray
    test_set: Dataset
    seed: int

    def __post_init__(self) -> None:
        if len(self.bounds) != self.deployment.num_eds + 1:
            raise ConfigError("one local dataset per device is required")
        # the spectral uplinks model delay plus timing offset as a circular
        # shift, which holds only while both stay inside the untapered part
        # of the cyclic prefix: its first window_rolloff samples are ramped
        tap = int(epa_tap_delays(self.wave).max())
        room = self.wave.cp_len - self.wave.window_rolloff
        if tap + self.train.max_sync_offset > room:
            raise InfeasibleError(
                f"largest EPA tap delay ({tap}) plus max_sync_offset "
                f"({self.train.max_sync_offset}) exceeds cp_len - window_rolloff ({room}), "
                "the untapered cyclic-prefix samples"
            )


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    train_loss: float
    test_accuracy: float
    per_ed_loss: tuple[float, ...]


@dataclass(frozen=True)
class TrainState:
    """The model between rounds: its weights and the hidden activations of
    the set-up's training set at those weights, from the forward pass that
    the round's losses were read from; the next round's gradients gather
    their batches' hidden rows from them."""

    weights: np.ndarray
    hidden: np.ndarray
    round_index: int = 0
    history: tuple[RoundRecord, ...] = field(default_factory=tuple)


def initial_state(setup: TrainSetup) -> TrainState:
    """Common starting point: the initial weights depend only on the seed,
    so different aggregation schemes start from the same model."""
    weights = init_params(setup.seed)
    return TrainState(weights=weights, hidden=hidden_layer(weights, setup.train_set.features))


def _collect_votes(state: TrainState, setup: TrainSetup) -> np.ndarray:
    rngs = keyed_rngs(setup.seed, "batch", state.round_index, count=setup.deployment.num_eds)
    grads = local_gradient(
        state.weights,
        state.hidden,
        setup.train_set,
        setup.bounds,
        setup.train.batch_size,
        rngs,
    )
    return sign_pm1(grads)


def _channel_responses(setup: TrainSetup, round_index: int) -> np.ndarray:
    """Each device's EPA channel and timing-offset response on the occupied
    bins this round, (devices x M): its keyed draws applied to the phase
    table of every admissible offset."""
    count = setup.deployment.num_eds
    channels = keyed_rngs(setup.seed, "channel", round_index, count=count)
    syncs = keyed_rngs(setup.seed, "sync", round_index, count=count)
    table = epa_phase_table(setup.wave, setup.train.max_sync_offset)
    return np.array(
        [
            table[draw_sync_offset(setup.train.max_sync_offset, sync)]
            @ draw_epa(setup.wave, channel).gains
            for channel, sync in zip(channels, syncs)
        ]
    )


def _receiver_noise(
    setup: TrainSetup,
    round_index: int,
    noise_power: float,
    shape: tuple[int, int],
    roll: int = 0,
) -> np.ndarray:
    """The round's complex white receiver noise of per-bin variance
    ``noise_power``: all real parts are drawn first, then all imaginary parts.
    The bins come rolled by ``roll`` along the last axis, as ``np.roll``
    would leave them, from the one scaled write of each part."""
    rng = keyed_rng(setup.seed, "noise", round_index)
    scale = math.sqrt(noise_power / 2.0)
    roll %= shape[-1]
    cut = shape[-1] - roll
    noise = np.empty(shape, dtype=complex)
    drawn = np.empty(shape)
    for part in (noise.real, noise.imag):
        rng.standard_normal(out=drawn)
        np.multiply(drawn[:, cut:], scale, out=part[:, :roll])
        np.multiply(drawn[:, :cut], scale, out=part[:, roll:])
    return noise


#: a run's aggregation: (round_index, sign votes (devices, PARAM_DIM)) ->
#: decision statistic (PARAM_DIM,), real, whose sign is the majority vote
Uplink = Callable[[int, np.ndarray], np.ndarray]


def scheme_uplink(
    setup: TrainSetup, scheme: str, noise_power: float, worker: Executor | None = None
) -> Uplink:
    """The aggregation a scheme token names, built once per run as a function
    ``(round_index, votes) -> statistic``: one real number per coordinate
    whose sign is the majority vote, taken by ``run_round``.  The statistic
    is the vote sum for a token without a transmit chain, else that of the
    uplink its ``config.Scheme`` record names, at receiver noise power
    ``noise_power``: the group-energy margin of the chirp energy detector,
    or the received I/Q component for OBDA.  Everything that does not
    change between rounds (vote plan, shaping, tone shifts, link amplitudes
    at the scheme's clamp radius) is computed here, so an unknown token
    raises ConfigError, and a vote count no guard carries exactly raises
    InfeasibleError, before any round runs.

    Given a ``worker``, each call before round ``setup.train.rounds - 1``
    hands the next round's vote-independent draws to it as soon as it has
    its own, before ``place_tones`` and the tone product, and the next call
    collects them if it is that round; any other call draws its own inline.
    Every draw is keyed, so the statistics do not depend on the worker."""
    record = scheme_record(scheme)
    if not record.transmits:
        return lambda round_index, votes: votes.sum(axis=0)
    wave = setup.wave
    links = link_power(setup.power, record.clamp_radius_m, setup.deployment.ed_distances)
    if not record.spread:
        amps = (np.sqrt(links) * math.sqrt(wave.idft_size / wave.num_bins))[:, None]

        def obda(round_index: int, votes: np.ndarray) -> np.ndarray:
            """Frequency-domain simulation of the QPSK/channel-inversion
            uplink: all devices' blocks encoded in one call, scaled by link
            amplitude and channel response, and summed.  Returns the received
            I/Q components, one per coordinate.  They equal those of the
            sample-level chain (a test-suite oracle) to rounding under the
            cyclic-prefix condition ``TrainSetup`` enforces."""
            responses = _channel_responses(setup, round_index)
            tx = encode_obda(votes, responses)
            tx *= (amps * responses)[:, None, :]
            received = tx.sum(axis=0)
            received += _receiver_noise(setup, round_index, noise_power, received.shape)
            return decode_obda(received, PARAM_DIM)

        return obda
    m = wave.num_bins
    plan = VotePlan(PARAM_DIM, m, record.votes_per_block)
    fdss = build_fdss(wave)
    # ``response[..., shifts[2u + s]]`` is ``response`` circularly shifted to
    # the bin of slot u's sign-s tone (+ first)
    shifts = (np.arange(m) - plan.tone_bins[:, None]) % m
    amps = (np.sqrt(links) * math.sqrt(wave.idft_size / plan.votes_per_block))[:, None]
    num_eds = setup.deployment.num_eds

    def draw(round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's draws that do not depend on the votes: every device's
        ``csc_phases`` and the scaled receiver noise, its bins folded back to
        DFT order (``ifftshift``) for ``despread_folded``."""
        rngs = keyed_rngs(setup.seed, "phase", round_index, count=num_eds)
        noise = _receiver_noise(setup, round_index, noise_power, (plan.num_blocks, m), -(m // 2))
        return csc_phases(PARAM_DIM, rngs), noise

    # at most one hand-off: (round_index, future of its draws)
    ahead: list[tuple[int, Future]] = []

    def csc_mv(round_index: int, votes: np.ndarray) -> np.ndarray:
        """Despread-domain simulation of the chirp majority-vote uplink.

        The receiver is linear up to energy detection, and a tone at bin b
        despreads to the bin-0 despread response circularly shifted by b.  So
        each device's bin-0 response -- its link amplitude times its channel
        and timing-offset response, shaped by ``fdss`` and passed through
        ``matched_despread`` -- is computed once per round, and the despread
        signal is one product of the devices' tones (``place_tones`` of the
        round's drawn ``csc_phases``) as a
        (blocks x 2V*devices) matrix with those responses shifted to each
        (slot, sign) tone bin.  Receiver noise is white across bins because
        the transforms are orthonormal; it goes through the matched despread
        too.  Returns ``detect_mv``'s margins, the energy of each
        coordinate's +1 group minus that of its -1 group.  They equal those
        of the sample-level chain (spread / propagate / superpose / despread,
        kept in the test suite as an oracle) to rounding while the largest
        tap delay plus the timing offset fits in the untapered part of the
        cyclic prefix, which ``TrainSetup`` enforces.
        """
        weights = amps * _channel_responses(setup, round_index) * fdss
        response = matched_despread(fdss, weights) / math.sqrt(m)
        # rows (slot, sign, device), as the columns of the tone matrix
        shifted = response[:, shifts].transpose(1, 0, 2).reshape(-1, m)
        if ahead and ahead[0][0] == round_index:
            phases, noise = ahead.pop()[1].result()
        else:
            if ahead:  # drawn for a round this call is not: discard it
                ahead.pop()[1].cancel()
            phases, noise = draw(round_index)
        if worker is not None and round_index + 1 < setup.train.rounds:
            ahead.append((round_index + 1, worker.submit(draw, round_index + 1)))
        despreads = place_tones(plan, votes, phases).reshape(plan.num_blocks, -1) @ shifted
        despreads += despread_folded(fdss, noise)
        return detect_mv(plan, despreads)

    return csc_mv


def run_round(state: TrainState, setup: TrainSetup, uplink: Uplink) -> TrainState:
    """One training round: local gradients, sign votes, aggregation over the
    run's ``uplink`` (see ``scheme_uplink``), then the shared model update.
    The majority vote is the sign of the uplink's statistic, taken here and
    nowhere else, with sign(0) = +1.  The recorded loss/accuracy describe
    the model after the update.  The round makes one forward pass over the
    training set, at the updated weights: the losses are read from it, and
    its hidden activations feed the next round's gradients."""
    votes = _collect_votes(state, setup)
    mv = sign_pm1(uplink(state.round_index, votes))
    weights = state.weights - setup.train.step_size * mv
    losses, hidden = mean_loss(weights, setup.train_set, setup.bounds)
    per_ed = tuple(losses.tolist())
    record = RoundRecord(
        round_index=state.round_index,
        train_loss=float(np.mean(per_ed)),
        test_accuracy=evaluate(weights, setup.test_set),
        per_ed_loss=per_ed,
    )
    return TrainState(
        weights=weights,
        hidden=hidden,
        round_index=state.round_index + 1,
        history=state.history + (record,),
    )


def run_training(setup: TrainSetup, scheme: str, snr_db: float) -> TrainState:
    """``setup.train.rounds`` rounds of ``scheme`` at ``snr_db`` from the
    seed's initial model, over one uplink built before the first round.

    ``snr_db`` need not come from ``setup.train``, so it passes the profile's
    SNR check first: a ConfigError before the first round, not a NaN noise
    power that turns every statistic NaN and so every vote -1.  The noise
    power is relative to the link power that power control delivers inside
    coverage: 10^(-snr_db/10).

    The chirp uplink gets a worker for its draws (see ``scheme_uplink``).
    Its one thread starts at the first hand-off, so OBDA and ideal runs
    start none, and it is joined before the run returns or raises.  While
    it exists, ``cpu_placement`` pins the calling thread to the first CPU
    of its affinity mask and the worker to another CPU of that mask, and
    the caller's mask is restored when the run returns or raises: a thread
    woken by a hand-off otherwise wakes on the CPU of the thread that woke
    it, and the draw then overlaps nothing.  On one CPU nothing is pinned,
    and the worker still beats drawing inline: the draws' buffers come
    from the worker thread's own malloc arena, which keeps them between
    rounds instead of returning them to the OS.
    """
    replace(setup.train, snr_db=(snr_db,))
    with cpu_placement() as pin, ThreadPoolExecutor(1, initializer=pin) as worker:
        uplink = scheme_uplink(setup, scheme, 10.0 ** (-snr_db / 10.0), worker)
        state = initial_state(setup)
        for _ in range(setup.train.rounds):
            state = run_round(state, setup, uplink)
    return state


def loss_by_distance(state: TrainState, setup: TrainSetup) -> tuple[np.ndarray, np.ndarray]:
    """Per-device training loss after the last round against device distance."""
    return setup.deployment.ed_distances.copy(), np.array(state.history[-1].per_ed_loss)


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the expected-gradient-norm guarantee for majority-vote
    sign descent with an error-free vote channel."""

    smoothness: np.ndarray  # per-coordinate smoothness constants (q,)
    grad_noise_scale: np.ndarray  # per-coordinate gradient-noise scale (q,)
    initial_gap: float  # F(w_0) - F*
    step_scale: float  # gamma in the step-size schedule
    num_workers: int
    detection_snr: float  # xi, quality of the vote channel
    num_rounds: int

    def __post_init__(self) -> None:
        require_field_types(self)
        for name in ("smoothness", "grad_noise_scale"):
            values = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(values) & (values >= 0)):
                raise ConfigError(f"{name} must hold finite non-negative numbers")
            object.__setattr__(self, name, values)
        if self.num_rounds < 1:
            raise ConfigError("num_rounds must be positive")
        if self.num_workers < 1:
            raise ConfigError("num_workers must be positive")
        if self.detection_snr <= 0:
            raise ConfigError("detection_snr must be positive")
        if self.step_scale <= 0:
            raise ConfigError("step_scale must be positive")
        if self.initial_gap < 0:
            raise ConfigError("initial_gap must be non-negative")


def convergence_bound(p: BoundParams) -> float:
    """Upper bound on the average L1 gradient norm after ``num_rounds`` rounds.

    Decreases like 1/sqrt(num_rounds); looser for noisier gradients, tighter
    for more workers or a cleaner vote channel.
    """
    l1_smooth = float(np.sum(p.smoothness))
    l1_noise = float(np.sum(p.grad_noise_scale))
    a = (1.0 + 2.0 / (p.detection_snr * p.num_workers)) / math.sqrt(p.step_scale)
    drift = a * math.sqrt(l1_smooth) * (p.initial_gap + p.step_scale / 2.0)
    noise = (2.0 * math.sqrt(2.0 * p.step_scale) / 3.0) * l1_noise
    bound = (drift + noise) / math.sqrt(p.num_rounds)
    if not math.isfinite(bound):
        raise ConfigError("the bound overflows: the inputs are too extreme to give a finite value")
    return bound
