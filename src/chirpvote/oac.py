"""Over-the-air computation layer: vote placement, energy detection, and the
one-bit digital-aggregation (OBDA) baseline.

A gradient sign is carried by activating exactly one of two guard-separated
bins (one chirp of a complementary pair); devices transmit simultaneously and
the server compares the aggregate energy of the two bin groups — no channel
knowledge needed, and any CP-admissible delay only smears energy within a
group. ``VotePlan.tone_bins`` places the tones that :func:`place_tones`
scatters from any number of devices' :func:`csc_phases`. OBDA instead maps
sign pairs to QPSK subcarriers with truncated channel inversion at each
device, and the server reads the I/Q components of the aggregated
subcarriers, whose signs are the votes.

Sign convention: sign(0) = +1 everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FramingError, InfeasibleError

#: OBDA's truncated channel inversion silences a subcarrier whose |h| is
#: below this fraction of the rms |h| over the band
TCI_THRESHOLD = 0.1


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, values in {+1, -1}; NaN gives -1."""
    return 2 * (np.asarray(x) >= 0) - 1


@dataclass(frozen=True)
class VotePlan:
    """Deterministic gradient-index -> (block, bin-pair) resource mapping.

    Gradient i (0-based) lands in block i // votes_per_block at within-block
    slot u = i % votes_per_block. Its sign-s chirp (s = 0 for +1, 1 for -1)
    occupies ``tone_bins[2u + s]`` = (2u + s)(1 + guard), the head of a group
    of 1 + guard bins reserved for delay smear. The guard is the widest that
    fits votes_per_block pairs, which must then be exactly that many: if it
    fits more, every narrower guard does too, so no guard carries exactly
    votes_per_block pairs and InfeasibleError is raised.
    """

    grad_dim: int
    num_bins: int
    votes_per_block: int

    def __post_init__(self) -> None:
        if self.grad_dim < 1:
            raise ValueError("grad_dim must be positive")
        votes, num_bins = self.votes_per_block, self.num_bins
        if votes < 1 or votes > num_bins // 2:
            raise InfeasibleError(f"cannot fit {votes} vote pairs in {num_bins} bins")
        fitted = num_bins // (2 * self.group_width)
        if fitted != votes:
            raise InfeasibleError(
                f"no guard width gives exactly {votes} vote pairs in {num_bins} bins "
                f"(the widest guard that fits them, {self.guard_bins}, gives {fitted})"
            )

    @property
    def guard_bins(self) -> int:
        return (self.num_bins // self.votes_per_block - 2) // 2

    @property
    def group_width(self) -> int:
        return 1 + self.guard_bins

    @property
    def num_blocks(self) -> int:
        return -(-self.grad_dim // self.votes_per_block)

    @property
    def tone_bins(self) -> np.ndarray:
        """Head bin of each group 2u + s, (2 * votes_per_block,), +1 first."""
        return np.arange(2 * self.votes_per_block) * self.group_width


def csc_phases(grad_dim: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The phases of a stack of devices, (grad_dim, devices): column k holds
    device k's fresh unit-circle phase per vote, drawn from ``rngs[k]``.
    They do not depend on the votes, so they can be drawn ahead of them."""
    uniforms = np.empty((len(rngs), grad_dim))
    for row, rng in zip(uniforms, rngs):
        rng.random(out=row)
    phases = 2j * np.pi * uniforms.T
    np.exp(phases, out=phases)
    return phases


def place_tones(plan: VotePlan, votes: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Tones of a stack of devices: votes (devices, grad_dim) and their
    :func:`csc_phases` -> (num_blocks, V, 2, devices).

    V is votes_per_block. Entry (b, u, s, k) holds device k's phase for
    gradient b * V + u if that vote has sign s (+1 first; a vote <= 0 is
    -1), else 0. Padding past grad_dim holds 0.
    """
    votes = np.asarray(votes)
    if votes.ndim != 2 or votes.shape[1] != plan.grad_dim:
        raise FramingError("votes must be (devices, grad_dim)")
    num_eds = votes.shape[0]
    if phases.shape != (plan.grad_dim, num_eds):
        raise FramingError(
            f"votes of {num_eds} devices need phases of shape {(plan.grad_dim, num_eds)}"
        )
    tones = np.zeros((plan.num_blocks, plan.votes_per_block, 2, num_eds), dtype=complex)
    # per gradient, the 2 * devices columns (sign, device): each phase goes
    # to its device's column of the sign it voted
    slots = tones.reshape(-1, 2 * num_eds)[: plan.grad_dim]
    columns = (votes.T <= 0) * num_eds + np.arange(num_eds)
    np.put_along_axis(slots, columns, phases, axis=1)
    return tones


def encode_csc(plan: VotePlan, votes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One device's tones, :func:`place_tones` of the phases it draws from
    ``rng``, on ``plan.tone_bins``: (num_blocks, num_bins) bins."""
    votes = np.asarray(votes)
    if votes.shape != (plan.grad_dim,):
        raise FramingError("vote vector length must equal grad_dim")
    blocks = np.zeros((plan.num_blocks, plan.num_bins), dtype=complex)
    tones = place_tones(plan, votes[None], csc_phases(plan.grad_dim, [rng]))
    blocks[:, plan.tone_bins] = tones.reshape(plan.num_blocks, -1)
    return blocks


def group_energies(plan: VotePlan, blocks: np.ndarray) -> np.ndarray:
    """Energy per (block, bin group): sums |.|^2 over each group of
    1+guard_bins consecutive bins. Returns (num_blocks, 2*votes_per_block)."""
    blocks = np.asarray(blocks)
    if blocks.shape != (plan.num_blocks, plan.num_bins):
        raise FramingError(
            f"expected {(plan.num_blocks, plan.num_bins)} received blocks, got {blocks.shape}"
        )
    groups = 2 * plan.votes_per_block
    used = groups * plan.group_width
    energy = np.abs(blocks[:, :used]) ** 2
    return energy.reshape(plan.num_blocks, groups, plan.group_width).sum(axis=-1)


def detect_mv(plan: VotePlan, blocks: np.ndarray) -> np.ndarray:
    """Non-coherent majority vote margins, (grad_dim,): the energy difference
    between each gradient's two bin groups, +1 group first; the vote is its
    ``sign_pm1``."""
    pos, neg = group_energies(plan, blocks).reshape(-1, 2)[: plan.grad_dim].T
    return pos - neg


def random_csc_traffic(
    num_bins: int, votes: int, n_symbols: int, rng: np.random.Generator
) -> np.ndarray:
    """Training-like traffic ensemble: i.i.d. equiprobable signs, fresh
    unit-circle symbols, widest guard for the vote count. (n_symbols, num_bins)."""
    plan = VotePlan(votes * n_symbols, num_bins, votes)
    signs = rng.integers(0, 2, votes * n_symbols) * 2 - 1
    return encode_csc(plan, signs, rng)


def random_qpsk(num_bins: int, n_symbols: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-power QPSK subcarrier loading. (n_symbols, num_bins)."""
    re = rng.integers(0, 2, (n_symbols, num_bins)) * 2 - 1
    im = rng.integers(0, 2, (n_symbols, num_bins)) * 2 - 1
    return (re + 1j * im) / np.sqrt(2.0)


def obda_blocks_needed(grad_dim: int, num_bins: int) -> int:
    """OFDM symbols per round for OBDA: two signs per subcarrier."""
    return -(-grad_dim // (2 * num_bins))


def encode_obda(votes: np.ndarray, channel_response: np.ndarray) -> np.ndarray:
    """QPSK + truncated channel inversion for one device, or for a stack.

    ``votes`` (..., q) and ``channel_response`` (..., M) give the transmit
    blocks (..., blocks, M). Consecutive sign pairs load I and Q of one
    subcarrier. Each subcarrier is precoded by conj(h)/|h|^2 when |h| clears
    TCI_THRESHOLD * rms(|h|) and silenced otherwise; each symbol is then
    renormalized to the nominal per-symbol power budget (sum |x|^2 = M).
    """
    votes = np.asarray(votes)
    h = np.asarray(channel_response)
    lead, q, num_bins = votes.shape[:-1], votes.shape[-1], h.shape[-1]
    n_blocks = obda_blocks_needed(q, num_bins)
    x = np.zeros(lead + (n_blocks, num_bins), dtype=complex)
    # the float view interleaves I and Q, so sign 2i lands on I of subcarrier i
    x.reshape(lead + (-1,)).view(float)[..., :q] = votes
    x /= np.sqrt(2.0)

    mag = np.abs(h)
    usable = mag >= TCI_THRESHOLD * np.sqrt(np.mean(mag**2, axis=-1, keepdims=True))
    inv = np.zeros_like(h)
    inv[usable] = np.conj(h[usable]) / mag[usable] ** 2
    # in place: a stack of devices makes these the largest arrays of a round
    x *= inv[..., None, :]
    power = np.sum(np.abs(x) ** 2, axis=-1, keepdims=True)
    x *= np.sqrt(np.where(power > 0, num_bins / np.maximum(power, 1e-300), 0.0))
    return x


def decode_obda(received: np.ndarray, grad_dim: int) -> np.ndarray:
    """The first ``grad_dim`` I/Q components of the aggregated subcarriers,
    I and Q of each subcarrier in turn, as floats: a view of ``received``
    when it is a contiguous complex array.  Their signs are the votes."""
    components = np.ascontiguousarray(received, dtype=complex).reshape(-1).view(float)
    if grad_dim > components.size:
        raise FramingError("received blocks carry fewer signs than grad_dim")
    return components[:grad_dim]
