import itertools
import math

import numpy as np
import pytest

from chirpvote._rng import keyed_rng
from chirpvote.channel import draw_epa, propagate
from chirpvote.errors import FramingError, InfeasibleError
from chirpvote.oac import (
    VotePlan,
    csc_phases,
    decode_obda,
    detect_mv,
    encode_csc,
    encode_obda,
    group_energies,
    obda_blocks_needed,
    place_tones,
    random_csc_traffic,
    random_qpsk,
    sign_pm1,
)
from chirpvote.waveform import WaveformConfig, build_fdss, despread, spread

CFG = WaveformConfig()
M = CFG.num_bins


class TestArithmetic:
    def test_sign_convention(self):
        np.testing.assert_array_equal(sign_pm1(np.array([-2.0, 0.0, 3.0])), [-1, 1, 1])

    def test_sign_special_values_and_dtype(self):
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        signs = sign_pm1(x)
        assert signs.dtype == np.asarray(1).dtype
        np.testing.assert_array_equal(signs, [1, 1, -1, 1, -1])
        assert sign_pm1(np.zeros((20, 3))).dtype == signs.dtype

    def test_sign_matches_where_form(self):
        # the (devices, PARAM_DIM) votes a training round takes the sign of
        x = keyed_rng(0, "oac-sign").standard_normal((20, 2410))
        x.flat[:7] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]
        for values in (x, np.rint(x[np.isfinite(x)] * 3).astype(int)):
            signs = sign_pm1(values)
            expected = np.where(values >= 0, 1, -1)
            assert signs.dtype == expected.dtype
            assert np.array_equal(signs, expected)

    @pytest.mark.parametrize("num_bins", [7, 30, 54, 64])
    def test_vote_plan_properties(self, num_bins):
        # every vote count up to M / 2: the widest guard carrying exactly V
        # pairs, or InfeasibleError where no guard does
        q = 100
        for v in range(1, num_bins // 2 + 1):
            exact = [g for g in range(num_bins) if num_bins // (2 + 2 * g) == v]
            if not exact:
                with pytest.raises(InfeasibleError, match=f"exactly {v} vote pairs"):
                    VotePlan(q, num_bins, v)
                continue
            plan = VotePlan(q, num_bins, v)
            assert plan.guard_bins == max(exact)
            assert plan.num_blocks == math.ceil(q / v)
            u, s = np.divmod(np.arange(2 * v), 2)
            assert np.array_equal(plan.tone_bins, (2 * u + s) * (1 + plan.guard_bins))

    @pytest.mark.parametrize("votes,guard", [(1, 26), (2, 12), (4, 5)])
    def test_guard_presets(self, votes, guard):
        assert VotePlan(1, M, votes).guard_bins == guard

    def test_guard_roundtrip_feasible_range(self):
        # each plan's guard carries back its vote count, and one bin wider
        # carries fewer pairs
        feasible = 0
        for v in range(1, M // 2 + 1):
            try:
                plan = VotePlan(1, M, v)
            except InfeasibleError:
                continue
            feasible += 1
            assert M // (2 * plan.group_width) == v
            assert M // (2 * (plan.group_width + 1)) < v
        assert feasible == 9

    def test_guard_infeasible(self):
        for votes in (-1, 0, M // 2 + 1):
            with pytest.raises(InfeasibleError, match=f"cannot fit {votes} vote pairs"):
                VotePlan(10, M, votes)

    def test_block_counts_for_large_models(self):
        assert VotePlan(123_090, M, 2).num_blocks == 61_545
        assert VotePlan(123_090, M, 4).num_blocks == 30_773
        assert VotePlan(5, M, 2).num_blocks == 3
        assert obda_blocks_needed(123_090, M) == 1140
        assert obda_blocks_needed(2410, M) == 23

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            VotePlan(0, M, 2)


class TestResourceMap:
    def test_bins_disjoint_within_block(self):
        plan = VotePlan(8, M, 2)
        used = plan.tone_bins.tolist()
        assert len(used) == 2 * plan.votes_per_block
        assert len(set(used)) == len(used)
        assert all(0 <= b < M for b in used)

    def test_groups_do_not_overlap(self):
        plan = VotePlan(4, M, 4)
        starts = sorted(plan.tone_bins.tolist())
        assert all(b - a >= plan.group_width for a, b in zip(starts, starts[1:]))

    def test_block_and_slot_indexing(self):
        plan = VotePlan(10, M, 2)  # 2 votes per block
        votes = sign_pm1(keyed_rng(0, "oac-index").standard_normal((1, 10)))
        tones = place_tones(plan, votes, csc_phases(plan.grad_dim, [keyed_rng(1, "oac-index")]))
        # one tone per gradient i: block i // 2, slot i % 2, sign (+ first), device 0
        blocks, slots, signs, devices = np.nonzero(tones)
        np.testing.assert_array_equal(blocks, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
        np.testing.assert_array_equal(slots, [0, 1] * 5)
        np.testing.assert_array_equal(signs, (votes[0] < 0).astype(int))
        np.testing.assert_array_equal(devices, 0)

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("votes_per_block", [1, 2, 4])
    def test_stacked_tones_match_one_device_encodes(self, votes_per_block):
        # 3V + 1 gradients: the last block is padded whenever V > 1
        plan = VotePlan(3 * votes_per_block + 1, M, votes_per_block)
        k = 5
        votes = sign_pm1(keyed_rng(2, "oac-stack").standard_normal((k, plan.grad_dim)))
        rngs = [keyed_rng(3, "oac-stack", d) for d in range(k)]
        tones = place_tones(plan, votes, csc_phases(plan.grad_dim, rngs))
        assert tones.shape == (plan.num_blocks, votes_per_block, 2, k)
        scattered = np.zeros((k, plan.num_blocks, M), dtype=complex)
        scattered[:, :, plan.tone_bins] = np.moveaxis(tones, -1, 0).reshape(k, plan.num_blocks, -1)
        for d in range(k):
            one = encode_csc(plan, votes[d], keyed_rng(3, "oac-stack", d))
            assert np.array_equal(scattered[d], one)


    @staticmethod
    def two_copyto_tones(plan, votes, phases):
        """The scatter by two masked copies, one per sign."""
        tones = np.zeros((plan.num_blocks, plan.votes_per_block, 2, len(votes)), dtype=complex)
        slots = tones.reshape(-1, 2, len(votes))[: plan.grad_dim]
        positive = votes.T > 0
        np.copyto(slots[:, 0], phases, where=positive)
        np.copyto(slots[:, 1], phases, where=~positive)
        return tones

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("votes_per_block", [1, 2, 4])
    @pytest.mark.parametrize("extra", [0, 1], ids=["whole-blocks", "one-more-vote"])
    def test_scatter_matches_two_copyto_form(self, votes_per_block, extra):
        plan = VotePlan(5 * votes_per_block + extra, M, votes_per_block)
        k = 7
        rngs = [keyed_rng(4, "oac-scatter", d) for d in range(k)]
        votes = sign_pm1(keyed_rng(5, "oac-scatter").standard_normal((k, plan.grad_dim)))
        phases = csc_phases(plan.grad_dim, rngs)
        expected = self.two_copyto_tones(plan, votes, phases)
        assert place_tones(plan, votes, phases).tobytes() == expected.tobytes()

    def test_phases_must_match_the_votes(self):
        plan = VotePlan(6, M, 2)
        phases = csc_phases(6, [keyed_rng(0, "x", d) for d in range(3)])
        with pytest.raises(FramingError):
            place_tones(plan, np.ones((2, 6), dtype=int), phases)


class TestEncodeDetect:
    @pytest.mark.parametrize("votes", [1, 2, 4])
    def test_noiseless_roundtrip_exact(self, votes):
        plan = VotePlan(6 * votes + 1, M, votes)
        rng = keyed_rng(0, "oac-roundtrip", votes)
        v = sign_pm1(rng.standard_normal(plan.grad_dim))
        blocks = encode_csc(plan, v, rng)
        margins = detect_mv(plan, blocks)
        np.testing.assert_array_equal(sign_pm1(margins), v)
        # signed energy margin (own group minus opposite group) follows the vote
        assert np.all(margins * v > 0.0)

    def test_encode_shape_and_unit_amplitude(self):
        plan = VotePlan(7, M, 2)
        rng = keyed_rng(1, "oac-amp")
        blocks = encode_csc(plan, np.ones(7, dtype=int), rng)
        assert blocks.shape == (plan.num_blocks, M)
        mags = np.abs(blocks[np.abs(blocks) > 0])
        np.testing.assert_allclose(mags, 1.0, atol=1e-12)
        # one active bin per encoded vote
        assert int(np.sum(np.abs(blocks) > 0)) == 7

    def test_margins_scale_quadratically(self):
        plan = VotePlan(8, M, 4)
        rng = keyed_rng(2, "oac-scale")
        v = sign_pm1(rng.standard_normal(8))
        blocks = encode_csc(plan, v, rng)
        base = detect_mv(plan, blocks)
        scaled = detect_mv(plan, 3.0 * blocks)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_group_energy_shape_check(self):
        plan = VotePlan(4, M, 2)
        with pytest.raises(FramingError):
            group_energies(plan, np.zeros((plan.num_blocks, M + 1), dtype=complex))

    def test_vote_length_check(self):
        plan = VotePlan(4, M, 2)
        with pytest.raises(ValueError):
            encode_csc(plan, np.ones(5, dtype=int), keyed_rng(0, "x"))
        with pytest.raises(FramingError):
            place_tones(plan, np.ones((2, 5), dtype=int), csc_phases(5, [keyed_rng(0, "x")] * 2))


class TestMultiDeviceMargins:
    """Brute-force oracle: with unit flat channels, the expected energy margin
    of a vote group equals the vote-count difference (cross terms average out
    over the devices' independent random phases)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_expected_margin_matches_vote_count(self, k):
        n_draws = 3000
        # draw t's device j is vote t * k + j of one long encode, so the
        # phases come off the generator in the order of a loop over draws
        # and devices; one block per vote, summed over the k devices
        draws = VotePlan(k * n_draws, M, 1)
        plan = VotePlan(n_draws, M, 1)
        rng = keyed_rng(7, "margin-oracle", k)
        for pattern in itertools.product((-1, 1), repeat=k):
            blocks = encode_csc(draws, np.tile(pattern, n_draws), rng)
            total = blocks.reshape(n_draws, k, M).sum(axis=1)
            margins = detect_mv(plan, total)
            mean = margins.mean()
            se = margins.std(ddof=1) / np.sqrt(n_draws)
            expected = sum(pattern)
            if expected == 0:
                assert abs(mean) <= 4.0 * se
            else:
                assert np.sign(mean) == np.sign(expected)
                assert abs(mean - expected) <= 4.0 * se


class TestGuardIsolation:
    def test_dispersive_channel_energy_stays_in_group(self):
        # with guards sized for the delay spread, the energy that a vote
        # leaks into other groups stays an order of magnitude down
        plan = VotePlan(2, M, 2)
        fdss = build_fdss(CFG)
        rng = keyed_rng(3, "guard-iso")
        own = 0.0
        foreign = 0.0
        for _ in range(200):
            votes = sign_pm1(rng.standard_normal(2))
            blocks = encode_csc(plan, votes, rng)
            real = draw_epa(CFG, rng)
            offset = int(rng.integers(0, 5))
            rx = propagate(real, offset, spread(CFG, fdss, blocks[0]))
            post = despread(CFG, fdss, rx)
            energy = group_energies(plan, post[None, :])[0]
            chosen = np.zeros(2 * plan.votes_per_block, dtype=bool)
            for i, v in enumerate(votes):
                chosen[2 * i + (0 if v > 0 else 1)] = True
            own += float(energy[chosen].sum())
            foreign += float(energy[~chosen].sum())
        assert own / foreign > 10.0


class TestTraffic:
    def test_random_csc_traffic_shape_and_occupancy(self):
        rng = keyed_rng(0, "traffic")
        bins = random_csc_traffic(M, 2, 40, rng)
        assert bins.shape == (40, M)
        active = np.sum(np.abs(bins) > 0, axis=1)
        np.testing.assert_array_equal(active, 2 * np.ones(40))

    def test_random_qpsk_constellation(self):
        rng = keyed_rng(1, "traffic")
        q = random_qpsk(M, 25, rng)
        assert q.shape == (25, M)
        np.testing.assert_allclose(np.abs(q), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(q.real), np.abs(q.imag), atol=1e-12)


class TestObda:
    def test_flat_channel_roundtrip(self):
        rng = keyed_rng(0, "obda")
        q = 2410
        votes = sign_pm1(rng.standard_normal(q))
        h = np.ones(M, dtype=complex)
        tx = encode_obda(votes, h)
        assert tx.shape == (obda_blocks_needed(q, M), M)
        out = decode_obda(tx, q)
        # the received components themselves, read in place
        assert out.dtype == float and np.shares_memory(out, tx)
        np.testing.assert_array_equal(sign_pm1(out), votes)

    def test_faded_channel_inverted_before_aggregation(self):
        rng = keyed_rng(1, "obda")
        votes = sign_pm1(rng.standard_normal(108))
        h = 0.5 * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
        h[np.abs(h) < 0.25] += 0.5  # keep all bins above the truncation cut
        tx = encode_obda(votes, h)
        out = decode_obda(h * tx, 108)
        np.testing.assert_array_equal(sign_pm1(out), votes)

    def test_truncation_skips_deep_fades(self):
        votes = np.ones(108, dtype=int)
        h = np.ones(M, dtype=complex)
        h[7] = 1e-6  # far below TCI_THRESHOLD * rms(|h|)
        tx = encode_obda(votes, h)
        np.testing.assert_allclose(tx[:, 7], 0.0)
        assert np.all(np.abs(tx[:, 8]) > 0)

    def test_per_block_power_renormalized(self):
        rng = keyed_rng(2, "obda")
        votes = sign_pm1(rng.standard_normal(2 * M * 3))
        h = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        tx = encode_obda(votes, h)
        powers = np.sum(np.abs(tx) ** 2, axis=1)
        np.testing.assert_allclose(powers, M, rtol=1e-9)

    def test_decode_needs_enough_blocks(self):
        with pytest.raises(FramingError):
            decode_obda(np.zeros((1, M), dtype=complex), 2410)

    def test_tail_padding_ignored(self):
        rng = keyed_rng(3, "obda")
        q = 100  # not a multiple of 2M
        votes = sign_pm1(rng.standard_normal(q))
        tx = encode_obda(votes, np.ones(M, dtype=complex))
        out = decode_obda(tx, q)
        assert out.shape == (q,)
        np.testing.assert_array_equal(sign_pm1(out), votes)

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("q", [100, 2410])  # neither is a multiple of 2M
    def test_stacked_encode_matches_one_device_calls(self, q):
        rng = keyed_rng(4, "obda")
        k = 6
        votes = sign_pm1(rng.standard_normal((k, q)))
        h = rng.standard_normal((k, M)) + 1j * rng.standard_normal((k, M))
        h[[0, 3], [7, 30]] = 1e-6  # far below threshold * rms
        h[5, :10] = 1e-7
        tx = encode_obda(votes, h)
        assert tx.shape == (k, obda_blocks_needed(q, M), M)
        assert np.all(tx[[0, 3], :, [7, 30]] == 0) and np.all(tx[5, :, :10] == 0)
        for row in range(k):
            assert np.array_equal(tx[row], encode_obda(votes[row], h[row]))
