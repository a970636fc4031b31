"""Tests for score handling, length regulation, and the variational front."""

import math

import numpy as np
import pytest
from netgen import rand_posterior_weights

from chunkvox.acoustic import (
    GaussianParams,
    LossReport,
    PosteriorConfig,
    PosteriorEncoder,
    ScoreSequence,
    acoustic_channels,
    am_losses,
    kl_gaussian,
    length_regulate,
    parse_score,
    sample_latent,
)
from chunkvox.errors import ConfigError, DomainError, FormatError, ShapeError

F32 = np.float32


class TestScoreParsing:
    def test_pitched_score(self):
        text = "10\t69\t4\n11\t72\t6\n"
        score = parse_score(text)
        assert score.phonemes == (10, 11)
        assert score.notes == (69, 72)
        assert score.durations == (4, 6)
        assert score.total_frames == 10

    def test_unpitched_score_uses_dash(self):
        score = parse_score("3\t-\t5\n4\t-\t2\n")
        assert score.notes is None
        assert score.total_frames == 7

    def test_comments_and_blank_lines_skipped(self):
        score = parse_score("# header\n\n1\t60\t3\n")
        assert score.phonemes == (1,)

    def test_mixed_pitch_rows_rejected(self):
        with pytest.raises(FormatError):
            parse_score("1\t60\t3\n2\t-\t4\n")

    def test_bad_field_count_rejected(self):
        with pytest.raises(FormatError):
            parse_score("1\t60\n")

    def test_non_integer_rejected(self):
        with pytest.raises(FormatError):
            parse_score("a\t60\t3\n")
        with pytest.raises(FormatError):
            parse_score("1\tx\t3\n")

    def test_empty_score_rejected(self):
        with pytest.raises(FormatError):
            parse_score("# nothing\n")

    def test_zero_total_duration_rejected(self):
        with pytest.raises(FormatError):
            parse_score("1\t60\t0\n2\t61\t0\n")

    def test_negative_duration_rejected(self):
        with pytest.raises(FormatError):
            ScoreSequence(phonemes=(1,), notes=(60,), durations=(-1,))


class TestLengthRegulate:
    def test_repeats_rows_by_duration(self):
        vecs = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], dtype=F32)
        out = length_regulate(vecs, [2, 0, 3])
        np.testing.assert_array_equal(
            out, [[1, 1], [1, 1], [3, 3], [3, 3], [3, 3]]
        )

    def test_total_zero_rejected(self):
        with pytest.raises(DomainError):
            length_regulate(np.ones((2, 3), F32), [0, 0])

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ShapeError):
            length_regulate(np.ones((2, 3), F32), [1, 2, 3])

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            length_regulate(np.ones((2, 3), F32), [1, -1])


class TestLatentSampling:
    def test_zero_eps_returns_mean(self):
        params = GaussianParams(
            mu=np.array([[1.0, 2.0]], dtype=F32), sigma=np.array([[3.0, 4.0]], dtype=F32)
        )
        np.testing.assert_array_equal(sample_latent(params, np.zeros((1, 2), F32)), params.mu)

    def test_reparameterization_arithmetic(self):
        params = GaussianParams(
            mu=np.array([[1.0, -1.0]], dtype=F32), sigma=np.array([[2.0, 0.5]], dtype=F32)
        )
        eps = np.array([[1.0, -2.0]], dtype=F32)
        np.testing.assert_allclose(sample_latent(params, eps), [[3.0, -2.0]])

    def test_shape_mismatch_rejected(self):
        params = GaussianParams(mu=np.zeros((2, 3), F32), sigma=np.ones((2, 3), F32))
        with pytest.raises(ShapeError):
            sample_latent(params, np.zeros((3, 2), F32))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            GaussianParams(mu=np.zeros((1, 2), F32), sigma=np.array([[1.0, 0.0]], F32))


class TestKlGaussian:
    def g(self, mu, var):
        return GaussianParams(
            mu=np.full((1, 1), mu, dtype=F32),
            sigma=np.full((1, 1), math.sqrt(var), dtype=F32),
        )

    def test_unit_shift(self):
        # KL(N(1,1) || N(0,1)) = 1/2
        assert abs(kl_gaussian(self.g(1.0, 1.0), self.g(0.0, 1.0)) - 0.5) < 1e-9

    def test_variance_four(self):
        # KL(N(0,4) || N(0,1)) = 3/2 - ln 2
        want = 1.5 - math.log(2.0)
        assert abs(kl_gaussian(self.g(0.0, 4.0), self.g(0.0, 1.0)) - want) < 1e-9

    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(0)
        q = GaussianParams(
            mu=rng.normal(size=(5, 4)).astype(F32),
            sigma=np.exp(rng.normal(size=(5, 4))).astype(F32),
        )
        assert abs(kl_gaussian(q, q)) < 1e-7

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            q = GaussianParams(
                mu=rng.normal(size=(3, 6)).astype(F32),
                sigma=np.exp(rng.normal(size=(3, 6)) * 0.5).astype(F32),
            )
            p = GaussianParams(
                mu=rng.normal(size=(3, 6)).astype(F32),
                sigma=np.exp(rng.normal(size=(3, 6)) * 0.5).astype(F32),
            )
            assert kl_gaussian(q, p) >= -1e-9

    def test_averages_over_frames_sums_over_dims(self):
        # two frames, one with KL 0.5 per dim over 2 dims, one all zero
        q = GaussianParams(
            mu=np.array([[1.0, 1.0], [0.0, 0.0]], dtype=F32),
            sigma=np.ones((2, 2), dtype=F32),
        )
        p = GaussianParams(mu=np.zeros((2, 2), F32), sigma=np.ones((2, 2), F32))
        assert abs(kl_gaussian(q, p) - 0.5) < 1e-9

    def test_shape_mismatch_rejected(self):
        q = GaussianParams(mu=np.zeros((2, 2), F32), sigma=np.ones((2, 2), F32))
        p = GaussianParams(mu=np.zeros((3, 2), F32), sigma=np.ones((3, 2), F32))
        with pytest.raises(ShapeError):
            kl_gaussian(q, p)


class TestAmLosses:
    def test_hand_worked_values(self):
        l_f0, l_mcep, l_dur = am_losses(
            pred_f0=np.array([100.0, 200.0], F32),
            gt_f0=np.array([110.0, 190.0], F32),
            pred_mcep=np.array([[1.0, 2.0]], F32),
            gt_mcep=np.array([[0.0, 4.0]], F32),
            pred_logdur=np.log(np.array([5.0, 3.0])) .astype(F32),
            gt_dur=np.array([4.0, 2.0], F32),
        )
        assert abs(l_f0 - 10.0) < 1e-5
        assert abs(l_mcep - 1.5) < 1e-6
        assert abs(l_dur) < 1e-12  # log(gt + 1) == pred exactly

    def test_duration_loss_in_log_domain(self):
        _, _, l_dur = am_losses(
            pred_f0=np.zeros(1, F32),
            gt_f0=np.zeros(1, F32),
            pred_mcep=np.zeros((1, 1), F32),
            gt_mcep=np.zeros((1, 1), F32),
            pred_logdur=np.array([0.0], F32),
            gt_dur=np.array([math.e - 1.0], F32),
        )
        assert abs(l_dur - 1.0) < 1e-5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            am_losses(
                np.zeros(2, F32),
                np.zeros(3, F32),
                np.zeros((1, 1), F32),
                np.zeros((1, 1), F32),
                np.zeros(1, F32),
                np.zeros(1, F32),
            )


class TestLossReport:
    def test_identities_hold_by_construction(self):
        parts = LossReport(l_f0=0.1, l_mcep=0.2, l_dur=0.3, l_kl=0.4, l_recon=0.5)
        assert abs(parts.l_am - 0.6) < 1e-12
        assert abs(parts.total - 1.5) < 1e-12
        assert parts.total == parts.l_recon + parts.l_am + parts.l_kl

    def test_adversarial_terms_are_additive(self):
        parts = LossReport(
            l_f0=0.1, l_mcep=0.2, l_dur=0.3, l_kl=0.4, l_recon=0.5, l_adv_g=1.0, l_fm_g=2.0
        )
        assert abs(parts.total - 4.5) < 1e-12

    def test_negative_component_rejected(self):
        with pytest.raises(DomainError):
            LossReport(l_f0=-0.1, l_mcep=0.0, l_dur=0.0, l_kl=0.0, l_recon=0.0)


class TestAcousticChannels:
    def test_layout_and_pitch_compression(self):
        mcep = np.arange(6, dtype=F32).reshape(3, 2)
        f0 = np.array([0.0, 100.0, 200.0], F32)
        feats = acoustic_channels(mcep, f0)
        assert feats.shape == (3, 3)
        np.testing.assert_array_equal(feats[:2], mcep.T)
        np.testing.assert_allclose(feats[2], np.log1p(f0), rtol=1e-6)

    def test_negative_f0_rejected(self):
        with pytest.raises(DomainError):
            acoustic_channels(np.zeros((1, 2), F32), np.array([-1.0], F32))


class TestPosteriorEncoder:
    CFG = PosteriorConfig(mcep_dim=6, hidden_channels=8, num_layers=2, kernel_size=3, latent_dim=4)

    def rand_feats(self, rng, t):
        return rng.normal(size=(self.CFG.in_channels, t)).astype(F32)

    def test_zero_head_weights_give_bias_gaussian(self):
        rng = np.random.default_rng(2)
        w = rand_posterior_weights(rng, self.CFG)
        w.out_w = np.zeros_like(w.out_w)
        w.out_b = np.concatenate(
            [np.full(4, 2.0, dtype=F32), np.full(4, math.log(3.0), dtype=F32)]
        )
        enc = PosteriorEncoder(self.CFG, w, causal=True)
        params = enc.encode(self.rand_feats(rng, 5))
        np.testing.assert_allclose(params.mu, 2.0, atol=1e-6)
        np.testing.assert_allclose(params.sigma, 3.0, atol=1e-5)

    def test_sigma_is_exp_of_head(self):
        rng = np.random.default_rng(3)
        w = rand_posterior_weights(rng, self.CFG)
        enc = PosteriorEncoder(self.CFG, w, causal=True)
        params = enc.encode(self.rand_feats(rng, 7))
        assert params.mu.shape == (7, 4)
        assert np.all(params.sigma > 0)

    def test_causal_streaming_matches_offline(self):
        rng = np.random.default_rng(4)
        w = rand_posterior_weights(rng, self.CFG)
        enc = PosteriorEncoder(self.CFG, w, causal=True)
        feats = self.rand_feats(rng, 24)
        want = enc.encode(feats)
        states = enc.create_state()
        mus, sigmas = [], []
        pos = 0
        for n in (5, 1, 0, 9, 9):
            states, params = enc.encode_step(states, feats[:, pos : pos + n])
            mus.append(params.mu)
            sigmas.append(params.sigma)
            pos += n
        np.testing.assert_allclose(np.concatenate(mus, axis=0), want.mu, atol=1e-6)
        np.testing.assert_allclose(np.concatenate(sigmas, axis=0), want.sigma, atol=1e-6)

    def test_causal_output_ignores_future_frames(self):
        rng = np.random.default_rng(5)
        w = rand_posterior_weights(rng, self.CFG)
        enc = PosteriorEncoder(self.CFG, w, causal=True)
        feats = self.rand_feats(rng, 12)
        base = enc.encode(feats)
        feats2 = feats.copy()
        feats2[:, 8] += 1.0
        other = enc.encode(feats2)
        np.testing.assert_array_equal(base.mu[:8], other.mu[:8])

    def test_noncausal_output_sees_future_frames(self):
        rng = np.random.default_rng(6)
        w = rand_posterior_weights(rng, self.CFG)
        enc = PosteriorEncoder(self.CFG, w, causal=False)
        feats = self.rand_feats(rng, 12)
        base = enc.encode(feats)
        feats2 = feats.copy()
        feats2[:, 8] += 1.0
        other = enc.encode(feats2)
        assert not np.array_equal(base.mu[7], other.mu[7])

    def test_streaming_requires_causal_mode(self):
        rng = np.random.default_rng(7)
        w = rand_posterior_weights(rng, self.CFG)
        enc = PosteriorEncoder(self.CFG, w, causal=False)
        with pytest.raises(ConfigError):
            enc.create_state()

    def test_bad_weight_shapes_enumerated(self):
        rng = np.random.default_rng(8)
        w = rand_posterior_weights(rng, self.CFG)
        w.out_b = np.zeros(3, F32)
        with pytest.raises(ConfigError) as err:
            PosteriorEncoder(self.CFG, w, causal=True)
        assert "head bias" in str(err.value)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            PosteriorConfig(kernel_size=4)
