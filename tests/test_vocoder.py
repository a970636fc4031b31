"""Tests for the causal upsampling waveform generator."""

import numpy as np
import pytest
from netgen import random_chunking

from chunkvox.errors import ConfigError, ShapeError
from chunkvox.vocoder import Generator, GeneratorConfig, generator_tensor_shapes

F32 = np.float32

SMALL = GeneratorConfig(
    latent_dim=8,
    base_channels=16,
    upsample_strides=(4, 2),
    resblock_kernel_sizes=(3,),
    resblock_dilations=((1, 3),),
    io_kernel=7,
)


def rand_tensors(rng, cfg):
    return {
        name: rng.uniform(-0.1, 0.1, size=shape).astype(F32)
        for name, shape in generator_tensor_shapes(cfg).items()
    }


def rand_latents(rng, cfg, frames):
    return rng.normal(size=(cfg.latent_dim, frames)).astype(F32)


class TestGeneratorConfig:
    def test_hop_is_stride_product(self):
        assert GeneratorConfig().hop == 8 * 8 * 4 * 2 == 512
        assert GeneratorConfig(upsample_strides=(8, 8, 2, 2)).hop == 256
        assert SMALL.hop == 8

    def test_default_kernels_are_double_strides(self):
        assert GeneratorConfig().kernels() == (16, 16, 8, 4)

    def test_channel_halving(self):
        cfg = GeneratorConfig()
        assert [cfg.stage_channels(i) for i in range(5)] == [64, 32, 16, 8, 4]

    def test_kernel_below_stride_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(upsample_strides=(4, 2), upsample_kernels=(3, 4))

    def test_indivisible_base_channels_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(base_channels=24, upsample_strides=(8, 8, 4, 2))

    def test_mismatched_resblock_lists_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(resblock_kernel_sizes=(3, 5), resblock_dilations=((1, 3),))


class TestBuild:
    def test_missing_and_mismatched_tensors_enumerated(self):
        rng = np.random.default_rng(0)
        tensors = rand_tensors(rng, SMALL)
        del tensors["generator.post.bias"]
        tensors["generator.pre.weight"] = np.zeros((1, 1, 1), F32)
        with pytest.raises(ConfigError) as err:
            Generator(SMALL, tensors)
        msg = str(err.value)
        assert "generator.post.bias" in msg and "generator.pre.weight" in msg

    def test_bad_pad_mode_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigError):
            Generator(SMALL, rand_tensors(rng, SMALL), pad_mode="natural")


class TestSampleCountLaw:
    def test_every_frame_count_yields_exactly_hop_samples_each(self):
        rng = np.random.default_rng(2)
        gen = Generator(SMALL, rand_tensors(rng, SMALL))
        for frames in range(1, 25):
            wav = gen.offline(rand_latents(rng, SMALL, frames))
            assert wav.shape == (frames * SMALL.hop,)

    def test_zero_frames_zero_samples(self):
        rng = np.random.default_rng(3)
        gen = Generator(SMALL, rand_tensors(rng, SMALL))
        assert gen.offline(rand_latents(rng, SMALL, 0)).shape == (0,)

    def test_full_scale_hop_512(self):
        rng = np.random.default_rng(4)
        cfg = GeneratorConfig(latent_dim=16, base_channels=16, upsample_strides=(8, 8, 4, 2))
        gen = Generator(cfg, rand_tensors(rng, cfg))
        wav = gen.offline(rand_latents(rng, cfg, 3))
        assert wav.shape == (3 * 512,)


class TestStreaming:
    def test_stream_matches_offline_over_random_chunkings(self):
        rng = np.random.default_rng(5)
        for pad_mode in ("replicate", "constant"):
            gen = Generator(SMALL, rand_tensors(rng, SMALL), pad_mode=pad_mode)
            for _ in range(8):
                frames = int(rng.integers(1, 40))
                z = rand_latents(rng, SMALL, frames)
                want = gen.offline(z)
                for sizes in (random_chunking(rng, frames), [frames]):
                    state = gen.create_state()
                    parts = []
                    pos = 0
                    for n in sizes:
                        state, wav = gen.stream(state, z[:, pos : pos + n])
                        assert wav.shape == (n * SMALL.hop,)
                        parts.append(wav)
                        pos += n
                    np.testing.assert_allclose(np.concatenate(parts), want, atol=2e-5)

    def test_state_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        gen = Generator(SMALL, rand_tensors(rng, SMALL))
        cfg2 = GeneratorConfig(
            latent_dim=8,
            base_channels=16,
            upsample_strides=(4, 2),
            resblock_kernel_sizes=(3,),
            resblock_dilations=((1,),),
        )
        other = Generator(cfg2, rand_tensors(rng, cfg2))
        with pytest.raises(ShapeError):
            gen.stream(other.create_state(), rand_latents(rng, SMALL, 2))


class TestCausality:
    def test_sample_level_causality_is_bitwise(self):
        """Perturbing latent frame t cannot change any sample before t * hop."""
        rng = np.random.default_rng(8)
        gen = Generator(SMALL, rand_tensors(rng, SMALL))
        z = rand_latents(rng, SMALL, 20)
        base = gen.offline(z)
        for t in (1, 7, 19):
            z2 = z.copy()
            z2[:, t] += 1.0
            other = gen.offline(z2)
            assert np.array_equal(base[: t * SMALL.hop], other[: t * SMALL.hop])

    def test_pad_modes_agree_after_warmup(self):
        """Replicate and constant starts differ only within the receptive
        field of the first frame."""
        rng = np.random.default_rng(9)
        tensors = rand_tensors(rng, SMALL)
        gen_r = Generator(SMALL, tensors, pad_mode="replicate")
        gen_c = Generator(SMALL, tensors, pad_mode="constant")
        z = rand_latents(rng, SMALL, 60)
        a = gen_r.offline(z)
        b = gen_c.offline(z)
        assert not np.allclose(a[: 5 * SMALL.hop], b[: 5 * SMALL.hop])
        np.testing.assert_allclose(a[-10 * SMALL.hop :], b[-10 * SMALL.hop :], atol=1e-6)


class TestOutputRange:
    def test_samples_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(10)
        gen = Generator(SMALL, rand_tensors(rng, SMALL))
        wav = gen.offline(rand_latents(rng, SMALL, 30) * 10.0)
        assert np.all(wav > -1.0) and np.all(wav < 1.0)

    def test_bad_latent_shape_rejected(self):
        rng = np.random.default_rng(11)
        gen = Generator(SMALL, rand_tensors(rng, SMALL))
        with pytest.raises(ShapeError):
            gen.offline(np.zeros((SMALL.latent_dim + 1, 4), F32))
