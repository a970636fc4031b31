"""Weight container, config schema, and bundle assembly tests."""

from pathlib import Path

import numpy as np
import pytest

from chunkvox.decoder import ChunkConfig
from chunkvox.dsp import MelConfig
from chunkvox.errors import ConfigError, FormatError
from chunkvox.modelio import (
    FrontendConfig,
    ModeFlags,
    ModelConfig,
    build_bundle,
    config_from_json,
    config_to_json,
    default_config,
    load_config,
    load_model,
    load_weights,
    make_random_model,
    make_random_tensors,
    probe_tensors,
    save_config,
    save_weights,
    tensor_manifest,
)
from chunkvox.acoustic import PosteriorConfig
from chunkvox.vocoder import GeneratorConfig


def tiny_config(**overrides):
    base = dict(
        flags=ModeFlags(),
        frontend=FrontendConfig(phoneme_vocab=80, note_vocab=128),
        chunk=ChunkConfig(
            chunk_size=4,
            left_context=2,
            right_context=1,
            num_layers=2,
            hidden=8,
            ffn_hidden=16,
            num_heads=2,
            memory_slots=2,
            smooth_kernel=3,
        ),
        generator=GeneratorConfig(
            latent_dim=8,
            base_channels=8,
            upsample_strides=(2, 2),
            upsample_kernels=(4, 4),
            resblock_kernel_sizes=(3,),
            resblock_dilations=((1,),),
            io_kernel=3,
        ),
        posterior=PosteriorConfig(
            mcep_dim=6, hidden_channels=8, num_layers=2, kernel_size=3, latent_dim=8
        ),
        mel=MelConfig(sample_rate=800, n_fft=16, hop=4, n_mels=6, win_length=None, fmax=None),
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestWeightContainer:
    def test_round_trip_preserves_names_shapes_values(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
            "b.bias": rng.normal(size=(5,)).astype(np.float32),
            "c": rng.normal(size=(2, 3, 4)).astype(np.float32),
        }
        path = str(tmp_path / "w.cssw")
        save_weights(path, tensors)
        loaded = load_weights(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].dtype == np.float32
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_scalar_and_empty_shapes_round_trip(self, tmp_path):
        tensors = {
            "s": np.float32(3.25).reshape(()),
            "z": np.zeros((0, 4), dtype=np.float32),
        }
        path = str(tmp_path / "w.cssw")
        save_weights(path, tensors)
        loaded = load_weights(path)
        assert loaded["s"].shape == ()
        assert float(loaded["s"]) == 3.25
        assert loaded["z"].shape == (0, 4)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"a": np.ones(2, dtype=np.float32)})
        raw = bytearray(Path(path).read_bytes())
        raw[0] ^= 0xFF
        Path(path).write_bytes(raw)
        with pytest.raises(FormatError, match="magic"):
            load_weights(path)

    def test_bad_version_rejected(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"a": np.ones(2, dtype=np.float32)})
        raw = bytearray(Path(path).read_bytes())
        raw[4] = 99
        Path(path).write_bytes(raw)
        with pytest.raises(FormatError, match="version"):
            load_weights(path)

    def test_truncation_rejected_at_every_byte(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"ab": np.arange(3, dtype=np.float32)})
        raw = Path(path).read_bytes()
        for cut in range(len(raw)):
            Path(path).write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                load_weights(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"a": np.ones(2, dtype=np.float32)})
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_weights(path)

    def test_duplicate_names_rejected(self, tmp_path):
        import struct

        name = b"a"
        entry = struct.pack("<H", 1) + name + struct.pack("<B", 1) + struct.pack("<I", 1)
        entry += struct.pack("<f", 1.0)
        blob = struct.pack("<4sII", b"CSSW", 1, 2) + entry + entry
        path = str(tmp_path / "w.cssw")
        Path(path).write_bytes(blob)
        with pytest.raises(FormatError, match="duplicate"):
            load_weights(path)

    def test_values_stored_little_endian_float32(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"x": np.array([1.0], dtype=np.float32)})
        raw = Path(path).read_bytes()
        assert raw[-4:] == b"\x00\x00\x80\x3f"


class TestConfigSchema:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = str(tmp_path / "config.json")
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_default_config_round_trips(self, tmp_path):
        cfg = default_config()
        path = str(tmp_path / "config.json")
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_missing_key_rejected(self):
        obj = config_to_json(tiny_config())
        del obj["chunk"]["hidden"]
        with pytest.raises(FormatError, match="hidden"):
            config_from_json(obj)

    def test_unknown_key_rejected(self):
        obj = config_to_json(tiny_config())
        obj["chunk"]["extra"] = 1
        with pytest.raises(FormatError, match="extra"):
            config_from_json(obj)

    def test_unknown_section_rejected(self):
        obj = config_to_json(tiny_config())
        obj["optimizer"] = {}
        with pytest.raises(FormatError, match="optimizer"):
            config_from_json(obj)

    def test_bad_version_rejected(self):
        obj = config_to_json(tiny_config())
        obj["version"] = 2
        with pytest.raises(FormatError, match="version"):
            config_from_json(obj)

    def test_non_json_rejected(self, tmp_path):
        path = str(tmp_path / "config.json")
        Path(path).write_text("not json {")
        with pytest.raises(FormatError, match="JSON"):
            load_config(path)

    def test_invalid_values_surface_as_format_error(self):
        obj = config_to_json(tiny_config())
        obj["chunk"]["chunk_size"] = "twenty"
        with pytest.raises((FormatError, ConfigError)):
            config_from_json(obj)

    def test_hop_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="hop"):
            tiny_config(
                mel=MelConfig(
                    sample_rate=800, n_fft=16, hop=5, n_mels=6, win_length=None, fmax=None
                )
            )


class TestManifestAndBundle:
    def test_manifest_covers_components(self):
        cfg = tiny_config()
        names = tensor_manifest(cfg)
        assert "frontend.phoneme_embed" in names
        assert "decoder.1.smooth.conv2.bias" in names
        assert "posterior.out.weight" in names
        assert "generator.post.weight" in names
        assert "prior.weight" in names
        assert names["prior.weight"] == (8, 16)
        assert names["frontend.phoneme_embed"] == (80, 7)

    def test_smooth_flag_removes_smooth_tensors(self):
        flags = ModeFlags(smooth_layer=False)
        cfg = tiny_config(
            flags=flags,
            chunk=ChunkConfig(
                chunk_size=4,
                left_context=2,
                right_context=1,
                num_layers=2,
                hidden=8,
                ffn_hidden=16,
                num_heads=2,
                memory_slots=2,
                smooth_kernel=3,
                use_smooth=False,
            ),
        )
        names = tensor_manifest(cfg)
        assert not any(".smooth." in n for n in names)

    def test_random_tensors_match_manifest(self):
        cfg = tiny_config()
        tensors = make_random_tensors(cfg, seed=3)
        manifest = tensor_manifest(cfg)
        assert set(tensors) == set(manifest)
        for name, shape in manifest.items():
            assert tensors[name].shape == shape
            assert tensors[name].dtype == np.float32

    def test_gamma_tensors_centered_at_one(self):
        cfg = tiny_config()
        tensors = make_random_tensors(cfg, seed=3)
        for name, values in tensors.items():
            if name.endswith(".gamma"):
                assert np.all(values > 0.85) and np.all(values < 1.15)
            else:
                assert np.all(np.abs(values) <= 0.1)

    def test_build_bundle_enumerates_all_problems(self):
        cfg = tiny_config()
        tensors = make_random_tensors(cfg, seed=0)
        del tensors["prior.bias"]
        del tensors["decoder.0.w_q"]
        tensors["generator.pre.weight"] = np.zeros((1, 1, 1), dtype=np.float32)
        with pytest.raises(ConfigError) as err:
            build_bundle(cfg, tensors)
        msg = str(err.value)
        assert "prior.bias" in msg
        assert "decoder.0.w_q" in msg
        assert "generator.pre.weight" in msg

    def test_bundle_ignores_probe_tensors(self):
        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=1)
        assert "__probe.z" in tensors and "__probe.wav" in tensors
        bundle = build_bundle(cfg, tensors)
        assert "__probe.z" in bundle.tensors

    def test_probe_wav_matches_generator(self):
        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=5)
        bundle = build_bundle(cfg, tensors)
        probes = probe_tensors(bundle)
        np.testing.assert_array_equal(probes["__probe.z"], tensors["__probe.z"])
        np.testing.assert_array_equal(probes["__probe.wav"], tensors["__probe.wav"])
        assert tensors["__probe.wav"].shape == (8 * cfg.generator.hop,)

    def test_load_model_round_trip(self, tmp_path):
        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=7)
        cpath = str(tmp_path / "config.json")
        wpath = str(tmp_path / "weights.cssw")
        save_config(cpath, cfg)
        save_weights(wpath, tensors)
        bundle = load_model(cpath, wpath)
        assert bundle.config == cfg
        assert len(bundle.decoder_weights) == 2
        z = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
        wav = bundle.generator.offline(z)
        assert wav.shape == (16,)

    def test_natural_padding_flag_selects_pad_mode(self):
        cfg = tiny_config()
        tensors = make_random_tensors(cfg, seed=1)
        assert build_bundle(cfg, tensors).generator.pad_mode == "replicate"
        cfg2 = tiny_config(flags=ModeFlags(natural_padding=False))
        assert build_bundle(cfg2, tensors).generator.pad_mode == "constant"

    def test_decoder_weights_pass_shape_check(self):
        cfg = tiny_config()
        bundle = build_bundle(cfg, make_random_tensors(cfg, seed=2))
        for i, w in enumerate(bundle.decoder_weights):
            assert w.check(cfg.chunk, i) == []
