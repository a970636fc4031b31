"""Weight container, config schema, and bundle assembly tests."""

import dataclasses
import hashlib
import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chunkvox.acoustic import (
    PosteriorEncoder,
    PosteriorWeights,
    ScoreSequence,
    posterior_tensor_shapes,
)
from chunkvox.cli import main as cli_main
from chunkvox.decoder import AttentionLayerWeights, ChunkConfig, DecoderStream, SmoothWeights
from chunkvox.dsp import MelConfig
from chunkvox.errors import ChunkvoxError, ConfigError, FormatError
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
from chunkvox.pipeline import MODES, synth, verify
from chunkvox.convs import tap_major
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


def version_1_blob(tensors):
    """A version-1 weight file: every tensor's data in plain C order."""
    blob = struct.pack("<4sII", b"CSSW", 1, len(tensors))
    for name, arr in tensors.items():
        raw = name.encode()
        blob += struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape)
        blob += arr.astype("<f4").tobytes()
    return blob


def tensor_spans(raw):
    """``(name, start, data_start, end)`` byte offsets of each tensor entry of
    a weight file."""
    (count,) = struct.unpack_from("<I", raw, 8)
    at, spans = 12, []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, at)
        name = raw[at + 2 : at + 2 + name_len].decode()
        ndim = raw[at + 2 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", raw, at + 3 + name_len)
        data = at + 3 + name_len + 4 * ndim
        spans.append((name, at, data, data + 4 * math.prod(dims)))
        at = spans[-1][3]
    return spans


@pytest.fixture
def tiny_model(tmp_path):
    """A saved ``tiny_config()`` model with its probe: config path, weights
    path and the tensors written."""
    cfg = tiny_config()
    tensors = make_random_model(cfg, seed=7)
    cpath, wpath = str(tmp_path / "config.json"), str(tmp_path / "weights.cssw")
    save_config(cpath, cfg)
    save_weights(wpath, tensors)
    return cpath, wpath, tensors


@pytest.fixture(scope="module")
def default_weights(tmp_path_factory):
    """A saved ``default_config()`` weight file."""
    path = tmp_path_factory.mktemp("default") / "weights.cssw"
    save_weights(str(path), make_random_tensors(default_config(), seed=7))
    return path


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
        kernel = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        save_weights(path, {"ab": np.arange(3, dtype=np.float32), "k": kernel})
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
        name = b"a"
        entry = struct.pack("<H", 1) + name + struct.pack("<B", 1) + struct.pack("<I", 1)
        entry += struct.pack("<f", 1.0)
        blob = struct.pack("<4sII", b"CSSW", 1, 2) + entry + entry
        path = str(tmp_path / "w.cssw")
        Path(path).write_bytes(blob)
        with pytest.raises(FormatError, match="duplicate"):
            load_weights(path)

    def test_non_utf8_name_rejected_naming_the_tensor(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"a": np.ones(1, np.float32), "bb": np.ones(2, np.float32)})
        raw = Path(path).read_bytes()
        at = raw.index(b"bb")
        Path(path).write_bytes(raw[:at] + b"\xffb" + raw[at + 2 :])
        with pytest.raises(FormatError, match="tensor 1 is not valid UTF-8"):
            load_weights(path)

    def test_non_utf8_name_is_a_cli_error(self, tmp_path, capsys):
        cfg = tiny_config()
        cpath = str(tmp_path / "config.json")
        wpath = str(tmp_path / "weights.cssw")
        save_config(cpath, cfg)
        tensors = make_random_model(cfg, seed=7)
        save_weights(wpath, tensors)
        first = next(iter(tensors)).encode()
        raw = Path(wpath).read_bytes()
        Path(wpath).write_bytes(raw.replace(first, b"\xff" + first[1:], 1))
        assert cli_main(["verify", "--config", cpath, "--weights", wpath]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "FormatError"
        assert "tensor 0" in err["error"]["message"]

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"a": np.ones((2, 3), dtype=np.float32), "b": np.ones(4, np.float32)})
        for arr in load_weights(path).values():
            with pytest.raises(ValueError):
                arr[0] = 2.0

    def test_kernels_are_tap_major_views_of_one_buffer(self, tmp_path):
        """3-D tensors are stored tap-major in the loader's one buffer.

        The shapes cover several transpose blocks, a row longer than the
        default block, and empty kernels.
        """
        rng = np.random.default_rng(5)
        shapes = [(3, 4, 5), (300, 40, 7), (2, 300, 250), (0, 3, 2), (2, 0, 3), (6,), (4, 5)]
        tensors = {f"t{i}": rng.normal(size=s).astype(np.float32) for i, s in enumerate(shapes)}
        path = str(tmp_path / "w.cssw")
        save_weights(path, tensors)
        loaded = load_weights(path)
        buffer = loaded["t0"].base
        assert buffer.flags.owndata and buffer.ndim == 1
        for name, want in tensors.items():
            got = loaded[name]
            assert got.base is buffer and np.shares_memory(got, buffer) == (got.size > 0)
            assert got.dtype == np.float32 and not got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if got.ndim == 3 and got.size:
                assert np.swapaxes(got, 1, 2).flags.c_contiguous
                assert tap_major(got).base is buffer

    def test_values_stored_little_endian_float32(self, tmp_path):
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"x": np.array([1.0], dtype=np.float32)})
        raw = Path(path).read_bytes()
        assert raw[-4:] == b"\x00\x00\x80\x3f"

    def test_kernel_data_written_tap_major_under_version_2(self, tmp_path):
        kernel = np.arange(60, dtype=np.float32).reshape(3, 4, 5)
        path = str(tmp_path / "w.cssw")
        save_weights(path, {"k": kernel})
        raw = Path(path).read_bytes()
        assert struct.unpack_from("<4sII", raw) == (b"CSSW", 2, 1)
        head = 12 + 2 + 1 + 1  # header, name length, name, rank
        assert struct.unpack_from("<3I", raw, head) == (3, 4, 5)
        assert raw[head + 12 :] == np.swapaxes(kernel, 1, 2).tobytes()

    def test_version_1_file_loads_tap_major_in_one_buffer(self, tmp_path):
        """Version-1 kernels are C order on disk and land as version 2's do:
        the same values, packed in an arena byte-for-byte equal to version 2's."""
        rng = np.random.default_rng(8)
        # (300, 40, 7) is 336 KB of data; the empty kernels and the 1-D and
        # 2-D tensors sit between the kernels.
        shapes = [(3, 4, 5), (300, 40, 7), (0, 3, 2), (6,), (2, 0, 3), (4, 5), (2, 3, 1)]
        tensors = {f"t{i}": rng.normal(size=s).astype(np.float32) for i, s in enumerate(shapes)}
        v1 = tmp_path / "v1.cssw"
        v1.write_bytes(version_1_blob(tensors))
        v2 = str(tmp_path / "v2.cssw")
        save_weights(v2, tensors)
        loaded = load_weights(str(v1))
        buffer = loaded["t0"].base
        assert buffer.flags.owndata and buffer.ndim == 1
        used = sum(t.size for t in tensors.values())  # the rest is never written
        assert buffer[:used].tobytes() == load_weights(v2)["t0"].base[:used].tobytes()
        for name, want in tensors.items():
            got = loaded[name]
            assert got.base is buffer and not got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if got.ndim == 3:
                assert np.swapaxes(got, 1, 2).flags.c_contiguous
        again = tmp_path / "again.cssw"
        save_weights(str(again), loaded)
        assert again.read_bytes() == Path(v2).read_bytes()

    def test_version_1_file_cut_inside_a_kernel_rejected(self, tmp_path):
        kernel = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        raw = version_1_blob({"ab": np.arange(3, dtype=np.float32), "k": kernel})
        path = tmp_path / "w.cssw"
        for cut in range(len(raw) - kernel.nbytes, len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError, match="truncated weight file while reading data of 'k'"):
                load_weights(str(path))


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

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_version_must_be_the_integer_one(self, version):
        """``True == 1.0 == 1`` in Python; only the JSON integer 1 is version 1."""
        obj = config_to_json(tiny_config())
        obj["version"] = version
        with pytest.raises(FormatError, match=re.escape(f"version {version!r}")):
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

    def test_default_config_file_text_is_pinned(self, tmp_path):
        # Shipped config files must keep loading: section order, key order,
        # value types and layout are a file format, written out here by hand.
        pinned = {
            "version": 1,
            "flags": {"causal_posterior": True, "natural_padding": True, "smooth_layer": True},
            "frontend": {"phoneme_vocab": 64, "note_vocab": 128},
            "chunk": {
                "chunk_size": 20,
                "left_context": 10,
                "right_context": 4,
                "num_layers": 4,
                "hidden": 192,
                "ffn_hidden": 768,
                "num_heads": 2,
                "memory_slots": 4,
                "smooth_kernel": 3,
            },
            "generator": {
                "latent_dim": 192,
                "base_channels": 64,
                "upsample_strides": [8, 8, 4, 2],
                "upsample_kernels": None,
                "resblock_kernel_sizes": [3],
                "resblock_dilations": [[1, 3]],
                "io_kernel": 7,
            },
            "posterior": {
                "mcep_dim": 80,
                "hidden_channels": 192,
                "num_layers": 3,
                "kernel_size": 5,
                "latent_dim": 192,
            },
            "mel": {
                "sample_rate": 44100,
                "n_fft": 2048,
                "hop": 512,
                "win_length": None,
                "n_mels": 80,
                "fmin": 0.0,
                "fmax": None,
                "log_floor": 1e-05,
            },
        }
        path = tmp_path / "config.json"
        save_config(str(path), default_config())
        assert path.read_text(encoding="utf-8") == json.dumps(pinned, indent=2) + "\n"

    @pytest.mark.parametrize(
        "field, value",
        [("resblock_kernel_sizes", (0,)), ("resblock_dilations", ((1, 0),))],
    )
    def test_bad_resblock_sizes_rejected_naming_the_field(self, field, value):
        fields = dict(resblock_kernel_sizes=(3,), resblock_dilations=((1, 3),))
        fields[field] = value
        with pytest.raises(ConfigError, match=field):
            GeneratorConfig(**fields)
        obj = config_to_json(tiny_config())
        obj["generator"].update({k: json.loads(json.dumps(v)) for k, v in fields.items()})
        with pytest.raises(ConfigError, match=field):
            config_from_json(obj)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("flags", "smooth_layer", "false"),
            ("chunk", "num_layers", 2.0),
            ("generator", "io_kernel", True),
            ("chunk", "hidden", None),
            ("generator", "upsample_strides", [2, 2.0]),
            ("generator", "resblock_dilations", [[1, False]]),
        ],
    )
    def test_value_of_wrong_type_rejected_naming_the_key(self, section, key, value):
        obj = config_to_json(tiny_config())
        obj[section][key] = value
        with pytest.raises(FormatError, match=rf"config {section}\.{key} must be "):
            config_from_json(obj)

    @pytest.mark.parametrize(
        "key, value",
        [("fmin", "NaN"), ("fmin", "-Infinity"), ("fmax", "NaN"), ("log_floor", "Infinity")],
    )
    def test_non_finite_mel_value_rejected_naming_the_field(self, key, value):
        obj = config_to_json(tiny_config())
        obj["mel"][key] = float(value)
        text = json.dumps(obj)
        assert value in text  # the JSON literal, which Python's json reads back as a float
        with pytest.raises(ConfigError, match=rf"MelConfig\.{key} must be finite"):
            config_from_json(json.loads(text))

    def test_int_accepted_for_float_and_null_for_optional(self):
        obj = config_to_json(tiny_config())
        obj["mel"]["fmin"] = 0
        obj["mel"]["log_floor"] = 1
        obj["generator"]["upsample_kernels"] = None
        cfg = config_from_json(obj)
        assert cfg.mel.fmin == 0 and cfg.mel.log_floor == 1
        assert cfg.generator.upsample_kernels is None


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

    def test_default_manifest_is_pinned(self):
        # make_random_tensors draws in manifest order, and the recorded
        # perfbench/reference.npz depends on those draws: a reorder or a
        # reshape must fail here, not only in the benchmark.
        items = list(tensor_manifest(default_config()).items())
        digest = hashlib.sha256(repr(items).encode()).hexdigest()
        assert len(items) == 126
        assert digest == "90c982b34f219486dbd7fac6d1f02fa8bb32125e3a5f58d3c073dcabab8ecdd3"

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

    def test_every_conv_kernel_is_tap_major(self, tmp_path):
        """Each per-tap matrix ``w[:, :, j]`` has unit inner stride."""
        cfg = tiny_config()
        cpath, wpath = str(tmp_path / "config.json"), str(tmp_path / "weights.cssw")
        save_config(cpath, cfg)
        save_weights(wpath, make_random_tensors(cfg, seed=3))
        bundle = load_model(cpath, wpath, posterior=True)
        kernels = [node.w for node in bundle.generator._nodes]
        kernels += [w for w, _, _, _ in bundle.posterior.weights.layers]
        kernels.append(bundle.posterior.weights.out_w)
        for lw in bundle.decoder_weights:
            kernels += [lw.smooth.conv1_w, lw.smooth.conv2_w]
        for w in kernels:
            assert w.ndim == 3 and w.dtype == np.float32
            for j in range(w.shape[2]):
                assert w[:, :, j].strides[1] == w.itemsize

    def test_default_model_file_round_trips_byte_for_byte(self, default_weights):
        again = default_weights.with_name("again.cssw")
        save_weights(str(again), load_weights(str(default_weights)))
        assert again.read_bytes() == default_weights.read_bytes()

    def test_building_a_loaded_model_copies_no_weight(self, default_weights):
        """The loaded kernels are bound as they are: the default model's
        conv kernels alone are 6.2 MB."""
        cfg = default_config()
        tensors = load_weights(str(default_weights))
        tracemalloc.start()
        try:
            bundle = build_bundle(cfg, tensors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        kernels = [node.w for node in bundle.generator._nodes]
        kernels += [lw.smooth.conv1_w for lw in bundle.decoder_weights]
        assert all(np.shares_memory(w, tensors["frontend.phoneme_embed"].base) for w in kernels)

    @pytest.mark.parametrize("smooth", [True, False])
    def test_every_weight_field_is_bound_to_its_tensor(self, smooth):
        # The file's tensor name for each weight field, written out apart
        # from the tables the binding is derived from.
        layer_tensors = {
            "w_q": "w_q",
            "w_k": "w_k",
            "w_v": "w_v",
            "w_out": "w_out",
            "attn_norm_gamma": "attn_norm.gamma",
            "attn_norm_beta": "attn_norm.beta",
            "ffn_w1": "ffn.w1",
            "ffn_b1": "ffn.b1",
            "ffn_w2": "ffn.w2",
            "ffn_b2": "ffn.b2",
            "ffn_norm_gamma": "ffn_norm.gamma",
            "ffn_norm_beta": "ffn_norm.beta",
        }
        smooth_tensors = {
            "conv1_w": "smooth.conv1.weight",
            "conv1_b": "smooth.conv1.bias",
            "norm1_gamma": "smooth.norm1.gamma",
            "norm1_beta": "smooth.norm1.beta",
            "conv2_w": "smooth.conv2.weight",
            "conv2_b": "smooth.conv2.bias",
            "norm2_gamma": "smooth.norm2.gamma",
            "norm2_beta": "smooth.norm2.beta",
        }
        posterior_slots = ("weight", "bias", "norm.gamma", "norm.beta")
        names = lambda cls: {f.name for f in dataclasses.fields(cls)}
        assert names(AttentionLayerWeights) == {*layer_tensors, "smooth"}
        assert names(SmoothWeights) == set(smooth_tensors)

        cfg = tiny_config(
            flags=ModeFlags(smooth_layer=smooth),
            chunk=dataclasses.replace(tiny_config().chunk, use_smooth=smooth),
        )
        # Each tensor holds its own constant, so any two swapped names show.
        tensors = {
            name: np.full(shape, i + 1, dtype=np.float32)
            for i, (name, shape) in enumerate(tensor_manifest(cfg).items())
        }
        bundle = build_bundle(cfg, tensors)
        seen = set()

        def expect(array, name):
            assert array.shape == tensors[name].shape and np.all(array == tensors[name]), name
            seen.add(name)

        assert len(bundle.decoder_weights) == cfg.chunk.num_layers
        for i, lw in enumerate(bundle.decoder_weights):
            for field, name in layer_tensors.items():
                expect(getattr(lw, field), f"decoder.{i}.{name}")
            if smooth:
                for field, name in smooth_tensors.items():
                    expect(getattr(lw.smooth, field), f"decoder.{i}.{name}")
            else:
                assert lw.smooth is None
        post = bundle.posterior.weights
        assert len(post.layers) == cfg.posterior.num_layers
        for i, layer in enumerate(post.layers):
            assert len(layer) == len(posterior_slots)
            for array, slot in zip(layer, posterior_slots):
                expect(array, f"posterior.{i}.{slot}")
        expect(post.out_w, "posterior.out.weight")
        expect(post.out_b, "posterior.out.bias")
        assert seen == {n for n in tensors if n.startswith(("decoder.", "posterior."))}

    def test_decoder_weights_pass_shape_check(self):
        cfg = tiny_config()
        bundle = build_bundle(cfg, make_random_tensors(cfg, seed=2))
        DecoderStream(cfg.chunk, bundle.decoder_weights)


def _bind_decoder(cfg, tensors):
    layers = range(cfg.chunk.num_layers)
    return [AttentionLayerWeights.from_tensors(cfg.chunk, tensors, i) for i in layers]


class TestConsumerShapeChecks:
    """``DecoderStream`` and ``PosteriorEncoder`` check the arrays they are
    handed, under their weight-file names, with ``check_shapes``' wording."""

    CFG = tiny_config()
    NAMES = [n for n in tensor_manifest(CFG) if n.startswith(("decoder.", "posterior."))]

    @pytest.mark.parametrize("name", NAMES)
    def test_misshapen_tensor_is_named(self, name):
        cfg = self.CFG
        tensors = make_random_tensors(cfg, seed=5)
        want = tensors[name].shape
        tensors[name] = np.zeros(want[:-1] + (want[-1] + 1,), dtype=np.float32)
        with pytest.raises(ConfigError) as err:
            if name.startswith("decoder."):
                DecoderStream(cfg.chunk, _bind_decoder(cfg, tensors))
            else:
                PosteriorEncoder(
                    cfg.posterior, PosteriorWeights.from_tensors(cfg.posterior, tensors), True
                )
        assert str(err.value) == f"tensor {name} has shape {tensors[name].shape}, wants {want}"

    def test_enabled_smoothing_without_weights(self):
        cfg = self.CFG
        weights = _bind_decoder(cfg, make_random_tensors(cfg, seed=5))
        weights[0].smooth = None
        with pytest.raises(ConfigError) as err:
            DecoderStream(cfg.chunk, weights)
        names = [n for n in tensor_manifest(cfg) if n.startswith("decoder.0.smooth.")]
        assert len(names) == 8
        assert str(err.value) == "; ".join(f"missing tensor {n}" for n in names)

    def test_wrong_posterior_layer_count(self):
        cfg = self.CFG
        w = PosteriorWeights.from_tensors(cfg.posterior, make_random_tensors(cfg, seed=5))
        for layers in (w.layers[:1], w.layers * 2):
            bad = dataclasses.replace(w, layers=layers)
            with pytest.raises(ConfigError) as err:
                PosteriorEncoder(cfg.posterior, bad, causal=True)
            assert str(err.value) == f"posterior has {len(layers)} layers, wants 2"


class TestSynthesisOnlyLoad:
    """``load_model`` checks the posterior's tensors but reads and keeps them
    only with ``posterior=True``."""

    def test_default_load_leaves_out_the_posterior(self, tiny_model):
        cpath, wpath, tensors = tiny_model
        lean = load_model(cpath, wpath)
        full = load_model(cpath, wpath, posterior=True)
        assert lean.posterior is None and full.posterior is not None
        posterior = {name for name in tensors if name.startswith("posterior.")}
        assert posterior and set(lean.tensors) == set(tensors) - posterior
        assert set(full.tensors) == set(tensors)
        for name, value in lean.tensors.items():
            assert value.tobytes() == full.tensors[name].tobytes()

    def test_nan_posterior_changes_no_sample_and_fails_verify(self, tmp_path, tiny_model, capsys):
        cpath, wpath, tensors = tiny_model
        poisoned = {
            name: np.full_like(value, np.nan) if name.startswith("posterior.") else value
            for name, value in tensors.items()
        }
        npath = str(tmp_path / "nan.cssw")
        save_weights(npath, poisoned)
        clean, nan = load_model(cpath, wpath), load_model(cpath, npath)
        score = ScoreSequence(phonemes=(1, 2, 3), notes=(60, 0, 64), durations=(5, 6, 7))
        for mode in MODES:
            want, _ = synth(score, clean, mode=mode, eps_seed=3)
            got, _ = synth(score, nan, mode=mode, eps_seed=3)
            assert got.tobytes() == want.tobytes(), mode

        # verify loads the posterior, so all six checks run: finite names it,
        # and length_laws reports the encoder's NaN sigma instead of aborting.
        assert cli_main(["verify", "--config", cpath, "--weights", npath]) == 0
        report = {row["check"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
        assert len(report) == 6
        assert report.pop("finite")["status"] == "fail"
        laws = report.pop("length_laws")
        assert laws["status"] == "fail" and laws["detail"].startswith("DomainError: sigma")
        assert all(row["status"] == "pass" for row in report.values())
        finite = verify(load_model(cpath, npath, posterior=True), ("finite",))[0]
        assert "posterior.0.weight" in finite["detail"] and "prior.weight" not in finite["detail"]

    def test_truncation_inside_the_posterior_section_names_the_tensor(self, tiny_model):
        cpath, wpath, _ = tiny_model
        raw = Path(wpath).read_bytes()
        spans = [span for span in tensor_spans(raw) if span[0].startswith("posterior.")]
        assert spans
        for name, start, data, end in spans:
            Path(wpath).write_bytes(raw[: (data + end) // 2])
            for posterior in (False, True):
                with pytest.raises(FormatError, match=f"data of {re.escape(repr(name))}"):
                    load_model(cpath, wpath, posterior=posterior)
            Path(wpath).write_bytes(raw[: start + 3])  # inside its name
            with pytest.raises(FormatError, match="truncated weight file while reading name"):
                load_model(cpath, wpath)

    @pytest.mark.parametrize("fault", ["misshapen", "missing", "duplicated"])
    def test_bad_posterior_tensor_rejected_naming_it(self, tmp_path, fault):
        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=7)
        name = "posterior.1.weight"
        if fault == "misshapen":
            out, cin, taps = tensors[name].shape
            tensors[name] = np.zeros((out, cin, taps + 1), np.float32)
        elif fault == "missing":
            del tensors[name]
        cpath, wpath = str(tmp_path / "config.json"), tmp_path / "weights.cssw"
        save_config(cpath, cfg)
        save_weights(str(wpath), tensors)
        if fault == "duplicated":
            raw = wpath.read_bytes()
            _, start, _, end = next(span for span in tensor_spans(raw) if span[0] == name)
            count = struct.pack("<I", len(tensors) + 1)
            wpath.write_bytes(raw[:8] + count + raw[12:] + raw[start:end])
        want = FormatError if fault == "duplicated" else ConfigError
        for posterior in (False, True):
            with pytest.raises(want, match=re.escape(name)):
                load_model(cpath, str(wpath), posterior=posterior)

    def test_version_1_file_loads_both_ways(self, tmp_path, tiny_model):
        cpath, wpath, tensors = tiny_model
        v1 = tmp_path / "v1.cssw"
        v1.write_bytes(version_1_blob(tensors))
        for posterior in (False, True):
            want = load_model(cpath, wpath, posterior=posterior)
            got = load_model(cpath, str(v1), posterior=posterior)
            assert (got.posterior is None) is not posterior
            assert list(got.tensors) == list(want.tensors)
            for name, value in got.tensors.items():
                assert value.tobytes() == want.tensors[name].tobytes()
            arena = got.tensors["prior.weight"].base
            assert arena.tobytes() == want.tensors["prior.weight"].base.tobytes()


class TestArena:
    @pytest.mark.parametrize("posterior", [False, True])
    def test_arena_is_exactly_the_kept_tensors(self, default_weights, posterior):
        """No float of the arena is left unwritten: it is the kept tensors'
        data, tap-major, in file order, and nothing else."""
        skip = {} if posterior else posterior_tensor_shapes(default_config().posterior)
        loaded = load_weights(str(default_weights), skip=skip)
        assert all(name.startswith("posterior.") is not posterior for name in skip)
        assert len(loaded) == 126 - len(skip)
        arena = loaded["frontend.phoneme_embed"].base
        assert arena.flags.owndata and arena.ndim == 1
        assert arena.size == sum(value.size for value in loaded.values())
        packed = [np.swapaxes(v, 1, 2) if v.ndim == 3 else v for v in loaded.values()]
        assert arena.tobytes() == b"".join(value.tobytes() for value in packed)


class TestWeightFileFuzz:
    def test_mutated_files_fail_only_with_chunkvox_errors(self, tiny_model):
        """300 seeded mutations of a tiny model file: cut at a random offset,
        one to three random header bytes flipped, or random bytes appended.
        Each is loaded with and without the posterior: every failure is a
        ``ChunkvoxError``, and both loads accept or reject it alike."""
        cpath, wpath, _ = tiny_model
        raw = Path(wpath).read_bytes()
        header = [*range(12)]
        header += [i for _, start, data, _ in tensor_spans(raw) for i in range(start, data)]
        rng = np.random.default_rng(18)
        outcomes = {}
        for trial in range(300):
            kind = ("cut", "flip", "append")[trial % 3]
            if kind == "cut":
                blob = raw[: int(rng.integers(len(raw)))]
            elif kind == "flip":
                blob = bytearray(raw)
                for at in rng.choice(header, size=int(rng.integers(1, 4)), replace=False):
                    blob[at] ^= int(rng.integers(1, 256))
            else:
                blob = raw + rng.bytes(int(rng.integers(1, 17)))
            Path(wpath).write_bytes(blob)
            results = []
            for posterior in (False, True):
                try:
                    load_model(cpath, wpath, posterior=posterior)
                    results.append("ok")
                except ChunkvoxError as exc:
                    results.append(type(exc).__name__)
            assert results[0] == results[1], (trial, kind, results)
            outcomes.setdefault(kind, set()).add(results[0])
        assert outcomes["cut"] == outcomes["append"] == {"FormatError"}
        assert {"FormatError", "ConfigError"} <= outcomes["flip"]
