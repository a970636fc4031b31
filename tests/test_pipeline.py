"""End-to-end synthesis, WAV I/O, bench, verify, and CLI tests."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chunkvox import convs, pipeline
from chunkvox.acoustic import ScoreSequence
from chunkvox.cli import main as cli_main
from chunkvox.errors import ConfigError, DomainError, ShapeError
from chunkvox.modelio import (
    build_bundle,
    make_random_model,
    make_random_tensors,
    save_config,
    save_weights,
)
from chunkvox.decoder import full_attention_oracle
from chunkvox.pipeline import (
    MAX_FRAMES,
    MODES,
    PARALLEL_TILE,
    VERIFY_CHECKS,
    StreamMetrics,
    bench,
    note_to_hz,
    read_wav,
    score_to_frames,
    synth,
    synth_chunks,
    verify,
    write_wav,
)

from test_modelio import tiny_config


@pytest.fixture(scope="module")
def bundle():
    cfg = tiny_config()
    return build_bundle(cfg, make_random_model(cfg, seed=42))


def sung_score(frames=30, entries=5):
    per = frames // entries
    durs = [per] * entries
    durs[-1] += frames - per * entries
    return ScoreSequence(
        phonemes=tuple(range(1, entries + 1)),
        notes=tuple(60 + i for i in range(entries)),
        durations=tuple(durs),
    )


class TestNoteToHz:
    def test_concert_pitch(self):
        assert note_to_hz(69) == pytest.approx(440.0)

    def test_octave_doubles(self):
        assert note_to_hz(81) == pytest.approx(880.0)
        assert note_to_hz(57) == pytest.approx(220.0)

    def test_rest_is_silent(self):
        assert note_to_hz(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            note_to_hz(-1)


class TestScoreToFrames:
    def test_shape_and_dtype(self, bundle):
        frames = score_to_frames(sung_score(30), bundle)
        assert frames.shape == (30, bundle.config.chunk.hidden)
        assert frames.dtype == np.float32

    def test_pitch_channel_matches_notes(self, bundle):
        score = ScoreSequence(phonemes=(1, 2), notes=(69, 0), durations=(2, 3))
        frames = score_to_frames(score, bundle)
        want = math.log1p(440.0) / 8.0
        np.testing.assert_allclose(frames[:2, -1], want, rtol=1e-6)
        np.testing.assert_array_equal(frames[2:, -1], 0.0)

    def test_unpitched_score_zero_channel(self, bundle):
        score = ScoreSequence(phonemes=(1, 2), notes=None, durations=(2, 2))
        frames = score_to_frames(score, bundle)
        np.testing.assert_array_equal(frames[:, -1], 0.0)

    def test_embeddings_are_length_regulated(self, bundle):
        score = ScoreSequence(phonemes=(3,), notes=None, durations=(4,))
        frames = score_to_frames(score, bundle)
        for row in range(4):
            np.testing.assert_array_equal(frames[row, :-1], bundle.phoneme_embed[3])

    def test_note_embedding_added(self, bundle):
        pitched = ScoreSequence(phonemes=(2,), notes=(5,), durations=(1,))
        plain = ScoreSequence(phonemes=(2,), notes=None, durations=(1,))
        diff = score_to_frames(pitched, bundle)[0, :-1] - score_to_frames(plain, bundle)[0, :-1]
        np.testing.assert_allclose(diff, bundle.note_embed[5], atol=1e-6)

    def test_frame_count_above_the_cap_rejected_before_allocating(self, bundle):
        # 10**12 frames would ask numpy for terabytes; the cap refuses first.
        for durations in ((MAX_FRAMES, 1), (10**12,)):
            score = ScoreSequence(phonemes=(1,) * len(durations), notes=None, durations=durations)
            want = f"{sum(durations)} frames, more than the {MAX_FRAMES}"
            with pytest.raises(DomainError, match=want):
                score_to_frames(score, bundle)
            for mode in MODES:
                with pytest.raises(DomainError, match=want):
                    synth(score, bundle, mode=mode)

    def test_out_of_vocab_rejected(self, bundle):
        with pytest.raises(DomainError, match="phoneme"):
            score_to_frames(
                ScoreSequence(phonemes=(99,), notes=None, durations=(1,)), bundle
            )
        with pytest.raises(DomainError, match="note"):
            score_to_frames(
                ScoreSequence(phonemes=(1,), notes=(999,), durations=(1,)), bundle
            )


class TestSynth:
    def test_sample_count_law_all_modes(self, bundle):
        hop = bundle.generator.hop
        for frames in (3, 7, 13):
            score = ScoreSequence(phonemes=(1,), notes=(60,), durations=(frames,))
            for mode in MODES:
                wav, metrics = synth(score, bundle, mode=mode, eps_seed=0)
                assert wav.shape == (frames * hop,)
                assert metrics.samples == frames * hop
                assert metrics.frames == frames

    def test_output_in_open_interval(self, bundle):
        wav, _ = synth(sung_score(30), bundle, mode="full", eps_seed=1)
        assert np.all(wav > -1.0) and np.all(wav < 1.0)

    def test_deterministic_given_seed(self, bundle):
        a, _ = synth(sung_score(20), bundle, mode="full", eps_seed=5)
        b, _ = synth(sung_score(20), bundle, mode="full", eps_seed=5)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self, bundle):
        a, _ = synth(sung_score(20), bundle, mode="full", eps_seed=5)
        b, _ = synth(sung_score(20), bundle, mode="full", eps_seed=6)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self, bundle):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            synth(sung_score(8), bundle, eps_seed=-1)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
            synth_chunks(sung_score(8), bundle, mode="parallel", eps_seed=-2)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
            bench([sung_score(8)], bundle, modes=("semi",), repeats=1, warmup=0, seed=-3)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -4"):
            make_random_tensors(tiny_config(), seed=-4)

    def test_semi_matches_parallel(self, bundle):
        score = sung_score(23)
        a, _ = synth(score, bundle, mode="parallel", eps_seed=3)
        b, _ = synth(score, bundle, mode="semi", eps_seed=3)
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_parallel_tiles_match_the_offline_vocoder(self, bundle, monkeypatch):
        """Parallel audio, tiled, equals the whole score done in one pass each.

        The oracle takes full attention, one prior over the whole score, one
        whole noise draw and one offline vocoder pass; the synthesis takes
        the prior, the noise and the vocoder one tile at a time.  Criterion
        8 compares two stream schedules; this keeps a check against
        ``Generator.offline`` on the same latents.  The scores span two or
        three whole tiles and a partial one.
        """
        stream, widths = bundle.generator.stream, []

        def spy(state, z):
            widths.append(z.shape[1])
            return stream(state, z)

        monkeypatch.setattr(bundle.generator, "stream", spy)
        latent = bundle.config.latent_dim
        for frames in (2 * PARALLEL_TILE + 2, 3 * PARALLEL_TILE + 17):
            score = ScoreSequence(phonemes=(1, 2), notes=(60, 67), durations=(100, frames - 100))
            widths.clear()
            got, _ = synth(score, bundle, mode="parallel", eps_seed=8)
            assert widths == [PARALLEL_TILE] * (frames // PARALLEL_TILE) + [frames % PARALLEL_TILE]

            decoded = full_attention_oracle(
                score_to_frames(score, bundle), bundle.config.chunk, bundle.decoder_weights
            )
            prior = decoded @ bundle.prior_w + bundle.prior_b
            eps = np.random.default_rng(8).standard_normal((frames, latent)).astype(np.float32)
            z = prior[:, :latent] + np.exp(prior[:, latent:]) * eps
            want = bundle.generator.offline(z.T)
            assert got.shape == want.shape == (frames * bundle.generator.hop,)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    def test_full_mode_close_to_parallel_with_generous_context(self):
        # With chunk covering the whole sequence and no memory, streaming
        # equals the parallel path up to float tolerance.
        cfg = tiny_config()
        from dataclasses import replace

        cfg = replace(
            cfg,
            chunk=replace(cfg.chunk, chunk_size=64, right_context=0, memory_slots=0),
        )
        bundle = build_bundle(cfg, make_random_tensors(cfg, seed=9))
        score = sung_score(24)
        a, _ = synth(score, bundle, mode="parallel", eps_seed=2)
        b, _ = synth(score, bundle, mode="full", eps_seed=2)
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_metrics_are_consistent(self, bundle):
        _, m = synth(sung_score(30), bundle, mode="full", eps_seed=0)
        assert 0 <= m.latency_s <= m.process_time_s * 1.0000001 + 1e-9
        assert m.rtf == pytest.approx(m.process_time_s / m.audio_s)
        assert m.audio_s == pytest.approx(m.samples / m.sample_rate)

    def test_parallel_latency_equals_process_time(self, bundle):
        _, m = synth(sung_score(30), bundle, mode="parallel", eps_seed=0)
        assert m.latency_s == m.process_time_s

    def test_unknown_mode_rejected(self, bundle):
        with pytest.raises(ConfigError, match="mode"):
            synth(sung_score(10), bundle, mode="offline")

    def test_short_score_single_chunk(self, bundle):
        wav, _ = synth(ScoreSequence((1,), (60,), (2,)), bundle, mode="full", eps_seed=0)
        assert wav.shape == (2 * bundle.generator.hop,)


class TestSynthChunks:
    def test_chunks_concatenate_to_synth_output(self, bundle):
        score = sung_score(23)
        for mode in MODES:
            chunks = list(synth_chunks(score, bundle, mode, eps_seed=4))
            wav, _ = synth(score, bundle, mode=mode, eps_seed=4)
            assert np.concatenate(chunks).tobytes() == wav.tobytes()

    def test_chunk_counts_per_mode(self, bundle):
        """One chunk per ``chunk_size`` frames, plus the first frame alone."""
        step = bundle.config.chunk.chunk_size
        for frames in (1, 2, step, step + 1, 3 * step + 2):
            score = ScoreSequence(phonemes=(1,), notes=(60,), durations=(frames,))
            assert len(list(synth_chunks(score, bundle, "parallel"))) == 1
            for mode in ("semi", "full"):
                chunks = list(synth_chunks(score, bundle, mode))
                assert len(chunks) == math.ceil(frames / step) + (frames > 1)

    @pytest.mark.parametrize("mode", ["semi", "full"])
    def test_first_chunk_is_one_frame(self, bundle, mode):
        step, hop = bundle.config.chunk.chunk_size, bundle.generator.hop
        score = ScoreSequence(phonemes=(1, 2), notes=(60, 62), durations=(step, step + 3))
        sizes = [c.shape[0] for c in synth_chunks(score, bundle, mode)]
        assert sizes == [hop, (step - 1) * hop, step * hop, 3 * hop]
        one = ScoreSequence(phonemes=(1,), notes=(60,), durations=(1,))
        assert [c.shape[0] for c in synth_chunks(one, bundle, mode)] == [hop]

    def test_unknown_mode_raises_at_call(self, bundle):
        with pytest.raises(ConfigError, match="mode"):
            synth_chunks(sung_score(10), bundle, "offline")


class TestNonFiniteAudio:
    """A chunk that holds a non-finite sample raises instead of being emitted."""

    @pytest.fixture(scope="class")
    def nan_bundle(self):
        cfg = tiny_config()
        tensors = make_random_tensors(cfg, seed=42)
        tensors["generator.post.bias"] = np.full(1, np.nan, dtype=np.float32)
        return build_bundle(cfg, tensors)

    @pytest.mark.parametrize("mode", MODES)
    def test_synth_raises_on_the_first_chunk(self, nan_bundle, mode):
        want = "audio chunk 0 holds a non-finite sample: nan at sample 0"
        with pytest.raises(DomainError, match=want):
            synth(sung_score(23), nan_bundle, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_synth_chunks_raises_before_yielding(self, nan_bundle, mode):
        chunks = synth_chunks(sung_score(23), nan_bundle, mode)
        with pytest.raises(DomainError, match="audio chunk 0"):
            next(chunks)

    def test_names_a_later_chunk_and_its_first_bad_sample(self, bundle, monkeypatch):
        stream, calls = bundle.generator.stream, []

        def poisoned(state, z):
            state, audio = stream(state, z)
            calls.append(z.shape[1])
            if len(calls) == 3:
                audio = audio.copy()
                audio[5:] = np.inf
            return state, audio

        monkeypatch.setattr(bundle.generator, "stream", poisoned)
        want = "audio chunk 2 holds a non-finite sample: inf at sample 5"
        with pytest.raises(DomainError, match=want):
            synth(sung_score(23), bundle, mode="full")
        assert len(calls) == 3


class TestStreamMetrics:
    def test_rejects_latency_after_end(self):
        with pytest.raises(DomainError):
            StreamMetrics(
                mode="full", frames=1, samples=4, sample_rate=4,
                latency_s=2.0, process_time_s=1.0,
            )

    def test_to_dict_round_trips_json(self):
        m = StreamMetrics(
            mode="semi", frames=2, samples=8, sample_rate=4,
            latency_s=0.5, process_time_s=1.0, min_slack_s=-0.25,
        )
        d = json.loads(json.dumps(m.to_dict()))
        assert d["rtf"] == pytest.approx(0.5)
        assert d["audio_s"] == pytest.approx(2.0)
        assert d["min_slack_s"] == -0.25


def scripted_clock(monkeypatch, *readings):
    """Make ``synth``'s clock return ``readings`` in order, and only those."""
    ticks = iter(readings)
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    return ticks


class TestMinSlack:
    """Worst real-time slack from a scripted clock, one reading per chunk."""

    def test_worst_emission_after_the_first(self, bundle, monkeypatch):
        # 10 frames of 5 ms (hop 4 at 800 Hz) come as 1, 3, 4 and 2 frames.
        score = ScoreSequence(phonemes=(1,), notes=(60,), durations=(10,))
        ticks = scripted_clock(monkeypatch, 1.000, 1.010, 1.012, 1.040, 1.041, 1.050)
        _, m = synth(score, bundle, mode="full")
        assert next(ticks, None) is None
        assert m.latency_s == pytest.approx(0.010)
        assert m.process_time_s == pytest.approx(0.050)
        # Slack after each earlier emission: 10 + 5 - 12, 10 + 20 - 40 and 10 + 40 - 41 ms.
        assert m.min_slack_s == pytest.approx(-0.010)

    @pytest.mark.parametrize("mode, frames", [("parallel", 10), ("semi", 1), ("full", 1)])
    def test_none_for_a_single_emission(self, bundle, monkeypatch, mode, frames):
        score = ScoreSequence(phonemes=(1,), notes=(60,), durations=(frames,))
        scripted_clock(monkeypatch, 2.0, 2.5, 3.0)
        _, m = synth(score, bundle, mode=mode)
        assert m.min_slack_s is None
        assert m.latency_s == pytest.approx(1.0 if mode == "parallel" else 0.5)


class TestWavIO:
    def test_round_trip_quantization_error_bounded(self, tmp_path):
        rng = np.random.default_rng(0)
        wav = rng.uniform(-0.9, 0.9, 200).astype(np.float32)
        path = str(tmp_path / "a.wav")
        write_wav(wav, 8000, path)
        back, rate = read_wav(path)
        assert rate == 8000
        assert back.shape == wav.shape
        assert float(np.abs(back - wav).max()) <= 0.5 / 32767 + 1e-7

    def test_header_bytes_exact(self, tmp_path):
        path = str(tmp_path / "a.wav")
        write_wav(np.zeros(4, dtype=np.float32), 44100, path)
        raw = Path(path).read_bytes()
        assert raw[:4] == b"RIFF"
        assert raw[8:12] == b"WAVE"
        assert raw[22:24] == (1).to_bytes(2, "little")
        assert raw[24:28] == (44100).to_bytes(4, "little")
        assert raw[34:36] == (16).to_bytes(2, "little")
        assert raw[-8:] == b"\x00" * 8

    def test_clipping_saturates(self, tmp_path):
        path = str(tmp_path / "a.wav")
        write_wav(np.array([2.0, -2.0], dtype=np.float32), 8000, path)
        raw = Path(path).read_bytes()
        pcm = np.frombuffer(raw[-4:], dtype="<i2")
        assert pcm[0] == 32767 and pcm[1] == -32767

    def test_rejects_matrix(self, tmp_path):
        with pytest.raises(ShapeError):
            write_wav(np.zeros((2, 2), dtype=np.float32), 8000, str(tmp_path / "a.wav"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_without_writing(self, tmp_path, bad):
        wav = np.zeros(6, dtype=np.float32)
        wav[[2, 4]] = bad
        path = tmp_path / "a.wav"
        with pytest.raises(DomainError, match="2 non-finite samples, the first at index 2"):
            write_wav(wav, 8000, str(path))
        assert not path.exists()

    def test_missing_directory_is_one_os_error(self, tmp_path):
        # A half-built wave writer would also report an ignored exception
        # when collected, which the warnings-as-errors setting turns into a
        # failure here.
        with pytest.raises(FileNotFoundError):
            write_wav(np.zeros(4, dtype=np.float32), 8000, str(tmp_path / "no" / "a.wav"))


class TestBench:
    def test_report_structure(self, bundle):
        report = bench([sung_score(12)], bundle, modes=("parallel", "full"), repeats=2, warmup=0)
        assert set(report["modes"]) == {"parallel", "full"}
        for stats in report["modes"].values():
            assert stats["runs"] == 2
            assert stats["median_latency_s"] >= 0
            assert stats["median_rtf"] > 0
        assert report["modes"]["parallel"]["median_min_slack_s"] is None
        assert isinstance(report["modes"]["full"]["median_min_slack_s"], float)
        assert report["machine"]

    def test_rejects_empty_scores(self, bundle):
        with pytest.raises(ConfigError):
            bench([], bundle)

    def test_rejects_unknown_mode(self, bundle):
        with pytest.raises(ConfigError):
            bench([sung_score(8)], bundle, modes=("fastest",))

    def test_rejects_empty_mode_selection(self, bundle):
        with pytest.raises(ConfigError, match="at least one mode"):
            bench([sung_score(8)], bundle, modes=())

    def test_rejects_a_mode_picked_twice(self, bundle):
        with pytest.raises(ConfigError, match=r"\['full'\] picked more than once"):
            bench([sung_score(8)], bundle, modes=("full", "parallel", "full"))


class TestVerify:
    def test_all_checks_pass_on_fresh_model(self, bundle):
        report = verify(bundle)
        assert [r["check"] for r in report] == list(VERIFY_CHECKS)
        assert all(r["status"] == "pass" for r in report)

    def test_empty_selection_rejected(self, bundle):
        with pytest.raises(ConfigError, match="at least one check"):
            verify(bundle, ())

    def test_rejects_a_check_picked_twice(self, bundle):
        with pytest.raises(ConfigError, match=r"\['finite'\] picked more than once"):
            verify(bundle, ("finite", "causality", "finite"))

    def test_unknown_check_rejected(self, bundle):
        with pytest.raises(ConfigError, match="unknown"):
            verify(bundle, ("conv_streaming", "vibes"))

    def test_probe_skipped_when_absent(self):
        cfg = tiny_config()
        bundle = build_bundle(cfg, make_random_tensors(cfg, seed=1))
        report = verify(bundle, ("padding_probe",))
        assert report[0]["status"] == "skip"

    def test_probe_fails_on_tampered_weights(self):
        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=1)
        tensors["__probe.wav"] = tensors["__probe.wav"] + np.float32(0.01)
        bundle = build_bundle(cfg, tensors)
        report = verify(bundle, ("padding_probe",))
        assert report[0]["status"] == "fail"

    def test_probe_flags_padding_mode_flip(self):
        # Weights made under natural padding, config later claims it off:
        # the generator pads differently, so the probe must mismatch.
        from dataclasses import replace

        from chunkvox.modelio import ModeFlags

        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=4)
        flipped = replace(cfg, flags=ModeFlags(natural_padding=False))
        bundle = build_bundle(flipped, tensors)
        report = verify(bundle, ("padding_probe",))
        assert report[0]["status"] == "fail"

    def test_length_laws_skipped_without_the_posterior(self):
        cfg = tiny_config()
        bundle = build_bundle(cfg, make_random_model(cfg, seed=1), posterior=False)
        report = {row["check"]: row for row in verify(bundle)}
        laws = report.pop("length_laws")
        assert laws["status"] == "skip" and "load_model(..., posterior=True)" in laws["detail"]
        assert all(row["status"] == "pass" for row in report.values())
        assert report["finite"]["detail"].endswith("the posterior's were not loaded")

    def test_conv_streaming_alone_sees_a_short_stream_history(self, bundle, monkeypatch):
        """Streams that carry one frame too little history still run, and the
        offline paths are untouched: only conv_streaming can tell."""
        real = convs.history
        monkeypatch.setattr(convs, "history", lambda spec: real(spec) - 1)
        report = {row["check"]: row for row in verify(bundle)}
        assert report.pop("conv_streaming")["status"] == "fail"
        assert all(row["status"] == "pass" for row in report.values())

    def test_a_check_that_raises_is_a_failed_row(self):
        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=3)
        tensors["decoder.0.w_q"] = np.full_like(tensors["decoder.0.w_q"], np.nan)
        report = {row["check"]: row for row in verify(build_bundle(cfg, tensors))}
        degenerate = report["attention_degenerate"]
        assert degenerate["status"] == "fail" and degenerate["detail"].startswith("DomainError")
        assert report["finite"]["status"] == "fail" and report["causality"]["status"] == "pass"

    def test_finite_names_every_non_finite_tensor(self):
        cfg = tiny_config()
        tensors = make_random_model(cfg, seed=3)
        assert verify(build_bundle(cfg, tensors), ("finite",))[0]["status"] == "pass"
        for name, value in (("decoder.0.w_q", np.nan), ("generator.post.bias", -np.inf)):
            tensors[name] = tensors[name].copy()
            tensors[name].flat[-1] = value
        report = verify(build_bundle(cfg, tensors), ("finite",))[0]
        assert report["status"] == "fail"
        assert "decoder.0.w_q" in report["detail"] and "generator.post.bias" in report["detail"]
        assert "decoder.0.w_k" not in report["detail"]


def write_model_files(tmp_path, cfg=None):
    cfg = cfg or tiny_config()
    cpath = str(tmp_path / "config.json")
    wpath = str(tmp_path / "weights.cssw")
    save_config(cpath, cfg)
    save_weights(wpath, make_random_model(cfg, seed=0))
    return cpath, wpath


def write_score_file(tmp_path, frames=12):
    path = str(tmp_path / "score.tsv")
    lines = ["# test score"]
    per = frames // 3
    for i in range(3):
        d = per if i < 2 else frames - 2 * per
        lines.append(f"{i + 1}\t{60 + i}\t{d}")
    Path(path).write_text("\n".join(lines) + "\n")
    return path


def selection_error(tmp_path, capsys, command, option, value):
    """Run ``command`` with ``option value`` on a fresh model; it must exit 1
    with nothing on stdout and a JSON error on stderr, which is returned."""
    cpath, wpath = write_model_files(tmp_path)
    args = [command, "--config", cpath, "--weights", wpath, option, value]
    if command == "bench":
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        write_score_file(scores_dir, frames=9)
        args += ["--scores", str(scores_dir)]
    assert cli_main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)["error"]


class TestCli:
    def test_make_random_model_and_synth(self, tmp_path, capsys):
        cpath, wpath = str(tmp_path / "c.json"), str(tmp_path / "w.cssw")
        save_config(cpath, tiny_config())
        assert cli_main(["make-random-model", "--config", cpath, "--out", wpath]) == 0
        capsys.readouterr()
        spath = write_score_file(tmp_path)
        opath = str(tmp_path / "out.wav")
        mpath = str(tmp_path / "metrics.json")
        code = cli_main(
            ["synth", "--config", cpath, "--weights", wpath, "--score", spath,
             "--out", opath, "--mode", "full", "--metrics", mpath]
        )
        assert code == 0
        wav, rate = read_wav(opath)
        assert rate == 800
        assert wav.shape == (12 * 4,)
        metrics = json.loads(Path(mpath).read_text())
        assert metrics["mode"] == "full"
        assert metrics["frames"] == 12
        out = json.loads(capsys.readouterr().out)
        assert out["out"] == opath

    def test_init_config_writes_default(self, tmp_path, capsys):
        cpath, wpath = str(tmp_path / "c.json"), str(tmp_path / "w.cssw")
        code = cli_main(
            ["make-random-model", "--config", cpath, "--out", wpath, "--init-config"]
        )
        assert code == 0
        capsys.readouterr()
        obj = json.loads(Path(cpath).read_text())
        assert obj["version"] == 1
        assert obj["chunk"]["chunk_size"] == 20

    def test_synth_chunk_overrides(self, tmp_path, capsys):
        cpath, wpath = write_model_files(tmp_path)
        spath = write_score_file(tmp_path)
        opath = str(tmp_path / "out.wav")
        code = cli_main(
            ["synth", "--config", cpath, "--weights", wpath, "--score", spath,
             "--out", opath, "--chunk-size", "2", "--right-context", "1"]
        )
        assert code == 0
        capsys.readouterr()
        wav, _ = read_wav(opath)
        assert wav.shape == (48,)

    def test_bench_command(self, tmp_path, capsys):
        cpath, wpath = write_model_files(tmp_path)
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        write_score_file(scores_dir, frames=9)
        code = cli_main(
            ["bench", "--config", cpath, "--weights", wpath, "--scores", str(scores_dir),
             "--mode", "parallel,full", "--repeats", "1", "--warmup", "0"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["modes"]) == {"parallel", "full"}
        assert report["score_files"] == ["score.tsv"]

    def test_bench_empty_dir_is_json_error(self, tmp_path, capsys):
        cpath, wpath = write_model_files(tmp_path)
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        code = cli_main(
            ["bench", "--config", cpath, "--weights", wpath, "--scores", str(scores_dir)]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize(
        "command, option, value, what",
        [("bench", "--mode", ",", "mode"), ("verify", "--checks", "", "check")],
    )
    def test_empty_selection_is_json_error(self, tmp_path, capsys, command, option, value, what):
        err = selection_error(tmp_path, capsys, command, option, value)
        assert err["type"] == "ConfigError" and f"at least one {what}" in err["message"]

    @pytest.mark.parametrize(
        "command, option, value, what",
        [("bench", "--mode", "full,full", "mode"), ("verify", "--checks", "finite,finite", "check")],
    )
    def test_repeated_selection_is_json_error(self, tmp_path, capsys, command, option, value, what):
        err = selection_error(tmp_path, capsys, command, option, value)
        assert err["type"] == "ConfigError"
        assert f"{what}s ['{value.split(',')[0]}'] picked more than once" in err["message"]

    def test_verify_command_exits_zero(self, tmp_path, capsys):
        cpath, wpath = write_model_files(tmp_path)
        assert cli_main(["verify", "--config", cpath, "--weights", wpath]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "pass" for r in report["checks"])

    def test_verify_exits_zero_even_on_failing_check(self, tmp_path, capsys):
        cfg = tiny_config()
        cpath = str(tmp_path / "c.json")
        wpath = str(tmp_path / "w.cssw")
        save_config(cpath, cfg)
        tensors = make_random_model(cfg, seed=0)
        tensors["__probe.wav"] = tensors["__probe.wav"] + np.float32(0.5)
        save_weights(wpath, tensors)
        code = cli_main(
            ["verify", "--config", cpath, "--weights", wpath, "--checks", "padding_probe"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["status"] == "fail"

    @pytest.mark.parametrize("command", ["synth", "make-random-model"])
    def test_negative_seed_is_json_config_error(self, tmp_path, capsys, command):
        cpath, wpath = write_model_files(tmp_path)
        if command == "synth":
            out = str(tmp_path / "o.wav")
            args = ["--weights", wpath, "--score", write_score_file(tmp_path), "--out", out]
        else:
            args = ["--out", str(tmp_path / "w2.cssw")]
        assert cli_main([command, "--config", cpath, *args, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ConfigError" and "got -1" in err["message"]

    def test_frame_count_above_the_cap_is_json_domain_error(self, tmp_path, capsys):
        cpath, wpath = write_model_files(tmp_path)
        spath = tmp_path / "huge.tsv"
        spath.write_text("1\t-\t1000000000000\n")
        args = ["--weights", wpath, "--score", str(spath), "--out", str(tmp_path / "o.wav")]
        assert cli_main(["synth", "--config", cpath, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)["error"]
        assert err["type"] == "DomainError"
        assert f"1000000000000 frames, more than the {MAX_FRAMES}" in err["message"]

    def test_out_to_a_missing_directory_prints_one_json_line(self, tmp_path):
        """Run as a process, so stderr holds everything the interpreter
        prints, including exceptions ignored while collecting objects."""
        cpath, wpath = write_model_files(tmp_path)
        out = str(tmp_path / "no" / "o.wav")
        args = ["--weights", wpath, "--score", write_score_file(tmp_path), "--out", out]
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "chunkvox.cli", "synth", "--config", cpath, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])["error"]
        assert err["type"] == "OSError" and out in err["message"]

    def test_errors_are_json_on_stderr(self, tmp_path, capsys):
        code = cli_main(
            ["synth", "--config", str(tmp_path / "nope.json"),
             "--weights", str(tmp_path / "nope.cssw"),
             "--score", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o.wav")]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and err["error"]["message"]

    @pytest.mark.parametrize("command", ["synth", "verify", "bench"])
    def test_non_utf8_input_is_json_format_error(self, tmp_path, capsys, command):
        """A score (synth, bench) or config (verify) that is not UTF-8 is a
        FormatError naming the file, not a traceback."""
        cpath, wpath = write_model_files(tmp_path)
        bad = tmp_path / "bad" / "score.tsv"
        bad.parent.mkdir()
        bad.write_bytes(b"\xff\xfe1\t60\t3\n")
        extra = {
            "synth": ["--score", str(bad), "--out", str(tmp_path / "o.wav")],
            "verify": [],
            "bench": ["--scores", str(bad.parent)],
        }[command]
        config = str(bad) if command == "verify" else cpath
        args = [command, "--config", config, "--weights", wpath, *extra]
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "FormatError" and str(bad) in err["message"]

    def test_corrupt_weights_error_is_json(self, tmp_path, capsys):
        cpath, wpath = write_model_files(tmp_path)
        raw = bytearray(Path(wpath).read_bytes())
        raw[0] ^= 0xFF
        Path(wpath).write_bytes(raw)
        code = cli_main(["verify", "--config", cpath, "--weights", wpath])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "FormatError"


class TestBenchmarkWrapTargets:
    def test_every_span_target_resolves(self, monkeypatch):
        """A rename that drops a benchmark wrap target fails here, not as a missing metric."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)
        spec.loader.exec_module(spans)
        recorder = spans.Recorder()
        assert recorder.missing == []
        assert len(recorder.wrapped) == len(spans.TARGETS)
