"""Acceptance suite: one test per shipping criterion.

Each criterion prints a single PASS/FAIL line (echoed again in the
terminal summary) and asserts, so a red criterion is also a red test.
"""

import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from chunkvox.acoustic import GaussianParams, LossReport, ScoreSequence, kl_gaussian
from chunkvox.convs import (
    ConvSpec,
    natural_pad_forward,
    natural_to_padded,
    net_offline,
    net_stream_init,
    net_stream_step,
    required_history,
    total_upsampling,
)
from chunkvox.decoder import ChunkConfig, DecoderStream, chunkstream_decode, full_attention_oracle
from chunkvox.dsp import mcd
from chunkvox.errors import FormatError
from chunkvox.modelio import (
    build_bundle,
    config_from_json,
    config_to_json,
    default_config,
    load_config,
    load_weights,
    make_random_model,
    make_random_tensors,
    save_config,
    save_weights,
)
from chunkvox.pipeline import read_wav, synth, write_wav
from chunkvox.vocoder import Generator, GeneratorConfig, generator_tensor_shapes

from netgen import rand_decoder_weights, rand_natural_net, random_chunking
from test_modelio import tiny_config

F32 = np.float32

RESULTS: list[str] = []


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} [{criterion}] {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def rand_stack(rng, kind, pad_mode):
    depth = int(rng.integers(1, 4))
    net = []
    cin = int(rng.integers(1, 4))
    for _ in range(depth):
        cout = int(rng.integers(1, 4))
        if kind == "tconv":
            s = int(rng.integers(1, 5))
            k = max(s * int(rng.integers(1, 4)) + int(rng.integers(0, s)), s)
            spec = ConvSpec(cin, cout, k, stride=s, transposed=True, pad_mode=pad_mode)
        else:
            spec = ConvSpec(
                cin, cout, int(rng.integers(1, 6)),
                stride=int(rng.integers(1, 4)), dilation=int(rng.integers(1, 4)),
                pad_mode=pad_mode,
            )
        scale = 1.0 / math.sqrt(cin * spec.kernel_size)
        w = (rng.normal(size=(cout, cin, spec.kernel_size)) * scale).astype(F32)
        b = (rng.normal(size=(cout,)) * 0.1).astype(F32)
        net.append((spec, w, b))
        cin = cout
    return net


@pytest.fixture(scope="module")
def full_scale_bundle():
    cfg = default_config()
    return build_bundle(cfg, make_random_tensors(cfg, seed=2026))


def test_criterion_1_streaming_conv_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = {"conv": 0.0, "tconv": 0.0}
    for kind in ("conv", "tconv"):
        for _ in range(100):
            pad_mode = "replicate" if rng.random() < 0.5 else "constant"
            net = rand_stack(rng, kind, pad_mode)
            length = int(rng.integers(16, 129))
            x = rng.normal(size=(net[0][0].in_channels, length)).astype(F32)
            want = net_offline(x, net)
            states = net_stream_init(net)
            outs = []
            pos = 0
            for n in random_chunking(rng, length):
                states, y = net_stream_step(states, x[:, pos : pos + n], net)
                outs.append(y)
                pos += n
            got = np.concatenate(outs, axis=1)
            assert got.shape == want.shape
            if want.size:
                worst[kind] = max(worst[kind], float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    ok = worst["conv"] <= 1e-6 and worst["tconv"] <= 1e-5 and elapsed < 30.0
    report(
        "streaming conv equivalence",
        ok,
        f"100 conv stacks (len 16..128) max diff {worst['conv']:.2e} (tol 1e-6), "
        f"100 tconv stacks max diff {worst['tconv']:.2e} (tol 1e-5), {elapsed:.1f}s",
    )


def test_criterion_2_natural_history_arithmetic():
    rng = np.random.default_rng(202)
    conv = ConvSpec(1, 1, 4, pad_mode="natural")
    tconv = ConvSpec(1, 1, 4, stride=2, transposed=True, pad_mode="natural")
    net = [
        (conv, rng.normal(size=(1, 1, 4)).astype(F32), rng.normal(size=(1,)).astype(F32) * 0.1),
        (tconv, rng.normal(size=(1, 1, 4)).astype(F32), rng.normal(size=(1,)).astype(F32) * 0.1),
    ]
    hist = required_history(net, 2)
    z = rng.normal(size=(1, 30)).astype(F32)
    out, replicated = natural_pad_forward(z, 10, 2, net)
    want = net_offline(z, natural_to_padded(net))[:, 20:24]
    diff = float(np.abs(out - want).max())
    ok = hist == 4 and out.shape == (1, 4) and not replicated and diff <= 1e-6
    report(
        "natural padding arithmetic",
        ok,
        f"conv k4 + tconv k4 s2: history {hist} (want 4), 2-frame slice gave "
        f"{out.shape[1]} samples, max diff vs offline {diff:.2e} (tol 1e-6)",
    )


def test_criterion_3_natural_slice_consistency():
    rng = np.random.default_rng(303)
    worst = 0.0
    nets = 0
    while nets < 50:
        net = rand_natural_net(rng, channels=3)
        up = total_upsampling(net)
        slice_len = int(rng.integers(1, 6))
        hist = required_history(net, slice_len)
        if hist > 40:
            continue
        nets += 1
        extra = int(rng.integers(0, 6))
        t = hist + slice_len + extra + int(rng.integers(0, 4))
        start = hist + extra
        z = rng.normal(size=(3, t)).astype(F32)
        out, replicated = natural_pad_forward(z, start, slice_len, net)
        assert not replicated
        assert out.shape == (net[-1][0].out_channels, slice_len * up)
        want = net_offline(z, natural_to_padded(net))[:, start * up : (start + slice_len) * up]
        worst = max(worst, float(np.abs(out - want).max()))
    ok = worst <= 1e-6
    report(
        "natural slice consistency",
        ok,
        f"50 random stacks, interior slices: max diff vs offline {worst:.2e} (tol 1e-6)",
    )


def test_criterion_4_degenerate_attention_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        heads = int(rng.choice([1, 2]))
        hidden = int(rng.choice([4, 8, 16]))
        t = int(rng.integers(2, 65))
        cfg = ChunkConfig(
            chunk_size=t + int(rng.integers(0, 8)),
            left_context=t + int(rng.integers(0, 8)),
            right_context=0,
            num_layers=int(rng.integers(1, 4)),
            hidden=hidden,
            ffn_hidden=int(rng.integers(4, 24)),
            num_heads=heads,
            memory_slots=0,
            smooth_kernel=int(rng.choice([1, 3])),
            use_smooth=bool(rng.random() < 0.7),
        )
        weights = rand_decoder_weights(rng, cfg)
        frames = rng.uniform(-1, 1, (t, hidden)).astype(F32)
        got = chunkstream_decode(frames, cfg, weights)
        want = full_attention_oracle(frames, cfg, weights)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-5
    report(
        "degenerate attention equivalence",
        ok,
        f"50 seeds, T<=64 with chunk and left context >= T, no memory or lookahead, "
        f"vs full attention: max diff {worst:.2e} (tol 1e-5)",
    )


def test_criterion_5_bitwise_chunk_causality():
    rng = np.random.default_rng(505)
    cfg = ChunkConfig(
        chunk_size=20, left_context=10, right_context=4, num_layers=4,
        hidden=192, ffn_hidden=768, num_heads=2, memory_slots=4,
    )
    weights = rand_decoder_weights(rng, cfg)
    frames = rng.uniform(-1, 1, (100, 192)).astype(F32)

    def all_chunks(x):
        stream = DecoderStream(cfg, weights)
        outs = stream.feed(x)
        outs += stream.finish()
        return outs

    base = all_chunks(frames)
    assert len(base) == 5 and base[0].shape == (20, 192)
    immune = []
    for i in (1, 2, 3, 4):
        boundary = i * cfg.chunk_size + cfg.right_context
        perturbed = frames.copy()
        perturbed[boundary:] += F32(1.0)
        immune.append(bool(np.array_equal(base[i - 1], all_chunks(perturbed)[i - 1])))
    inside = frames.copy()
    inside[cfg.chunk_size + cfg.right_context - 1] += F32(1.0)
    sensitive = not np.array_equal(base[0], all_chunks(inside)[0])
    ok = all(immune) and sensitive
    report(
        "bitwise chunk causality",
        ok,
        f"chunk 20/left 10/right 4, 4 layers, width 192, 100 frames: chunks 1..4 "
        f"bit-identical under perturbation past their lookahead ({immune}), "
        f"chunk 1 still sensitive to its own lookahead ({sensitive})",
    )


def test_criterion_6_generator_length_law():
    rng = np.random.default_rng(606)
    checked = 0
    failures = []
    for strides in ((8, 8, 4, 2), (8, 8, 2, 2)):
        cfg = GeneratorConfig(
            latent_dim=8,
            base_channels=16,
            upsample_strides=strides,
            resblock_kernel_sizes=(3,),
            resblock_dilations=((1, 3),),
        )
        hop = cfg.hop
        tensors = {
            name: rng.uniform(-0.1, 0.1, shape).astype(F32)
            for name, shape in generator_tensor_shapes(cfg).items()
        }
        gen = Generator(cfg, tensors, pad_mode="replicate")
        for frames in range(1, 41):
            z = rng.uniform(-1, 1, (8, frames)).astype(F32)
            got = gen.offline(z).shape[0]
            checked += 1
            if got != frames * hop:
                failures.append(f"hop {hop}, {frames} frames -> {got}")
    ok = not failures and checked == 80
    report(
        "generator length law",
        ok,
        f"hops 512 and 256, frames 1..40: {checked - len(failures)}/{checked} runs "
        f"emitted exactly frames*hop" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_7_closed_form_numerics():
    one = np.ones((1, 1), dtype=np.float64)
    kl_a = kl_gaussian(
        GaussianParams(mu=one, sigma=one), GaussianParams(mu=0 * one, sigma=one)
    )
    kl_b = kl_gaussian(
        GaussianParams(mu=0 * one, sigma=2 * one), GaussianParams(mu=0 * one, sigma=one)
    )
    err_a = abs(kl_a - 0.5)
    err_b = abs(kl_b - (1.5 - math.log(2.0)))
    pred = np.zeros((3, 4), dtype=np.float64)
    gt = pred.copy()
    gt[:, 2] += 1.0
    err_c = abs(mcd(pred, gt) - (10.0 / math.log(10.0)) * math.sqrt(2.0))
    rep = LossReport(
        l_f0=0.125, l_mcep=0.25, l_dur=0.5, l_kl=1.0, l_recon=2.0,
        l_adv_g=0.0625, l_fm_g=4.0,
    )
    additive = (
        rep.l_am == 0.125 + 0.25 + 0.5
        and rep.total == 2.0 + rep.l_am + 1.0 + 0.0625 + 4.0
    )
    ok = err_a <= 1e-9 and err_b <= 1e-9 and err_c <= 1e-9 and additive
    report(
        "closed form numerics",
        ok,
        f"KL(N(1,1)||N(0,1)) err {err_a:.1e}, KL(N(0,4)||N(0,1)) err {err_b:.1e}, "
        f"unit-offset MCD err {err_c:.1e} (tol 1e-9), loss additivity exact {additive}",
    )


def test_criterion_8_semi_parallel_agreement(full_scale_bundle):
    score = ScoreSequence(
        phonemes=tuple((i % 40) + 1 for i in range(8)),
        notes=tuple(55 + (i * 3) % 24 for i in range(8)),
        durations=(6, 5, 7, 6, 5, 6, 6, 6),
    )
    wav_p, _ = synth(score, full_scale_bundle, mode="parallel", eps_seed=11)
    wav_s, _ = synth(score, full_scale_bundle, mode="semi", eps_seed=11)
    wav_f, _ = synth(score, full_scale_bundle, mode="full", eps_seed=11)
    same_len = wav_p.shape == wav_s.shape == wav_f.shape
    diff = float(np.abs(wav_p - wav_s).max()) if same_len else float("inf")
    ok = same_len and diff <= 1e-5
    report(
        "semi matches parallel",
        ok,
        f"47-frame score at width 192, hop 512: all three modes emitted "
        f"{wav_p.shape[0]} samples ({same_len}), semi vs parallel max sample diff "
        f"{diff:.2e} (tol 1e-5)",
    )


def test_criterion_9_latency_scaling(full_scale_bundle):
    def score_of(frames):
        return ScoreSequence(phonemes=(1, 2), notes=(60, 67), durations=(frames // 2, frames - frames // 2))

    def median_latency(mode, frames):
        score = score_of(frames)
        for _ in range(3):
            synth(score, full_scale_bundle, mode=mode, eps_seed=0)
        vals = []
        for _ in range(20):
            _, m = synth(score, full_scale_bundle, mode=mode, eps_seed=0)
            vals.append(m.latency_s)
        return statistics.median(vals)

    full_40 = median_latency("full", 40)
    full_80 = median_latency("full", 80)
    par_40 = median_latency("parallel", 40)
    par_80 = median_latency("parallel", 80)
    full_change = abs(full_80 / full_40 - 1.0)
    par_growth = par_80 / par_40 - 1.0
    ok = full_change < 0.25 and par_growth > 0.60
    report(
        "streaming latency shape",
        ok,
        f"median first-audio latency over 20 runs: full {full_40 * 1e3:.1f} -> "
        f"{full_80 * 1e3:.1f} ms ({full_change:+.0%} change, want <25%), parallel "
        f"{par_40 * 1e3:.1f} -> {par_80 * 1e3:.1f} ms ({par_growth:+.0%} growth, want >60%)",
    )


def test_criterion_10_model_file_round_trip(tmp_path):
    cfg = tiny_config()
    tensors = make_random_model(cfg, seed=77)
    cpath = str(tmp_path / "config.json")
    wpath = str(tmp_path / "weights.cssw")
    apath = str(tmp_path / "audio.wav")

    save_config(cpath, cfg)
    config_ok = load_config(cpath) == cfg

    save_weights(wpath, tensors)
    loaded = load_weights(wpath)
    weights_ok = set(loaded) == set(tensors) and all(
        np.array_equal(loaded[k], tensors[k]) for k in tensors
    )

    rng = np.random.default_rng(0)
    wav = rng.uniform(-0.99, 0.99, 500).astype(F32)
    write_wav(wav, 8000, apath)
    back, rate = read_wav(apath)
    wav_ok = rate == 8000 and back.shape == wav.shape and float(
        np.abs(back - wav).max()
    ) <= 0.5 / 32767 + 1e-7

    raw = Path(wpath).read_bytes()
    tampered = 0
    corrupt = bytearray(raw)
    corrupt[0] ^= 0xFF
    Path(wpath).write_bytes(corrupt)
    try:
        load_weights(wpath)
    except FormatError:
        tampered += 1
    Path(wpath).write_bytes(raw[: len(raw) // 2])
    try:
        load_weights(wpath)
    except FormatError:
        tampered += 1
    bad_cfg = config_to_json(cfg)
    bad_cfg["chunk"]["mystery"] = 1
    try:
        config_from_json(bad_cfg)
    except FormatError:
        tampered += 1

    ok = config_ok and weights_ok and wav_ok and tampered == 3
    report(
        "model file round trip",
        ok,
        f"config equal {config_ok}, {len(tensors)} tensors bit-exact {weights_ok}, "
        f"wav error within half-step {wav_ok}, {tampered}/3 tampered inputs rejected",
    )
