"""Full enhancement pipeline on synthetic utterances."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnmm.dsp
import nnmm.enhancer as enhancer
import nnmm.mixmax
from nnmm.corpus import (
    SyntheticCorpusSpec,
    assemble_frames,
    default_envelopes,
    mix_at_snr,
    step_white_noise,
    synthesize_corpus,
    white_noise,
)
from nnmm.dsp import (
    ComplexSpectrogram,
    Waveform,
    edge_padding,
    istft,
    log_magnitude,
    log_spectra,
    reconstruct_frame,
    stft,
)
from nnmm.enhancer import (
    REFERENCE_MODE,
    EnhancerConfig,
    enhance_batch,
    enhance_mixmax_original,
    enhance_utterance,
    noise_prefix_frames,
)
from nnmm.features import feature_matrix
from nnmm.mixmax import (
    MixmaxDiagnostics,
    check_posteriors,
    conditional_mean_below,
    generative_posterior,
    soft_subtract,
    speech_dominance,
    speech_terms,
    weighted_mmse,
)
from nnmm.mog import train_supervised
from nnmm.nn import NnClassifier, forward, init_classifier, train
from nnmm.noise import NoiseModel, adapt, init_from_prefix

from oracles import enhance_by_frame


@pytest.fixture(scope="module")
def setup():
    """Small trained models plus one noisy test utterance."""
    spec = SyntheticCorpusSpec(
        envelopes=default_envelopes(3),
        utterance_seconds=(1.0, 1.4),
        seed=21,
    )
    utts = synthesize_corpus(spec, 8)
    logs, feats, labels = assemble_frames(utts, 512)
    mog = train_supervised(logs, labels, 3)
    net, _ = train(feats, labels, 3, n_hidden=24, epochs=10, seed=0)

    clean = synthesize_corpus(
        SyntheticCorpusSpec(envelopes=default_envelopes(3),
                            utterance_seconds=(1.2, 1.3), seed=99),
        1,
    )[0].waveform
    # half a second of silence up front so the noise prefix is noise-only
    padded = Waveform(
        samples=np.concatenate([np.zeros(8000), clean.samples]),
        sample_rate=clean.sample_rate,
    )
    noisy = mix_at_snr(padded, white_noise(len(padded), 16000, seed=5), 5.0)
    return mog, net, padded, noisy


# Samples [GAP) of a silence-gap input are digital silence.
GAP = (12000, 14000)


def with_silence_gap(noisy):
    """A copy with 2000 samples of digital silence, where the max density
    underflows in some bins and the tail fallback triggers."""
    samples = noisy.samples.copy()
    samples[GAP[0]:GAP[1]] = 0.0
    return Waveform(samples=samples, sample_rate=noisy.sample_rate)


def named_input(name, clean, noisy):
    """The white input, a copy whose noise steps up halfway, or the white
    input with a silence gap."""
    if name == "step":
        return noisy_rows(clean, [(6, 5.0, True, False)])[0]
    return {"white": noisy, "silence-gap": with_silence_gap(noisy)}[name]


def count_calls(monkeypatch, names, module=enhancer, calls=None):
    """Count the calls ``module``'s named functions get through its names,
    by default those ``nnmm.enhancer`` makes, into ``calls``; a name never
    called stays out of the returned dict."""
    calls = {} if calls is None else calls
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def count_synthesis_calls(monkeypatch, names):
    """:func:`count_calls` of ``names`` with the synthesis kernels counted
    on both threads: the worker calls ``soft_subtract`` and
    ``reconstruct_frame`` through their own modules."""
    calls = count_calls(monkeypatch, names)
    count_calls(monkeypatch, ("reconstruct_frame",), nnmm.dsp, calls)
    count_calls(monkeypatch, ("soft_subtract",), nnmm.mixmax, calls)
    return calls


# ---------------------------------------------------------------------------
# Basic contracts
# ---------------------------------------------------------------------------


class TestContracts:
    def test_output_length_and_rate(self, setup):
        mog, net, _, noisy = setup
        out, report = enhance_utterance(noisy, mog, net, EnhancerConfig())
        assert len(out) == len(noisy)
        assert out.sample_rate == noisy.sample_rate
        assert report.frames_processed == stft(noisy, 512).n_frames
        assert 0.0 <= report.mean_spp <= 1.0

    def test_beta_zero_is_identity(self, setup):
        """With no attenuation allowed, soft subtraction passes z through."""
        mog, net, _, noisy = setup
        out, _ = enhance_utterance(noisy, mog, net, EnhancerConfig(beta=0.0))
        err = np.sqrt(np.mean((out.samples - noisy.samples) ** 2))
        assert err < 1e-6

    def test_deterministic(self, setup):
        mog, net, _, noisy = setup
        a, ra = enhance_utterance(noisy, mog, net, EnhancerConfig())
        b, rb = enhance_utterance(noisy, mog, net, EnhancerConfig())
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(ra.frame_mean_spp, rb.frame_mean_spp)

    def test_generative_posterior_needs_no_net(self, setup):
        mog, _, _, noisy = setup
        cfg = EnhancerConfig(posterior_source="generative")
        out, _ = enhance_utterance(noisy, mog, None, cfg)
        assert len(out) == len(noisy)

    def test_nn_posterior_requires_net(self, setup):
        mog, _, _, noisy = setup
        with pytest.raises(ValueError, match="requires a trained classifier"):
            enhance_utterance(noisy, mog, None, EnhancerConfig())
        with pytest.raises(ValueError, match="requires a trained classifier"):
            enhance_batch([noisy, noisy], mog, None, EnhancerConfig())

    def test_alpha_range(self):
        """alpha lies in [0, 1): 0 holds the prefix noise model, 1 would
        replace the model by each frame."""
        assert EnhancerConfig(alpha=0.0).alpha == 0.0
        for bad in (1.0, -0.1):
            with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\)"):
                EnhancerConfig(alpha=bad)

    def test_beta_and_noise_prefix_range(self):
        """beta lies in [0, inf) and noise_prefix in (0, inf): NaN and
        infinity are refused as the values out of range are."""
        assert EnhancerConfig(beta=0.0).beta == 0.0
        for field, bads, message in [
                ("beta", (-1.0, np.nan, np.inf), "beta must be finite and >= 0"),
                ("noise_prefix", (0.0, np.nan, np.inf), "noise_prefix must be finite and positive")]:
            for bad in bads:
                with pytest.raises(ValueError, match=message):
                    EnhancerConfig(**{field: bad})

    def test_too_short_utterance_rejected(self, setup):
        mog, net, _, _ = setup
        stub = Waveform(samples=np.random.default_rng(0).standard_normal(700),
                        sample_rate=16000)
        with pytest.raises(ValueError, match="prefix"):
            enhance_utterance(stub, mog, net, EnhancerConfig())

    @pytest.mark.parametrize("mismatch", ["classes", "inputs"])
    def test_mismatched_classifier_rejected(self, setup, mismatch):
        """A classifier whose class count differs from the mixture's, or
        whose input dimension differs from the features', is refused."""
        mog, net, _, noisy = setup
        n_inputs, n_classes = net.n_inputs, mog.n_components
        if mismatch == "classes":
            n_classes += 1
        else:
            n_inputs += 1
        bad = init_classifier(n_inputs, n_classes, n_hidden=4, seed=0)
        message = "class count" if mismatch == "classes" else f"expects {n_inputs}-dim inputs"
        with pytest.raises(ValueError, match=message):
            enhance_utterance(noisy, mog, bad, EnhancerConfig())

    def test_mismatched_frame_length_rejected(self, setup):
        mog, net, _, noisy = setup
        with pytest.raises(ValueError, match="bin count"):
            enhance_utterance(noisy, mog, net, EnhancerConfig(frame_length=256))


# ---------------------------------------------------------------------------
# Behaviour on noise vs speech
# ---------------------------------------------------------------------------


class TestBehaviour:
    def test_noise_only_input_is_suppressed(self, setup):
        """Pure noise: low presence probability, strong energy drop."""
        mog, net, _, _ = setup
        noise = white_noise(24000, 16000, seed=17)
        out, report = enhance_utterance(noise, mog, net, EnhancerConfig())
        assert report.mean_spp < 0.35
        e_in = np.mean(noise.samples**2)
        e_out = np.mean(out.samples**2)
        assert e_out < 0.25 * e_in

    def test_clean_speech_mostly_preserved(self, setup):
        """Clean input with a quiet prefix should come through nearly intact."""
        mog, net, clean, _ = setup
        # tiny dither so the prefix is not exactly silent
        rng = np.random.default_rng(3)
        x = clean.samples + 1e-5 * rng.standard_normal(len(clean))
        out, _ = enhance_utterance(Waveform(samples=x, sample_rate=16000),
                                   mog, net, EnhancerConfig())
        active = np.abs(clean.samples) > 0.01
        rms_in = np.sqrt(np.mean(clean.samples[active] ** 2))
        rms_diff = np.sqrt(np.mean((out.samples[active] - clean.samples[active]) ** 2))
        assert rms_diff < 0.35 * rms_in

    def test_enhancement_improves_snr(self, setup):
        from nnmm.metrics import segmental_snr

        mog, net, clean, noisy = setup
        out, _ = enhance_utterance(noisy, mog, net, EnhancerConfig())
        assert segmental_snr(clean, out) > segmental_snr(clean, noisy) + 1.0

    def test_attenuation_never_adds_energy(self, setup):
        """With gains capped at 1, output energy cannot exceed input energy."""
        mog, net, _, noisy = setup
        out, _ = enhance_utterance(noisy, mog, net, EnhancerConfig(beta=1.5))
        assert np.mean(out.samples**2) < np.mean(noisy.samples**2)


# ---------------------------------------------------------------------------
# Composition against the frame-level pieces
# ---------------------------------------------------------------------------


class TestComposition:
    def test_fixed_noise_mmse_matches_manual_frames(self, setup):
        """Reference mode equals the frame-by-frame estimator calls, through
        reconstruction, overlap-add and the edge-padding slice.  The default
        config is passed: the reference mode sets its own estimator and
        posterior source."""
        mog, _, _, noisy = setup
        cfg = EnhancerConfig()
        spec = stft(noisy, 512)
        logs = log_spectra(spec)
        noise = init_from_prefix(noise_prefix_frames(logs, 16000, cfg))

        manual = np.empty_like(logs)
        for t in range(spec.n_frames):
            speech = speech_terms(logs[t], mog)
            rho, h = speech_dominance(logs[t], speech, noise)
            p = generative_posterior(h, mog)
            check_posteriors(p)
            manual[t] = weighted_mmse(logs[t], p, rho,
                                      conditional_mean_below(logs[t], speech, mog))

        # spot-check one frame against the closed form written out
        t = spec.n_frames // 2
        speech = speech_terms(logs[t], mog)
        rho, h = speech_dominance(logs[t], speech, noise)
        p = generative_posterior(h, mog)
        below = conditional_mean_below(logs[t], speech, mog)
        expect = p @ (rho * logs[t][np.newaxis, :] + (1.0 - rho) * below)
        np.testing.assert_allclose(manual[t], expect, rtol=0, atol=1e-12)

        frames = np.array([reconstruct_frame(manual[t], spec.frames[t])
                           for t in range(spec.n_frames)])
        y = istft(ComplexSpectrogram(frames=frames, frame_length=512))
        pad = edge_padding(512)
        expected = y[pad:pad + len(noisy)]

        out = enhance_mixmax_original(noisy, mog, cfg)
        assert len(out) == len(noisy)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("inputs", ["white", "silence-gap"])
    def test_mixmax_original_is_the_reference_mode(self, setup, inputs):
        """enhance_mixmax_original is enhance_utterance's waveform with the
        config set to REFERENCE_MODE, bit for bit, whatever the config's
        own alpha, estimator and posterior source."""
        mog, _, clean, noisy = setup
        noisy = named_input(inputs, clean, noisy)
        cfg = EnhancerConfig(alpha=0.3, beta=1.0, estimator="soft-subtraction",
                             posterior_source="nn")
        out = enhance_mixmax_original(noisy, mog, cfg)
        expected, _ = enhance_utterance(noisy, mog, None, replace(cfg, **REFERENCE_MODE))
        assert isinstance(out, Waveform) and out.sample_rate == expected.sample_rate
        np.testing.assert_array_equal(out.samples, expected.samples)

    @staticmethod
    def replay_full_loop(setup, posterior_source):
        """Replaying dominance -> posterior -> SPP -> subtract -> adapt by hand
        reproduces the report exactly and keeps every frame within bounds.
        Each frame's dominance reads the noise model held at the start of
        its step of NOISE_STEP frames; every frame adapts it.

        A stretch of digital silence makes the max density underflow in some
        bins, so the fallback counters have something to count.
        """
        mog, net, _, noisy = setup
        noisy = with_silence_gap(noisy)
        cfg = EnhancerConfig(posterior_source=posterior_source)
        spec = stft(noisy, 512)
        logs = log_spectra(spec)
        noise = init_from_prefix(noise_prefix_frames(logs, 16000, cfg))
        feats = feature_matrix(spec, 16000)

        undecidable = np.zeros((), np.int64)
        mean_spp = np.empty(spec.n_frames)
        for t in range(spec.n_frames):
            z = logs[t]
            if t % enhancer.NOISE_STEP == 0:
                held = noise
            rho, h = speech_dominance(z, speech_terms(z, mog), held, undecidable)
            if posterior_source == "nn":
                p = forward(net, feats[t])
            else:
                p = generative_posterior(h, mog)
            spp = np.clip(p @ rho, 0.0, 1.0)
            mean_spp[t] = spp.mean()
            xhat = soft_subtract(z, spp, cfg.beta)
            assert np.all(xhat <= z + 1e-15)
            assert np.all(xhat >= z - cfg.beta - 1e-15)
            noise = adapt(noise, z, spp, cfg.alpha)
        assert undecidable > 0

        _, report = enhance_utterance(noisy, mog, net, cfg)
        np.testing.assert_allclose(report.frame_mean_spp, mean_spp, atol=1e-14)
        np.testing.assert_allclose(report.noise.mu, noise.mu, atol=1e-14)
        np.testing.assert_allclose(report.noise.sigma, noise.sigma, atol=1e-14)
        assert report.diagnostics == MixmaxDiagnostics(undecidable_bins=int(undecidable))

    def test_full_loop_replication(self, setup):
        self.replay_full_loop(setup, "nn")

    def test_full_loop_replication_generative(self, setup):
        self.replay_full_loop(setup, "generative")


# ---------------------------------------------------------------------------
# Hoisted precompute against the frame-by-frame loop
# ---------------------------------------------------------------------------


MODES = [(est, src) for est in ("soft-subtraction", "mixmax-mmse")
         for src in ("nn", "generative")]
REFERENCE = EnhancerConfig(**REFERENCE_MODE)
# Every mode on the white and silence-gap inputs, the exact generative modes
# on the step input too.  With the NN, the batched forward's rounding
# compounds through adaptation across the step and moves the final noise
# model by more than the 1e-14 the white input keeps.  At alpha 0 nothing
# adapts, so every mode runs the step input too, in block steps.
FRAME_LOOP_CASES = [(est, src, inputs, alpha) for alpha in (0.1, 0.0) for est, src in MODES
                    for inputs in ("white", "step", "silence-gap")
                    if inputs != "step" or src == "generative" or alpha == 0]


def frame_loop_id(case):
    *names, alpha = case
    return "-".join(names + ([] if alpha else ["alpha0"]))


class TestHoisting:
    @pytest.mark.parametrize("estimator,posterior_source,inputs,alpha", FRAME_LOOP_CASES,
                             ids=[frame_loop_id(case) for case in FRAME_LOOP_CASES])
    def test_matches_frame_loop(self, setup, estimator, posterior_source, inputs, alpha):
        """Batched NN forward, blockwise speech side and batched subtraction
        and reconstruction reproduce the per-frame loop, at the default
        alpha and at alpha 0, where the recursion takes block steps.  Only
        the batched forward may round differently, so without the NN the
        samples match exactly."""
        mog, net, clean, noisy = setup
        noisy = named_input(inputs, clean, noisy)
        cfg = EnhancerConfig(alpha=alpha, estimator=estimator, posterior_source=posterior_source)
        expected, ref = enhance_by_frame(noisy, mog, net, cfg)
        out, report = enhance_utterance(noisy, mog, net, cfg)
        if posterior_source == "nn":
            np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(out.samples, expected)
        np.testing.assert_allclose(report.frame_mean_spp, ref.frame_mean_spp, rtol=0, atol=1e-14)
        if posterior_source == "nn":
            np.testing.assert_allclose(report.posteriors, ref.posteriors, rtol=0, atol=1e-14)
        else:
            np.testing.assert_array_equal(report.posteriors, ref.posteriors)
        np.testing.assert_allclose(report.noise.mu, ref.noise.mu, rtol=0, atol=1e-14)
        np.testing.assert_allclose(report.noise.sigma, ref.noise.sigma, rtol=0, atol=1e-14)
        assert report.diagnostics == ref.diagnostics
        assert report.frames_processed == ref.frames_processed
        if inputs == "silence-gap":
            assert report.diagnostics.undecidable_bins > 0

    @pytest.mark.parametrize("inputs", ["white", "step", "silence-gap", "three-rows"])
    def test_reference_mode_matches_frame_loop(self, setup, inputs):
        """The reference mode takes a block of frames per step; its whole
        report equals the per-frame loop's, and its final noise is the
        prefix model.  Three rows make blocks of 16 frames (64 // 3 rounded
        down to a multiple of NOISE_STEP), and the whole silent frames of two
        of them lie inside one block."""
        mog, _, clean, noisy = setup
        if inputs == "three-rows":
            waves = noisy_rows(clean, [(1, 0.0, False, False), (2, 5.0, True, True),
                                       (3, 10.0, False, True)])
            pad, hop, block = edge_padding(512), 512 // 4, row_block(3)
            first, last = -(-(GAP[0] + pad) // hop), (GAP[1] + pad - 512) // hop
            assert block == 16 and first // block == last // block  # whole silent frames
        else:
            waves = [named_input(inputs, clean, noisy)]

        got = enhance_batch(waves, mog, None, REFERENCE)
        for (y, report), w in zip(got, waves, strict=True):
            expected, ref = enhance_by_frame(w, mog, None, REFERENCE)
            np.testing.assert_array_equal(y.samples, expected)
            np.testing.assert_array_equal(report.frame_mean_spp, ref.frame_mean_spp)
            np.testing.assert_array_equal(report.posteriors, ref.posteriors)
            assert report.diagnostics == ref.diagnostics
            prefix = init_from_prefix(noise_prefix_frames(log_spectra(stft(w, 512)), 16000,
                                                          REFERENCE))
            for noise in (ref.noise, prefix):
                np.testing.assert_array_equal(report.noise.mu, noise.mu)
                np.testing.assert_array_equal(report.noise.sigma, noise.sigma)
            np.testing.assert_array_equal(
                enhance_mixmax_original(w, mog, EnhancerConfig()).samples, expected)
        if inputs in ("silence-gap", "three-rows"):
            assert got[-1][1].diagnostics.undecidable_bins > 0
            assert got[-1][1].diagnostics.tail_fallbacks > 0

    def test_block_step_counts_are_per_frame(self, setup):
        """The recursion keeps its fallback counts per frame and row, (N, B).
        With the noise fixed a step takes a block of frames, and each entry
        still equals the count of that frame alone against its row's prefix
        noise model; the rows' diagnostics are the column sums."""
        mog, _, clean, _ = setup
        waves = noisy_rows(clean, [(1, 0.0, False, False), (2, 5.0, True, True),
                                   (3, 10.0, False, True)])
        with ThreadPoolExecutor(max_workers=1) as pool:
            logspecs, posteriors, _, noise, speech = enhancer._precompute(pool, waves, mog, None,
                                                                          REFERENCE)
            *_, (undecidable, tail) = enhancer._recursion(logspecs, posteriors, noise, mog,
                                                          REFERENCE, speech)
        assert undecidable.shape == tail.shape == logspecs.shape[:2]

        want_undecidable, want_tail = np.zeros_like(undecidable), np.zeros_like(tail)
        for t, b in np.ndindex(*undecidable.shape):
            z = logspecs[t, b, 0]
            row = NoiseModel(mu=noise.mu[b, 0], sigma=noise.sigma[b, 0])
            speech = speech_terms(z, mog)
            speech_dominance(z, speech, row, want_undecidable[t, b, ...])
            conditional_mean_below(z, speech, mog, want_tail[t, b, ...])
        np.testing.assert_array_equal(undecidable, want_undecidable)
        np.testing.assert_array_equal(tail, want_tail)
        assert undecidable[:, 1:].any(axis=0).all() and tail.any()

        reports = [r for _, r in enhance_batch(waves, mog, None, REFERENCE)]
        assert [(r.diagnostics.undecidable_bins, r.diagnostics.tail_fallbacks)
                for r in reports] == list(zip(undecidable.sum(axis=0), tail.sum(axis=0)))

    def test_noise_independent_work_runs_once(self, setup, monkeypatch):
        """One utterance: one NN forward over all frames; one subtraction
        and one reconstruction per part, two over the two threads;
        dominance once per step of NOISE_STEP frames, adaptation per
        frame."""
        mog, net, _, noisy = setup
        calls = count_synthesis_calls(monkeypatch, ("forward", "reconstruct_frame",
                                                    "soft_subtract", "speech_dominance",
                                                    "adapt"))
        _, report = enhance_utterance(noisy, mog, net, EnhancerConfig())
        n = report.frames_processed
        assert n > enhancer.SPEECH_BLOCK  # more than one block of frames
        assert calls == {"forward": 1, "reconstruct_frame": 2, "soft_subtract": 2,
                         "speech_dominance": -(-n // enhancer.NOISE_STEP), "adapt": n}

    @pytest.mark.parametrize("estimator,posterior_source", MODES)
    def test_steps_per_frame_when_the_noise_adapts(self, setup, monkeypatch,
                                                   estimator, posterior_source):
        """A step's frames read the noise as it stood before the first of
        them, so the noise-side steps run once per NOISE_STEP frames and the
        update once per frame; the truncated mean, which does not read the
        noise, once per block.  Blocks hold whole steps, so the steps number
        ceil(n / NOISE_STEP)."""
        mog, net, _, noisy = setup
        calls = count_calls(monkeypatch, ("speech_dominance", "generative_posterior",
                                          "conditional_mean_below", "adapt"))
        cfg = EnhancerConfig(estimator=estimator, posterior_source=posterior_source)
        n = enhance_utterance(noisy, mog, net, cfg)[1].frames_processed
        steps = -(-n // enhancer.NOISE_STEP)
        assert n % enhancer.NOISE_STEP  # a short last step
        expected = {"speech_dominance": steps, "adapt": n}
        if posterior_source == "generative":
            expected["generative_posterior"] = steps
        if estimator == "mixmax-mmse":
            expected["conditional_mean_below"] = -(-n // enhancer.SPEECH_BLOCK)
        assert calls == expected

    def test_reference_mode_steps_per_block(self, setup, monkeypatch):
        """With the noise fixed no frame waits for another: every step runs
        once per block of SPEECH_BLOCK frames, and the noise never adapts."""
        mog, _, _, noisy = setup
        calls = count_calls(monkeypatch, ("speech_dominance", "generative_posterior",
                                          "conditional_mean_below", "adapt"))
        _, report = enhance_utterance(noisy, mog, None, REFERENCE)
        n = report.frames_processed
        assert n % enhancer.SPEECH_BLOCK  # a short last block
        blocks = -(-n // enhancer.SPEECH_BLOCK)
        assert calls == {"speech_dominance": blocks, "generative_posterior": blocks,
                         "conditional_mean_below": blocks}


# ---------------------------------------------------------------------------
# The noise step
# ---------------------------------------------------------------------------


class TestNoiseStep:
    @pytest.mark.parametrize("estimator,posterior_source", MODES)
    def test_step_of_one_is_the_per_frame_recursion(self, setup, monkeypatch,
                                                     estimator, posterior_source):
        """With NOISE_STEP = 1 each frame reads the model the frame before it
        updated: one-row runs and a batch of three rows, on the white, step
        and silence-gap inputs, equal the frame loop at step 1 bit for bit.
        At the default step the white input's SPP differs from it."""
        mog, net, clean, noisy = setup
        per_frame_forward(monkeypatch)
        cfg = EnhancerConfig(estimator=estimator, posterior_source=posterior_source)
        waves = [named_input(name, clean, noisy) for name in ("white", "step", "silence-gap")]
        expected = [enhance_by_frame(w, mog, net, cfg, step=1) for w in waves]
        lagged = enhance_utterance(waves[0], mog, net, cfg)[1]
        assert not np.array_equal(lagged.frame_mean_spp, expected[0][1].frame_mean_spp)

        monkeypatch.setattr(enhancer, "NOISE_STEP", 1)
        batched = enhance_batch(waves, mog, net, cfg)
        for w, got, (samples, ref) in zip(waves, batched, expected, strict=True):
            want = (Waveform(samples=samples, sample_rate=w.sample_rate), ref)
            assert_same_row(enhance_utterance(w, mog, net, cfg), want)
            assert_same_row(got, want)


# ---------------------------------------------------------------------------
# Batched rows against one-row runs
# ---------------------------------------------------------------------------


def noisy_rows(clean, rows):
    """One noisy copy of ``clean`` per (noise seed, SNR, step noise, silence
    gap) row."""
    waves = []
    for seed, snr, step, gap in rows:
        maker = step_white_noise if step else white_noise
        w = mix_at_snr(clean, maker(len(clean), clean.sample_rate, seed=seed), snr)
        waves.append(with_silence_gap(w) if gap else w)
    return waves


def row_block(rows):
    """Frames per speech-side block of a batch of ``rows``: SPEECH_BLOCK //
    rows, rounded down to a multiple of NOISE_STEP and never below it."""
    step = enhancer.NOISE_STEP
    return max(step, enhancer.SPEECH_BLOCK // rows // step * step)


def assert_same_row(got, expected):
    (y, report), (y_ref, ref) = got, expected
    np.testing.assert_array_equal(y.samples, y_ref.samples)
    np.testing.assert_array_equal(report.frame_mean_spp, ref.frame_mean_spp)
    np.testing.assert_array_equal(report.posteriors, ref.posteriors)
    np.testing.assert_array_equal(report.noise.mu, ref.noise.mu)
    np.testing.assert_array_equal(report.noise.sigma, ref.noise.sigma)
    assert report.diagnostics == ref.diagnostics


class TestBatching:
    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(rows=st.lists(st.tuples(st.integers(0, 10_000),
                                   st.sampled_from([-5.0, 0.0, 7.5, 20.0]),
                                   st.booleans(), st.booleans()),
                         min_size=1, max_size=4))
    def test_rows_equal_their_one_row_runs(self, setup, rows):
        """Each row of one recursion equals that row run alone, bit for bit,
        in every mode and in the reference mode."""
        mog, net, clean, _ = setup
        waves = noisy_rows(Waveform(samples=clean.samples[:20000], sample_rate=16000), rows)
        for estimator, posterior_source in MODES:
            cfg = EnhancerConfig(estimator=estimator, posterior_source=posterior_source)
            for got, w in zip(enhance_batch(waves, mog, net, cfg), waves, strict=True):
                assert_same_row(got, enhance_utterance(w, mog, net, cfg))
        batched = enhance_batch(waves, mog, None, REFERENCE)
        for got, w in zip(batched, waves, strict=True):
            assert_same_row(got, enhance_utterance(w, mog, None, REFERENCE))
            np.testing.assert_array_equal(
                got[0].samples, enhance_mixmax_original(w, mog, EnhancerConfig()).samples)

    def test_rows_keep_their_own_counters(self, setup):
        """A silence-gap row beside a plain one: each counts its own
        fallbacks, as it does alone."""
        mog, net, _, noisy = setup
        waves = [with_silence_gap(noisy), noisy]
        cfg = EnhancerConfig(estimator="mixmax-mmse")
        alone = [enhance_utterance(w, mog, net, cfg)[1].diagnostics for w in waves]
        assert [r.diagnostics for _, r in enhance_batch(waves, mog, net, cfg)] == alone
        assert alone[0].undecidable_bins > alone[1].undecidable_bins
        assert alone[0].tail_fallbacks > alone[1].tail_fallbacks

    def test_one_recursion_for_all_rows(self, setup, monkeypatch):
        """Three rows: dominance once per step of NOISE_STEP frames and
        adaptation once per frame for all of them; the forward pass once per
        row; subtraction and reconstruction once per part, two per row."""
        mog, net, _, noisy = setup
        calls = count_synthesis_calls(monkeypatch, ("forward", "reconstruct_frame",
                                                    "soft_subtract", "speech_dominance",
                                                    "adapt"))

        waves = noisy_rows(noisy, [(1, 0.0, False, False), (2, 5.0, True, False),
                                   (3, 10.0, False, True)])
        pairs = enhance_batch(waves, mog, net, EnhancerConfig())
        n = pairs[0][1].frames_processed
        assert calls == {"forward": 3, "reconstruct_frame": 6, "soft_subtract": 6,
                         "speech_dominance": -(-n // enhancer.NOISE_STEP), "adapt": n}

    def test_posteriors_checked_before_the_recursion(self, setup, monkeypatch):
        """A classifier weight that turned NaN after construction gives NaN
        posteriors; they are rejected before the first frame runs."""
        mog, net, _, noisy = setup
        bad = NnClassifier(w1=net.w1.copy(), w2=net.w2.copy())
        bad.w2[0, 0] = np.nan
        frames = []
        monkeypatch.setattr(enhancer, "speech_dominance", lambda *args: frames.append(args))
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="probability"):
            enhance_utterance(noisy, mog, bad, EnhancerConfig())
        assert frames == []
        assert threading.active_count() == baseline  # the worker is joined

    def test_rows_must_match(self, setup):
        """An empty batch, and rows of another length or sample rate, are
        refused."""
        mog, net, _, noisy = setup
        head = Waveform(samples=noisy.samples[:16000], sample_rate=16000)
        shorter = Waveform(samples=noisy.samples[:15999], sample_rate=16000)
        slower = Waveform(samples=head.samples, sample_rate=8000)
        for waves, message in (([], "at least one"), ([head, shorter], "share length"),
                               ([head, slower], "sample rate")):
            with pytest.raises(ValueError, match=message):
                enhance_batch(waves, mog, net, EnhancerConfig())


# ---------------------------------------------------------------------------
# The speech side on the worker thread
# ---------------------------------------------------------------------------


WORKER_MODES = [(est, src, 0.1) for est, src in MODES] + [
    (REFERENCE.estimator, REFERENCE.posterior_source, REFERENCE.alpha)]


def per_frame_forward(monkeypatch):
    """The enhancer's classifier posteriors formed one frame at a time, as
    the frame loop forms them, so the classifier modes compare bit for bit
    too."""
    monkeypatch.setattr(enhancer, "forward",
                        lambda net, feats: np.stack([forward(net, x) for x in feats]))


def formed_before_the_recursion(setup, monkeypatch, rows):
    """The frames of each block the worker formed, with the classifier's
    forward pass stalled and then with the first step stalled, for ``rows``
    rows a block longer than SPEECH_AHEAD frame-rows hold, and the frame
    count of a row."""
    mog, net, _, noisy = setup
    hop = EnhancerConfig().frame_length // 4
    copies = 2 + (enhancer.SPEECH_AHEAD // rows + row_block(rows)) * hop // len(noisy)
    waves = noisy_rows(Waveform(samples=np.tile(noisy.samples, copies),
                                sample_rate=noisy.sample_rate),
                       [(seed, 5.0, False, False) for seed in range(rows)])
    caller, there, seen = threading.current_thread(), [], []

    def on_the_worker(zs, mog):
        if threading.current_thread() is not caller:
            there.append(len(zs))
        return speech_terms(zs, mog)

    def stalled(fn):
        def wait_then_call(*args, **kwargs):
            if len(seen) < 2:
                time.sleep(0.3)
                seen.append(list(there))
            return fn(*args, **kwargs)
        return wait_then_call

    monkeypatch.setattr(enhancer, "speech_terms", on_the_worker)
    monkeypatch.setattr(enhancer, "forward", stalled(enhancer.forward))
    monkeypatch.setattr(enhancer, "weighted_spp", stalled(enhancer.weighted_spp))
    try:
        n = enhance_batch(waves, mog, net, EnhancerConfig())[0][1].frames_processed
    finally:
        monkeypatch.undo()
    return seen, n


class TestSpeechSideWorker:
    """One worker thread forms f and F a block at a time, ahead of the
    frames the recursion steps through."""

    @pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "three-rows"])
    @pytest.mark.parametrize("estimator,posterior_source,alpha", WORKER_MODES,
                             ids=[frame_loop_id(case) for case in WORKER_MODES])
    def test_matches_frame_loop_across_chunks(self, setup, monkeypatch, rows,
                                              estimator, posterior_source, alpha):
        """Every mode and the reference mode, one row and a batch of three,
        equal the frame loop bit for bit over four blocks or more, the last
        of them short."""
        mog, net, clean, noisy = setup
        waves = [with_silence_gap(noisy)] if rows == 1 else noisy_rows(
            clean, [(1, 0.0, False, False), (2, 5.0, True, True), (3, 10.0, False, True)])
        block = row_block(rows)
        per_frame_forward(monkeypatch)
        cfg = EnhancerConfig(alpha=alpha, estimator=estimator, posterior_source=posterior_source)
        got = enhance_batch(waves, mog, net, cfg)
        n = got[0][1].frames_processed
        assert n > 3 * block and n % block  # a short last block
        for pair, w in zip(got, waves, strict=True):
            expected, ref = enhance_by_frame(w, mog, net, cfg)
            assert_same_row(pair, (Waveform(samples=expected, sample_rate=w.sample_rate), ref))

    def test_worker_runs_under_callers_errstate(self, setup, monkeypatch):
        """The second block's frames sit 60 standard deviations above every
        component, so the speech side's exp underflows there and nowhere
        else.  The first step stalls until the worker has formed that
        block, so the recursion takes the worker's result.  Under the
        caller's ``np.errstate(under="raise")`` the worker raises, as the
        serial code does, and the error reaches the caller; without it the
        call runs."""
        mog = setup[0]
        block = enhancer.SPEECH_BLOCK
        near = mog.means.mean(axis=0)
        far = mog.means.max(axis=0) + 60 * mog.stds.max(axis=0)
        logspecs = np.concatenate([np.broadcast_to(near, (block, 1, 1, mog.n_bins)),
                                   np.broadcast_to(far, (block, 1, 1, mog.n_bins))])
        # wide enough that the noise side stays near its mode at every frame
        noise = NoiseModel(mu=logspecs[0].copy(), sigma=np.full((1, 1, mog.n_bins), 1e3))
        cfg = EnhancerConfig(alpha=0.0)

        def recursion(frames):
            posteriors = np.full((frames, 1, 1, mog.n_components), 1 / mog.n_components)
            with ThreadPoolExecutor(max_workers=1) as pool:
                speech = enhancer._speech_ahead(pool, logspecs[:frames, :, 0], mog, block)
                return enhancer._recursion(logspecs[:frames], posteriors, noise, mog, cfg,
                                           speech)

        with np.errstate(under="raise"):
            recursion(block)  # the first block alone underflows nowhere
            with pytest.raises(FloatingPointError):
                speech_terms(far, mog)
        recursion(2 * block)

        spp, steps = enhancer.weighted_spp, []

        def first_step_waits(posterior, rho):
            if not steps:
                time.sleep(0.5)
            steps.append(None)
            return spp(posterior, rho)

        monkeypatch.setattr(enhancer, "weighted_spp", first_step_waits)
        baseline = threading.active_count()
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            recursion(2 * block)
        assert len(steps) == 1  # raised as the second block was taken
        assert threading.active_count() == baseline

    def test_blocks_formed_here_when_the_worker_lags(self, setup, monkeypatch):
        """A worker that a busy core holds up does not hold up the
        recursion: blocks the worker has not finished are formed on the
        calling thread, with the same values.  A block the worker has not
        started is cancelled first, so no block but the one the worker is
        inside is formed twice.  Each call, on either thread, forms one
        block, or the short last one."""
        mog, net, _, noisy = setup
        w = with_silence_gap(noisy)
        cfgs = [EnhancerConfig(), REFERENCE]
        expected = [enhance_utterance(w, mog, net, cfg) for cfg in cfgs]
        block = enhancer.SPEECH_BLOCK

        caller, here, there = threading.current_thread(), [], []

        def slow_on_the_worker(zs, mog):
            if threading.current_thread() is caller:
                here.append(len(zs))
            else:
                there.append(len(zs))
                time.sleep(0.2)
            return speech_terms(zs, mog)

        monkeypatch.setattr(enhancer, "speech_terms", slow_on_the_worker)
        for cfg, want in zip(cfgs, expected, strict=True):
            here.clear()
            there.clear()
            got = enhance_utterance(w, mog, net, cfg)
            assert_same_row(got, want)
            n = got[1].frames_processed
            assert sum(here) > block  # frames of more than one block
            assert set(here + there) <= {block, n % block}
            assert sum(here) + sum(there) <= n + block

    def test_blocks_not_started_are_cancelled(self, setup, monkeypatch):
        """With the worker held inside a block, the caller forms every block
        itself.  Each block the worker has not started is cancelled as the
        caller takes it, so once released the worker forms none of them."""
        mog = setup[0]
        block = enhancer.SPEECH_BLOCK
        frames = 3 * enhancer.SPEECH_AHEAD + 5
        zs = np.repeat(mog.means.mean(axis=0)[np.newaxis, np.newaxis], frames, axis=0)
        caller, release, there = threading.current_thread(), threading.Event(), []

        def held_on_the_worker(zs, mog):
            if threading.current_thread() is not caller:
                there.append(len(zs))
                release.wait(10)
            return speech_terms(zs, mog)

        monkeypatch.setattr(enhancer, "speech_terms", held_on_the_worker)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            taken = [at for at, _ in enhancer._speech_ahead(pool, zs, mog, block)]
        finally:
            release.set()
            pool.shutdown()
        assert [(at.start, at.stop) for at in taken] == [
            (first, first + block) for first in range(0, frames, block)]
        assert there == [block]

    @pytest.mark.parametrize("rows", [1, 6], ids=["one-row", "six-rows"])
    def test_lookahead_starts_early_and_is_bounded(self, setup, monkeypatch, rows):
        """The worker starts on the speech side before the classifier's
        forward pass, and runs at most SPEECH_AHEAD frame-rows ahead, in
        whole blocks: with the forward pass stalled, and then the first
        step, it has formed exactly as many blocks as SPEECH_AHEAD
        frame-rows hold, though the utterance has more."""
        block = row_block(rows)
        ahead = enhancer.SPEECH_AHEAD // (rows * block)
        seen, n = formed_before_the_recursion(setup, monkeypatch, rows)
        assert n > (ahead + 1) * block
        assert seen == [[block] * ahead] * 2

    def test_batch_looks_ahead_as_far_as_one_row(self, setup, monkeypatch):
        """The bound is in frame-rows, so six rows, whose blocks are 8
        frames of 6 rows, look ahead as far as one row does, to within one
        of their blocks."""
        formed = {}
        for rows in (1, 6):
            seen, _ = formed_before_the_recursion(setup, monkeypatch, rows)
            formed[rows] = rows * sum(seen[-1])
        assert formed[1] - 6 * row_block(6) < formed[6] <= enhancer.SPEECH_AHEAD

    @pytest.mark.parametrize("fault", ["nan-posterior", "class-count"])
    def test_queued_chunks_cancelled_on_an_early_error(self, setup, monkeypatch, fault):
        """A NaN posterior, or a classifier whose class count is not the
        mixture's, stops the call after the worker has started: the blocks
        it has not started are cancelled, so it forms at most the one it is
        inside, and it is joined before the error reaches the caller."""
        mog, net, _, noisy = setup
        hop = EnhancerConfig().frame_length // 4
        # blocks queued behind the worker's first, to be cancelled
        assert len(noisy) // hop > 2 * enhancer.SPEECH_BLOCK
        if fault == "nan-posterior":
            bad = NnClassifier(w1=net.w1.copy(), w2=net.w2.copy())
            bad.w2[0, 0] = np.nan
            message = "probability"
        else:
            bad = init_classifier(net.n_inputs, mog.n_components + 1, n_hidden=4, seed=0)
            message = "class count"
        caller, there = threading.current_thread(), []

        def first_block_slow(zs, mog):
            if threading.current_thread() is not caller:
                there.append(len(zs))
                if len(there) == 1:
                    time.sleep(0.5)
            return speech_terms(zs, mog)

        monkeypatch.setattr(enhancer, "speech_terms", first_block_slow)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match=message):
            enhance_utterance(noisy, mog, bad, EnhancerConfig())
        assert threading.active_count() == baseline
        assert len(there) <= 1

    def test_worker_joined_on_return_and_on_error(self, setup, monkeypatch):
        """No thread outlives a call, nor a call that fails at the step
        that holds frame 100, in the second block, while the worker has the
        third."""
        mog, net, _, noisy = setup
        baseline = threading.active_count()
        enhance_utterance(noisy, mog, net, EnhancerConfig())
        assert threading.active_count() == baseline

        spp, frames = enhancer.weighted_spp, []

        def fails_at_frame_100(posterior, rho):
            frames.append(len(posterior))
            if sum(frames) > 100:
                raise RuntimeError("frame 100")
            return spp(posterior, rho)

        monkeypatch.setattr(enhancer, "weighted_spp", fails_at_frame_100)
        with pytest.raises(RuntimeError, match="frame 100"):
            enhance_utterance(noisy, mog, net, EnhancerConfig())
        assert threading.active_count() == baseline
        assert 100 < sum(frames) <= 100 + enhancer.NOISE_STEP

    def test_outputs_equal_under_fast_switching(self, setup):
        """Thread switches every microsecond interleave the worker with the
        analysis, the recursion and the synthesis as finely as the
        interpreter allows, for one row and for a batch of three; nothing
        changes."""
        mog, net, clean, noisy = setup
        w = with_silence_gap(noisy)
        rows = noisy_rows(clean, [(1, 0.0, False, False), (2, 5.0, True, True),
                                  (3, 10.0, False, True)])
        cfgs = [EnhancerConfig(), EnhancerConfig(estimator="mixmax-mmse",
                                                 posterior_source="generative"), REFERENCE]

        def calls():
            return [pair for cfg in cfgs for pair in
                    [enhance_utterance(w, mog, net, cfg), *enhance_batch(rows, mog, net, cfg)]]

        expected = calls()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = calls()
        finally:
            sys.setswitchinterval(interval)
        for pair, want in zip(got, expected, strict=True):
            assert_same_row(pair, want)


# ---------------------------------------------------------------------------
# Analysis and synthesis in frame parts on both threads
# ---------------------------------------------------------------------------


class TestFrameParts:
    """Each row's frames are analysed and synthesised in two parts, the
    later one submitted to the worker; the parts equal dsp's stft,
    log_spectra and istft bit for bit."""

    @pytest.mark.parametrize("rows", [1, 3, 6])
    @pytest.mark.parametrize("n_samples", [512, 640, 768, 16037],
                             ids=["7-frames", "8-frames", "9-frames", "129-frames"])
    def test_analysis_equals_stft(self, rows, n_samples):
        rng = np.random.default_rng(n_samples + rows)
        waves = [Waveform(samples=rng.standard_normal(n_samples), sample_rate=16000)
                 for _ in range(rows)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            logspecs, frames = enhancer._analysis(pool, waves, 512)
        assert logspecs.shape[:3] == (len(frames[0]), rows, 1)
        for b, w in enumerate(waves):
            spec = stft(w, 512)
            np.testing.assert_array_equal(frames[b], spec.frames)
            np.testing.assert_array_equal(logspecs[:, b, 0], log_spectra(spec))

    @pytest.mark.parametrize("rows", [1, 3, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    @pytest.mark.parametrize("estimator", enhancer.ESTIMATORS)
    def test_synthesis_equals_istft(self, rows, n, estimator):
        """Soft subtraction or the MMSE estimate, reconstruction and the
        inverse transform in parts, then one overlap-add per row."""
        rng = np.random.default_rng(10 * n + rows)
        bins = 257
        logspecs = rng.normal(size=(n, rows, 1, bins))
        spp = rng.uniform(size=logspecs.shape)
        xhat = rng.normal(size=logspecs.shape) if estimator == "mixmax-mmse" else None
        frames = [rng.standard_normal((n, bins)) + 1j * rng.standard_normal((n, bins))
                  for _ in range(rows)]
        frames[0][0, :5] = 0.0  # bins with no phase
        cfg = EnhancerConfig(estimator=estimator)
        with ThreadPoolExecutor(max_workers=1) as pool:
            segs = enhancer._synthesis(pool, cfg, logspecs, spp, xhat, frames)
        estimate = soft_subtract(logspecs, spp, cfg.beta) if xhat is None else xhat
        for b in range(rows):
            whole = reconstruct_frame(estimate[:, b, 0], frames[b])
            np.testing.assert_array_equal(
                enhancer.overlap_add(segs[b]),
                istft(ComplexSpectrogram(frames=whole, frame_length=512)))

    @pytest.mark.parametrize("ending", ["return", "error"])
    @pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "three-rows"])
    @pytest.mark.parametrize("stage", ["analyse", "synthesise"])
    def test_parts_not_started_are_formed_here(self, setup, monkeypatch, stage, rows, ending):
        """With the worker held inside its first part of a stage, the caller
        forms every other part of that stage: its own, and the worker's,
        which it cancels as they were not started.  It then waits only for
        the held part.  The outputs do not change, and no thread outlives
        the call, nor a call whose last part on the caller raises."""
        mog, net, clean, _ = setup
        waves = noisy_rows(clean, [(seed, 5.0, False, False) for seed in range(rows)])
        expected = enhance_batch(waves, mog, net, EnhancerConfig())
        n = expected[0][1].frames_processed
        kernel, caller = getattr(enhancer, stage), threading.current_thread()
        entered, release, here, there = threading.Event(), threading.Event(), [], []

        def held(frames, *args, **kwargs):
            if threading.current_thread() is caller:
                entered.wait(10)
                here.append(len(frames))
                if len(here) == 2 * rows - 1:
                    release.set()
                    if ending == "error":
                        raise RuntimeError("last part")
            else:
                there.append(len(frames))
                entered.set()
                release.wait(10)
            return kernel(frames, *args, **kwargs)

        monkeypatch.setattr(enhancer, stage, held)
        baseline = threading.active_count()
        if ending == "error":
            with pytest.raises(RuntimeError, match="last part"):
                enhance_batch(waves, mog, net, EnhancerConfig())
        else:
            for got, want in zip(enhance_batch(waves, mog, net, EnhancerConfig()), expected,
                                 strict=True):
                assert_same_row(got, want)
        assert threading.active_count() == baseline
        assert there == [n - n // 2]
        assert here == [n // 2] * rows + [n - n // 2] * (rows - 1)


# ---------------------------------------------------------------------------
# Inputs are read, never written
# ---------------------------------------------------------------------------


def input_arrays(noisy, mog, net=None):
    arrays = [noisy.samples, mog.weights, mog.means, mog.stds]
    return arrays if net is None else arrays + [net.w1, net.w2]


class TestInputsUnmodified:
    """The kernels work in place on arrays they allocate; the caller's
    waveform, mixture and classifier come back as they went in."""

    @pytest.mark.parametrize("estimator,posterior_source", MODES)
    def test_enhance_utterance(self, setup, estimator, posterior_source):
        mog, net, _, noisy = setup
        noisy = with_silence_gap(noisy)
        arrays = input_arrays(noisy, mog, net)
        before = [a.copy() for a in arrays]
        enhance_utterance(noisy, mog, net,
                          EnhancerConfig(estimator=estimator, posterior_source=posterior_source))
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)

    def test_enhance_mixmax_original(self, setup):
        mog, _, _, noisy = setup
        noisy = with_silence_gap(noisy)
        arrays = input_arrays(noisy, mog)
        before = [a.copy() for a in arrays]
        enhance_mixmax_original(noisy, mog, EnhancerConfig())
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)


class TestResultsOwnTheirArrays:
    """The recursion writes into buffers it reuses from frame to frame; a
    returned waveform and report keep their values while later calls run."""

    @pytest.mark.parametrize("estimator,posterior_source", MODES)
    def test_later_calls_leave_results_alone(self, setup, estimator, posterior_source):
        """Two lengths, one frame apart, so the final noise model lands in
        either of the two buffers the recursion alternates between; each
        later call has the shape of an earlier one."""
        mog, net, clean, noisy = setup
        cfg = EnhancerConfig(estimator=estimator, posterior_source=posterior_source)
        hop = cfg.frame_length // 4

        def calls(w):
            w_short = Waveform(samples=w.samples[:-hop], sample_rate=w.sample_rate)
            return [pair for x in (w, w_short) for pair in
                    [enhance_utterance(x, mog, net, cfg),
                     *enhance_batch([x, with_silence_gap(x)], mog, net, cfg)]]

        def arrays(pair):
            out, report = pair
            return [out.samples, report.noise.mu, report.noise.sigma,
                    report.frame_mean_spp, report.posteriors]

        results = calls(noisy)
        assert len({r.frames_processed for _, r in results}) == 2
        before = [[a.copy() for a in arrays(pair)] for pair in results]
        [other] = noisy_rows(clean, [(7, 0.0, True, False)])
        calls(other)
        enhance_mixmax_original(other, mog, cfg)
        for pair, kept in zip(results, before):
            for a, b in zip(arrays(pair), kept, strict=True):
                np.testing.assert_array_equal(a, b)


class TestInputChecks:
    """adapt's checks of the observations and the SPP run once per
    utterance, outside the frame loop, with adapt's errors, at every alpha."""

    def test_checked_once_per_utterance(self, setup, monkeypatch):
        mog, net, _, noisy = setup
        calls = count_calls(monkeypatch, ("check_observations", "check_spp"))
        enhance_batch([noisy, with_silence_gap(noisy)], mog, net, EnhancerConfig())
        assert calls == {"check_observations": 1, "check_spp": 1}
        calls.clear()
        enhance_mixmax_original(noisy, mog, EnhancerConfig())
        assert calls == {"check_observations": 1, "check_spp": 1}

    def test_non_finite_observation_rejected_before_the_recursion(self, setup, monkeypatch):
        mog, net, _, noisy = setup

        def with_nan(frames, out=None):
            logs = log_magnitude(frames, out=out)
            logs[-1, 3] = np.nan
            return logs

        monkeypatch.setattr(enhancer, "log_magnitude", with_nan)
        frames = []
        monkeypatch.setattr(enhancer, "speech_dominance", lambda *a, **k: frames.append(a))
        # on neither thread: the worker gets no frame before the check
        calls = count_calls(monkeypatch, ("speech_terms",))
        with pytest.raises(ValueError, match="observation must be finite"):
            enhance_utterance(noisy, mog, net, EnhancerConfig())
        assert frames == []
        assert calls == {}

    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan], ids=["above", "below", "nan"])
    def test_spp_outside_unit_interval_rejected(self, setup, monkeypatch, bad):
        mog, net, _, noisy = setup
        spp = enhancer.weighted_spp

        def one_bad_bin(posterior, rho):
            out = spp(posterior, rho)
            out[..., 5] = bad
            return out

        monkeypatch.setattr(enhancer, "weighted_spp", one_bad_bin)
        with pytest.raises(ValueError, match=r"SPP values must lie in \[0, 1\]"):
            enhance_utterance(noisy, mog, net, EnhancerConfig())


# ---------------------------------------------------------------------------
# Noise model tracking
# ---------------------------------------------------------------------------


class TestNoiseTracking:
    def test_report_noise_moves_toward_late_noise(self, setup):
        """After a level step, the final noise mean is closer to the new level."""
        mog, net, _, _ = setup
        rng = np.random.default_rng(30)
        quiet = 0.02 * rng.standard_normal(16000)
        loud = 0.2 * rng.standard_normal(16000)
        w = Waveform(samples=np.concatenate([quiet, loud]), sample_rate=16000)

        logs = log_spectra(stft(w, 512))
        cfg = EnhancerConfig()
        start = init_from_prefix(noise_prefix_frames(logs, 16000, cfg))
        _, report = enhance_utterance(w, mog, net, cfg)

        late = logs[logs.shape[0] // 2 + 4:].mean(axis=0)
        d_start = np.abs(start.mu - late).mean()
        d_final = np.abs(report.noise.mu - late).mean()
        assert d_final < 0.5 * d_start

    def test_lagged_steps_track_a_noise_step(self, setup, monkeypatch):
        """A +8 dB white-noise step at 2 s of 4 s, alone and under speech at
        5 dB after a 0.5 s lead-in, over five seeds.  Counted from the first
        frame that reaches the step, the frames until the mean noise mu has
        covered 90% of it average at most NOISE_STEP + 2 more than with a
        step of one frame."""
        mog, net, _, _ = setup
        rate, split, step_db = 16000, 32000, 8.0
        first = (split + edge_padding(512) - 512) // 128 + 1
        means = []

        def recorded(*args, **kwargs):
            model = adapt(*args, **kwargs)
            means.append(model.mu.mean())
            return model

        def frames_to_cover(w):
            means.clear()
            enhance_utterance(w, mog, net, EnhancerConfig())
            goal = means[first - 1] + 0.9 * step_db / 20 * np.log(10)
            return next((k + 1 for k, m in enumerate(means[first:]) if m >= goal), len(means))

        inputs = {"noise only": [], "speech at 5 dB": []}
        for seed in range(1, 6):
            noise = step_white_noise(2 * split, rate, seed=seed, step_db=step_db)
            speech = synthesize_corpus(SyntheticCorpusSpec(envelopes=default_envelopes(3),
                                                           utterance_seconds=(3.5, 3.5),
                                                           seed=100 + seed), 1)[0].waveform
            clean = Waveform(samples=np.concatenate([np.zeros(len(noise) - len(speech)),
                                                     speech.samples]), sample_rate=rate)
            inputs["noise only"].append(noise)
            inputs["speech at 5 dB"].append(mix_at_snr(clean, noise, 5.0))

        monkeypatch.setattr(enhancer, "adapt", recorded)
        step = enhancer.NOISE_STEP
        for name, waves in inputs.items():
            lagged = np.mean([frames_to_cover(w) for w in waves])
            monkeypatch.setattr(enhancer, "NOISE_STEP", 1)
            per_frame = np.mean([frames_to_cover(w) for w in waves])
            monkeypatch.setattr(enhancer, "NOISE_STEP", step)
            assert lagged <= per_frame + step + 2, name

    def test_prefix_frame_count(self):
        cfg = EnhancerConfig(noise_prefix=0.25)
        logs = np.zeros((60, 257))
        prefix = noise_prefix_frames(logs, 16000, cfg)
        # 0.25 s at a 128-sample hop is 31.25 -> 31 frames
        assert prefix.shape == (31, 257)
        lead = edge_padding(512) // 128
        assert lead == 3

    @pytest.mark.parametrize("frame_length", [256, 510, 512])
    def test_prefix_starts_at_first_frame_clear_of_padding(self, frame_length):
        """The first prefix frame is the first that starts at sample 0 or
        later: at 510 the hop does not divide the padding, and one frame
        fewer would read two padding zeros."""
        hop = frame_length // 4
        logs = np.arange(100.0)[:, None] * np.ones(frame_length // 2 + 1)
        cfg = EnhancerConfig(frame_length=frame_length)
        lead = int(noise_prefix_frames(logs, 16000, cfg)[0, 0])
        assert lead * hop >= edge_padding(frame_length) > (lead - 1) * hop
