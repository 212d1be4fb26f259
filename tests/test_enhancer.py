"""Full enhancement pipeline on synthetic utterances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnmm.enhancer as enhancer
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
    log_spectra,
    reconstruct_frame,
    stft,
)
from nnmm.enhancer import (
    EnhancerConfig,
    enhance_batch,
    enhance_mixmax_original,
    enhance_utterance,
    noise_prefix_frames,
)
from nnmm.features import feature_matrix
from nnmm.mixmax import (
    MixmaxDiagnostics,
    conditional_mean_below,
    generative_posterior,
    mmse_estimate,
    soft_subtract,
    speech_dominance,
    speech_terms,
)
from nnmm.mog import train_supervised
from nnmm.nn import NnClassifier, forward, train
from nnmm.noise import adapt, init_from_prefix

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


def count_calls(monkeypatch, names):
    """Count the calls ``nnmm.enhancer`` makes to each named function; a
    name never called stays out of the returned dict."""
    calls = {}
    for name in names:
        def counted(*args, _fn=getattr(enhancer, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(enhancer, name, counted)
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
        with pytest.raises(ValueError, match="classifier"):
            enhance_utterance(noisy, mog, None, EnhancerConfig())

    def test_too_short_utterance_rejected(self, setup):
        mog, net, _, _ = setup
        stub = Waveform(samples=np.random.default_rng(0).standard_normal(700),
                        sample_rate=16000)
        with pytest.raises(ValueError, match="prefix"):
            enhance_utterance(stub, mog, net, EnhancerConfig())

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
            rho, h = speech_dominance(logs[t], speech_terms(logs[t], mog), noise)
            p = generative_posterior(h, mog)
            manual[t], _ = mmse_estimate(logs[t], p, rho, conditional_mean_below(logs[t], mog))

        # spot-check one frame against the closed form written out
        t = spec.n_frames // 2
        rho, h = speech_dominance(logs[t], speech_terms(logs[t], mog), noise)
        p = generative_posterior(h, mog)
        below = conditional_mean_below(logs[t], mog)
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

    @staticmethod
    def replay_full_loop(setup, posterior_source):
        """Replaying dominance -> posterior -> SPP -> subtract -> adapt by hand
        reproduces the report exactly and keeps every frame within bounds.

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

        diag = MixmaxDiagnostics()
        mean_spp = np.empty(spec.n_frames)
        for t in range(spec.n_frames):
            z = logs[t]
            rho, h = speech_dominance(z, speech_terms(z, mog), noise, diag)
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
        assert diag.undecidable_bins > 0

        _, report = enhance_utterance(noisy, mog, net, cfg)
        np.testing.assert_allclose(report.frame_mean_spp, mean_spp, atol=1e-14)
        np.testing.assert_allclose(report.noise.mu, noise.mu, atol=1e-14)
        np.testing.assert_allclose(report.noise.sigma, noise.sigma, atol=1e-14)
        assert report.diagnostics == diag

    def test_full_loop_replication(self, setup):
        self.replay_full_loop(setup, "nn")

    def test_full_loop_replication_generative(self, setup):
        self.replay_full_loop(setup, "generative")


# ---------------------------------------------------------------------------
# Hoisted precompute against the frame-by-frame loop
# ---------------------------------------------------------------------------


MODES = [(est, src) for est in ("soft-subtraction", "mixmax-mmse")
         for src in ("nn", "generative")]
REFERENCE = EnhancerConfig(estimator="mixmax-mmse", posterior_source="generative")


class TestHoisting:
    @pytest.mark.parametrize("gap", [False, True], ids=["white", "silence-gap"])
    @pytest.mark.parametrize("estimator,posterior_source", MODES)
    def test_matches_frame_loop(self, setup, estimator, posterior_source, gap):
        """Batched NN forward, blockwise speech side and batched subtraction
        and reconstruction reproduce the per-frame loop.  Only the batched
        forward may round differently, so without the NN the samples match
        exactly."""
        mog, net, _, noisy = setup
        if gap:
            noisy = with_silence_gap(noisy)
        cfg = EnhancerConfig(estimator=estimator, posterior_source=posterior_source)
        expected, ref = enhance_by_frame(noisy, mog, net, cfg, adapt_noise=True)
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
        if gap:
            assert report.diagnostics.undecidable_bins > 0

    @pytest.mark.parametrize("inputs", ["white", "silence-gap", "three-rows"])
    def test_reference_mode_matches_frame_loop(self, setup, inputs):
        """The reference mode takes a block of frames per step; its whole
        report equals the per-frame loop's, and its final noise is the
        prefix model.  Three rows make blocks of 5 frames, and the silence
        gap of two of them spans a block boundary."""
        mog, _, clean, noisy = setup
        waves = {
            "white": [noisy],
            "silence-gap": [with_silence_gap(noisy)],
            "three-rows": noisy_rows(clean, [(1, 0.0, False, False), (2, 5.0, True, True),
                                             (3, 10.0, False, True)]),
        }[inputs]
        if inputs == "three-rows":
            pad, hop, block = edge_padding(512), 512 // 4, enhancer.SPEECH_BLOCK // 3
            first, last = -(-(GAP[0] + pad) // hop), (GAP[1] + pad - 512) // hop
            assert block == 5 and first // block < last // block  # whole silent frames

        got = enhancer._run(waves, mog, None, REFERENCE, adapt_noise=False)
        for (y, report), w in zip(got, waves, strict=True):
            expected, ref = enhance_by_frame(w, mog, None, REFERENCE, adapt_noise=False)
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
        if inputs != "white":
            assert got[-1][1].diagnostics.undecidable_bins > 0
            assert got[-1][1].diagnostics.tail_fallbacks > 0

    def test_noise_independent_work_runs_once(self, setup, monkeypatch):
        """One utterance: one NN forward, one subtraction and one
        reconstruction over all frames; dominance and adaptation per frame."""
        mog, net, _, noisy = setup
        calls = count_calls(monkeypatch, ("forward", "reconstruct_frame", "soft_subtract",
                                          "speech_dominance", "adapt"))
        _, report = enhance_utterance(noisy, mog, net, EnhancerConfig())
        n = report.frames_processed
        assert n > enhancer.SPEECH_BLOCK  # more than one block of frames
        assert calls == {"forward": 1, "reconstruct_frame": 1, "soft_subtract": 1,
                         "speech_dominance": n, "adapt": n}

    @pytest.mark.parametrize("estimator,posterior_source", MODES)
    def test_steps_per_frame_when_the_noise_adapts(self, setup, monkeypatch,
                                                   estimator, posterior_source):
        """Each frame reads the noise the previous one updated, so the
        noise-side steps run once per frame; the truncated mean, which does
        not read the noise, once per block."""
        mog, net, _, noisy = setup
        calls = count_calls(monkeypatch, ("speech_dominance", "generative_posterior",
                                          "conditional_mean_below", "adapt"))
        cfg = EnhancerConfig(estimator=estimator, posterior_source=posterior_source)
        n = enhance_utterance(noisy, mog, net, cfg)[1].frames_processed
        expected = {"speech_dominance": n, "adapt": n}
        if posterior_source == "generative":
            expected["generative_posterior"] = n
        if estimator == "mixmax-mmse":
            expected["conditional_mean_below"] = -(-n // enhancer.SPEECH_BLOCK)
        assert calls == expected

    def test_reference_mode_steps_per_block(self, setup, monkeypatch):
        """With the noise fixed no frame waits for another: every step runs
        once per block of SPEECH_BLOCK frames, and the noise never adapts."""
        mog, _, _, noisy = setup
        calls = count_calls(monkeypatch, ("speech_dominance", "generative_posterior",
                                          "conditional_mean_below", "adapt"))
        [(_, report)] = enhancer._run([noisy], mog, None, REFERENCE, adapt_noise=False)
        n = report.frames_processed
        assert n % enhancer.SPEECH_BLOCK  # a short last block
        blocks = -(-n // enhancer.SPEECH_BLOCK)
        assert calls == {"speech_dominance": blocks, "generative_posterior": blocks,
                         "conditional_mean_below": blocks}


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
        batched = enhancer._run(waves, mog, None, REFERENCE, adapt_noise=False)
        for got, w in zip(batched, waves, strict=True):
            assert_same_row(got, enhancer._run([w], mog, None, REFERENCE, adapt_noise=False)[0])
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
        """Three rows: dominance and adaptation once per frame for all of
        them; the forward pass and reconstruction once per row."""
        mog, net, _, noisy = setup
        calls = count_calls(monkeypatch, ("forward", "reconstruct_frame", "soft_subtract",
                                          "speech_dominance", "adapt"))

        waves = noisy_rows(noisy, [(1, 0.0, False, False), (2, 5.0, True, False),
                                   (3, 10.0, False, True)])
        pairs = enhance_batch(waves, mog, net, EnhancerConfig())
        n = pairs[0][1].frames_processed
        assert calls == {"forward": 3, "reconstruct_frame": 3, "soft_subtract": 1,
                         "speech_dominance": n, "adapt": n}

    def test_posteriors_checked_before_the_recursion(self, setup, monkeypatch):
        """A classifier weight that turned NaN after construction gives NaN
        posteriors; they are rejected before the first frame runs."""
        mog, net, _, noisy = setup
        bad = NnClassifier(w1=net.w1.copy(), w2=net.w2.copy())
        bad.w2[0, 0] = np.nan
        frames = []
        monkeypatch.setattr(enhancer, "speech_dominance", lambda *args: frames.append(args))
        with pytest.raises(ValueError, match="probability"):
            enhance_utterance(noisy, mog, bad, EnhancerConfig())
        assert frames == []

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
    utterance, outside the frame loop, with adapt's errors."""

    def test_checked_once_per_utterance(self, setup, monkeypatch):
        mog, net, _, noisy = setup
        calls = count_calls(monkeypatch, ("check_observations", "check_spp"))
        enhance_batch([noisy, with_silence_gap(noisy)], mog, net, EnhancerConfig())
        assert calls == {"check_observations": 1, "check_spp": 1}
        calls.clear()
        enhance_mixmax_original(noisy, mog, EnhancerConfig())
        assert calls == {}  # the noise never adapts

    def test_non_finite_observation_rejected_before_the_recursion(self, setup, monkeypatch):
        mog, net, _, noisy = setup

        def with_nan(spec):
            logs = log_spectra(spec)
            logs[-1, 3] = np.nan
            return logs

        monkeypatch.setattr(enhancer, "log_spectra", with_nan)
        frames = []
        monkeypatch.setattr(enhancer, "speech_dominance", lambda *a, **k: frames.append(a))
        with pytest.raises(ValueError, match="observation must be finite"):
            enhance_utterance(noisy, mog, net, EnhancerConfig())
        assert frames == []

    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan], ids=["above", "below", "nan"])
    def test_spp_outside_unit_interval_rejected(self, setup, monkeypatch, bad):
        mog, net, _, noisy = setup
        spp = enhancer.weighted_spp

        def one_bad_bin(posterior, rho, *, out):
            spp(posterior, rho, out=out)
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

    def test_prefix_frame_count(self):
        cfg = EnhancerConfig(noise_prefix=0.25)
        logs = np.zeros((60, 257))
        prefix = noise_prefix_frames(logs, 16000, cfg)
        # 0.25 s at a 128-sample hop is 31.25 -> 31 frames
        assert prefix.shape == (31, 257)
        lead = edge_padding(512) // 128
        assert lead == 3
