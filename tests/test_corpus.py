"""Synthetic corpus generation, noise mixing, and corpus storage."""

import warnings

import numpy as np
import pytest

import nnmm.corpus as corpus
from nnmm.corpus import (
    ClassEnvelope,
    SyntheticCorpusSpec,
    assemble_frames,
    default_envelopes,
    load_corpus,
    mix_at_snr,
    save_corpus,
    step_white_noise,
    synthesize_corpus,
    white_noise,
)
from nnmm.dsp import Waveform, edge_padding, num_frames
from nnmm.mog import train_supervised


def small_spec(seed=0, m=3):
    return SyntheticCorpusSpec(
        envelopes=default_envelopes(m),
        utterance_seconds=(0.8, 1.1),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


class TestEnvelopes:
    def test_gain_peaks_at_formants(self):
        env = ClassEnvelope(formants=(500.0, 2000.0), bandwidths=(80.0, 150.0))
        f = np.linspace(0, 8000, 2000)
        g = env.gain(f)
        assert g[np.argmin(np.abs(f - 500))] > 5 * env.floor
        assert g[np.argmin(np.abs(f - 4000))] < 0.1

    def test_default_envelopes_distinct(self):
        envs = default_envelopes(8)
        assert len({e.formants for e in envs}) == 8

    def test_mismatched_bandwidths_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            ClassEnvelope(formants=(500.0,), bandwidths=(80.0, 90.0))


# ---------------------------------------------------------------------------
# Corpus synthesis
# ---------------------------------------------------------------------------


class TestSynthesis:
    def test_same_seed_bit_identical(self):
        a = synthesize_corpus(small_spec(seed=5), 3)
        b = synthesize_corpus(small_spec(seed=5), 3)
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.waveform.samples, ub.waveform.samples)
            assert np.array_equal(ua.frame_labels, ub.frame_labels)

    def test_different_seed_differs(self):
        a = synthesize_corpus(small_spec(seed=1), 1)[0]
        b = synthesize_corpus(small_spec(seed=2), 1)[0]
        assert not np.array_equal(a.waveform.samples, b.waveform.samples)

    def test_labels_cover_every_frame(self):
        utt = synthesize_corpus(small_spec(), 1)[0]
        assert len(utt.frame_labels) == num_frames(len(utt.waveform), 512)
        assert utt.frame_labels.min() >= 0
        assert utt.frame_labels.max() < 3

    def test_label_histogram_near_uniform_priors(self):
        """Counting oracle: with uniform priors each class gets ~1/m of frames."""
        spec = SyntheticCorpusSpec(
            envelopes=default_envelopes(4),
            utterance_seconds=(1.5, 2.0),
            seed=3,
        )
        utts = synthesize_corpus(spec, 40)
        labels = np.concatenate([u.frame_labels for u in utts])
        # labels arrive in 8-20 frame segments, so the effective sample size
        # is the segment count (~650), not the frame count
        freq = np.bincount(labels, minlength=4) / len(labels)
        np.testing.assert_allclose(freq, 0.25, atol=0.035)

    def test_widely_separated_classes_make_separated_models(self):
        """Formant bins of a 2-class corpus differ by >5 std in the MoG."""
        envs = (
            ClassEnvelope(formants=(400.0,), bandwidths=(80.0,), floor=0.001),
            ClassEnvelope(formants=(5000.0,), bandwidths=(80.0,), floor=0.001),
        )
        spec = SyntheticCorpusSpec(
            envelopes=envs,
            utterance_seconds=(1.5, 1.6),
            amp_jitter=(1.0, 1.0),  # no level jitter: isolate spectral shape
            seed=4,
        )
        logs, _, labels = assemble_frames(synthesize_corpus(spec, 6), 512)
        # keep frames whose 2-frame neighbourhood shares the label: a window
        # centred near a segment boundary mixes both classes' spectra
        interior = np.ones(len(labels), bool)
        for shift in (-2, -1, 1, 2):
            interior[2:-2] &= labels[2:-2] == np.roll(labels, shift)[2:-2]
        interior[:2] = interior[-2:] = False
        mog = train_supervised(logs[interior], labels[interior], 2)
        # bin nearest 400 Hz at 16 kHz / 512 samples: 400/31.25
        bin_lo = int(round(400 / 31.25))
        gap = abs(mog.means[0, bin_lo] - mog.means[1, bin_lo])
        assert gap > 5 * max(mog.stds[0, bin_lo], mog.stds[1, bin_lo])

    def test_labels_are_the_class_at_each_frame_center(self, monkeypatch):
        """At L = 510 the hop does not divide the stft's padding, so a frame
        center is not a multiple of the hop; each label must still be the
        class under its frame's center sample."""
        envs = default_envelopes(3)
        segments = []  # (class, length) of each segment, in order

        def shaped_segment(env, n, sample_rate, rng):
            segments.append((envs.index(env), n))
            return np.ones(n)

        monkeypatch.setattr(corpus, "_shaped_segment", shaped_segment)
        spec = SyntheticCorpusSpec(envelopes=envs, frame_length=510, seed=2)
        rng = np.random.default_rng(spec.seed)
        for _ in range(3):
            segments.clear()
            utt = corpus.synthesize_utterance(spec, rng)
            sample_class = np.repeat(*np.array(segments).T)
            centers = (np.arange(len(utt.frame_labels)) * (510 // 4)
                       - edge_padding(510) + 510 // 2)
            expected = sample_class[np.clip(centers, 0, len(sample_class) - 1)]
            assert np.array_equal(utt.frame_labels, expected)
            assert np.any(np.diff(utt.frame_labels))

    def test_peak_normalized(self):
        utt = synthesize_corpus(small_spec(), 1)[0]
        np.testing.assert_allclose(np.max(np.abs(utt.waveform.samples)), 0.5, rtol=1e-12)

    def test_duplicate_envelopes_rejected(self):
        env = ClassEnvelope(formants=(500.0,), bandwidths=(80.0,))
        with pytest.raises(ValueError, match="distinct"):
            SyntheticCorpusSpec(envelopes=(env, env))

    @pytest.mark.parametrize("name", ["utterance_seconds", "amp_jitter"])
    @pytest.mark.parametrize("bounds", [(0.0, 0.0), (2.0, 1.0), (-1.0, 1.0),
                                        (0.5, np.inf), (np.nan, 1.0)],
                             ids=["zero", "reversed", "negative", "infinite", "nan"])
    def test_bad_range_rejected(self, name, bounds):
        """Refused by name when the spec is made, not later as an empty
        concatenation, a reversed uniform draw or a division by zero."""
        with pytest.raises(ValueError, match=f"{name} must be finite with 0 < low <= high"):
            SyntheticCorpusSpec(envelopes=default_envelopes(3), **{name: bounds})


# ---------------------------------------------------------------------------
# Noise and mixing
# ---------------------------------------------------------------------------


class TestNoise:
    def test_white_noise_deterministic(self):
        a = white_noise(1000, 16000, seed=7)
        b = white_noise(1000, 16000, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_step_noise_level_jump(self):
        w = step_white_noise(20000, 16000, seed=1, step_db=10.0)
        before = np.std(w.samples[:10000])
        after = np.std(w.samples[10000:])
        assert abs(20 * np.log10(after / before) - 10.0) < 0.5


class TestMixAtSnr:
    def test_zero_db_equalizes_powers(self):
        rng = np.random.default_rng(8)
        clean = Waveform(samples=rng.standard_normal(5000), sample_rate=16000)
        noise = Waveform(samples=0.3 * rng.standard_normal(5000), sample_rate=16000)
        mixed = mix_at_snr(clean, noise, 0.0)
        added = mixed.samples - clean.samples
        ratio = np.mean(clean.samples**2) / np.mean(added**2)
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-9)

    def test_requested_snr_achieved(self):
        rng = np.random.default_rng(9)
        clean = Waveform(samples=rng.standard_normal(4000), sample_rate=16000)
        noise = Waveform(samples=rng.standard_normal(4000), sample_rate=16000)
        for snr in [-5.0, 5.0, 15.0]:
            mixed = mix_at_snr(clean, noise, snr)
            added = mixed.samples - clean.samples
            measured = 10 * np.log10(np.mean(clean.samples**2) / np.mean(added**2))
            assert abs(measured - snr) < 1e-6

    def test_high_snr_is_nearly_clean(self):
        rng = np.random.default_rng(10)
        clean = Waveform(samples=rng.standard_normal(4000), sample_rate=16000)
        noise = Waveform(samples=rng.standard_normal(4000), sample_rate=16000)
        mixed = mix_at_snr(clean, noise, 60.0)
        rel = np.linalg.norm(mixed.samples - clean.samples) / np.linalg.norm(clean.samples)
        # added noise should sit exactly 60 dB down in power
        np.testing.assert_allclose(rel, 1e-3, rtol=1e-9)

    def test_short_noise_tiled(self):
        """Noise shorter than the clean signal repeats, and its last copy is
        cut at the clean signal's length."""
        rng = np.random.default_rng(11)
        clean = Waveform(samples=rng.standard_normal(4500), sample_rate=16000)
        noise = Waveform(samples=rng.standard_normal(1000), sample_rate=16000)
        mixed = mix_at_snr(clean, noise, 0.0)
        assert len(mixed) == 4500
        added = mixed.samples - clean.samples
        np.testing.assert_allclose(added[1000:], added[:-1000], rtol=0, atol=1e-12)
        np.testing.assert_allclose(added[:1000] / noise.samples, added[0] / noise.samples[0])

    def test_zero_power_rejected(self):
        clean = Waveform(samples=np.zeros(100), sample_rate=16000)
        noise = Waveform(samples=np.ones(100), sample_rate=16000)
        with pytest.raises(ValueError, match="zero-power"):
            mix_at_snr(clean, noise, 0.0)

    @pytest.mark.parametrize("clean_n,noise_n,snr_db,message", [
        (100, 0, 0.0, "noise is empty"),
        (0, 100, 0.0, "clean is empty"),
        (100, 100, -np.inf, "snr_db must be finite"),
        (100, 100, np.inf, "snr_db must be finite"),
        (100, 100, np.nan, "snr_db must be finite"),
    ], ids=["empty-noise", "empty-clean", "snr-minus-inf", "snr-inf", "snr-nan"])
    def test_unmixable_argument_is_named(self, clean_n, noise_n, snr_db, message):
        """Each is refused by name, with no warning first: not a division by
        zero in the tiling, a mean of an empty slice, or a scale of 0 or
        inf reported as non-finite samples."""
        rng = np.random.default_rng(12)
        clean = Waveform(samples=rng.standard_normal(clean_n), sample_rate=16000)
        noise = Waveform(samples=rng.standard_normal(noise_n), sample_rate=16000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                mix_at_snr(clean, noise, snr_db)


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class TestStorage:
    def test_round_trip(self, tmp_path):
        utts = synthesize_corpus(small_spec(seed=6), 3)
        save_corpus(tmp_path / "c", utts, 512, 3)
        back, meta = load_corpus(tmp_path / "c")
        assert meta["n_classes"] == 3
        assert meta["frame_length"] == 512
        assert len(back) == 3
        for orig, loaded in zip(utts, back):
            assert np.array_equal(orig.frame_labels, loaded.frame_labels)
            np.testing.assert_allclose(loaded.waveform.samples, orig.waveform.samples,
                                       atol=5e-5)

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="corpus.meta"):
            load_corpus(tmp_path)

    def test_unusable_frame_length_rejected(self, tmp_path):
        save_corpus(tmp_path, synthesize_corpus(small_spec(seed=6), 1), 512, 3)
        meta = tmp_path / "corpus.meta"
        meta.write_text(meta.read_text().replace("frame_length=512", "frame_length=2"))
        with pytest.raises(ValueError, match="frame_length must be even and at least 8"):
            load_corpus(tmp_path)


class TestAssemble:
    def test_shapes_align(self):
        utts = synthesize_corpus(small_spec(seed=12), 2)
        logs, feats, labels = assemble_frames(utts, 512)
        n = sum(len(u.frame_labels) for u in utts)
        assert logs.shape == (n, 257)
        assert feats.shape == (n, 351)
        assert labels.shape == (n,)
