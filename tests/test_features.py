"""Mel filterbank, MFCCs, deltas, normalization, and context stacking."""

import numpy as np
import pytest
from scipy.fft import dct

from nnmm.dsp import Waveform, stft
from nnmm.features import (
    CONTEXT_FRAMES,
    N_CEPSTRA,
    N_MEL_FILTERS,
    STACKED_DIM,
    cmvn,
    deltas,
    feature_matrix,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    stack_all,
)


# ---------------------------------------------------------------------------
# Mel scale and filterbank
# ---------------------------------------------------------------------------


class TestMelScale:
    def test_known_anchor(self):
        """1000 Hz sits near 1000 mel on this scale."""
        assert abs(hz_to_mel(1000.0) - 999.99) < 0.1

    def test_inverse(self):
        f = np.linspace(0, 8000, 50)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-8)


class TestFilterbank:
    def test_shape(self):
        fb = mel_filterbank(257, 16000)
        assert fb.shape == (N_MEL_FILTERS, 257)

    def test_triangles_peak_at_one_interior(self):
        fb = mel_filterbank(257, 16000)
        peaks = fb.max(axis=1)
        assert np.all(peaks > 0.5)
        assert np.all(peaks <= 1.0 + 1e-12)

    def test_adjacent_filters_overlap(self):
        fb = mel_filterbank(257, 16000)
        for i in range(N_MEL_FILTERS - 1):
            assert np.any((fb[i] > 0) & (fb[i + 1] > 0))

    def test_nonnegative(self):
        fb = mel_filterbank(512 // 2 + 1, 16000)
        assert np.all(fb >= 0)


# ---------------------------------------------------------------------------
# MFCC
# ---------------------------------------------------------------------------


class TestMfcc:
    def test_matches_manual_computation(self):
        """Cepstra are the orthonormal DCT of floored log filterbank energies."""
        rng = np.random.default_rng(0)
        frame = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        fb = mel_filterbank(257, 16000)
        energies = fb @ np.abs(frame) ** 2
        expected = dct(np.log(np.maximum(energies, 1e-50)), type=2, norm="ortho")[:N_CEPSTRA]
        np.testing.assert_allclose(mfcc(frame, 16000), expected, rtol=1e-12)

    def test_length(self):
        frame = np.ones(257, dtype=complex)
        assert mfcc(frame, 16000).shape == (N_CEPSTRA,)

    def test_scaling_moves_only_c0(self):
        """Doubling the signal shifts energy; DCT pushes it into c0 alone."""
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        a = mfcc(frame, 16000)
        b = mfcc(2.0 * frame, 16000)
        np.testing.assert_allclose(b[1:], a[1:], atol=1e-10)
        assert b[0] > a[0]

    def test_frames_match_single_frame_rows(self):
        """A (N, K) stack gives the same cepstra as N single-frame calls."""
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((6, 257)) + 1j * rng.standard_normal((6, 257))
        stacked = mfcc(frames, 16000)
        assert stacked.shape == (6, N_CEPSTRA)
        for t in range(6):
            np.testing.assert_allclose(stacked[t], mfcc(frames[t], 16000), rtol=1e-12)


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------


def naive_deltas(static):
    """Reference: +-2 frame regression with edge replication, denominator 10."""
    n, c = static.shape
    padded = np.vstack([static[0], static[0], static, static[-1], static[-1]])
    d = np.zeros_like(static)
    for t in range(n):
        center = t + 2
        d[t] = (1 * (padded[center + 1] - padded[center - 1])
                + 2 * (padded[center + 2] - padded[center - 2])) / 10.0
    return d


class TestDeltas:
    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        static = rng.standard_normal((12, 13))
        out = deltas(static)
        np.testing.assert_allclose(out[:, 13:26], naive_deltas(static), rtol=1e-12)
        np.testing.assert_allclose(out[:, 26:], naive_deltas(naive_deltas(static)), rtol=1e-12)

    def test_constant_sequence_has_zero_deltas(self):
        static = np.tile(np.arange(13.0), (8, 1))
        out = deltas(static)
        np.testing.assert_allclose(out[:, 13:], 0.0, atol=1e-14)

    def test_output_width_triples(self):
        static = np.zeros((6, 13))
        assert deltas(static).shape == (6, 39)


# ---------------------------------------------------------------------------
# CMVN
# ---------------------------------------------------------------------------


class TestCmvn:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        x = 3.0 + 2.0 * rng.standard_normal((50, 39))
        y = cmvn(x)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.std(axis=0), 1.0, rtol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.ones((10, 3))
        x[:, 1] = np.arange(10.0)
        y = cmvn(x)
        np.testing.assert_allclose(y[:, 0], 0.0)
        np.testing.assert_allclose(y[:, 2], 0.0)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="CMVN"):
            cmvn(np.ones((1, 5)))


# ---------------------------------------------------------------------------
# Context stacking
# ---------------------------------------------------------------------------


class TestStacking:
    def test_stack_all_rows_match_manual(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 3))
        stacked = stack_all(x)
        # frame 0: the four left neighbors replicate frame 0
        np.testing.assert_allclose(
            stacked[0], np.concatenate([np.tile(x[0], 5), x[1], x[2], x[3], x[4]])
        )
        # interior frame sees the raw +-4 window
        np.testing.assert_allclose(stacked[5], x[1:10].ravel())
        # last frame: the four right neighbors replicate frame 11
        np.testing.assert_allclose(
            stacked[11], np.concatenate([x[7], x[8], x[9], x[10], np.tile(x[11], 5)])
        )

    def test_stack_all_matches_per_frame(self):
        """Row t is frames t-4 .. t+4, with indices clamped to the utterance."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 4))
        stacked = stack_all(x)
        for t in range(10):
            window = [x[min(max(j, 0), 9)] for j in range(t - CONTEXT_FRAMES, t + CONTEXT_FRAMES + 1)]
            np.testing.assert_allclose(stacked[t], np.concatenate(window))

    def test_stack_all_dim(self):
        x = np.zeros((20, 39))
        assert stack_all(x).shape == (20, STACKED_DIM)
        assert STACKED_DIM == (2 * CONTEXT_FRAMES + 1) * 39


class TestFeatureMatrix:
    def test_full_pipeline_shape_and_normalization(self):
        rng = np.random.default_rng(5)
        w = Waveform(samples=rng.standard_normal(8000), sample_rate=16000)
        spec = stft(w, 512)
        v = feature_matrix(spec, 16000)
        assert v.shape == (spec.n_frames, STACKED_DIM)
        # centre slice of the stack is the normalized per-frame features
        mid = v[:, STACKED_DIM // 2 - 19 : STACKED_DIM // 2 + 20]
        assert abs(float(mid.mean())) < 0.2
