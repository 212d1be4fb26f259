"""Classifier input features.

Per frame: 13 MFCCs from a 26-filter HTK-mel triangular filterbank, extended
with delta and delta-delta regressions to 39 coefficients, standardized per
utterance (CMVN), then stacked with 4 frames of context on each side into a
9 x 39 = 351-dimensional vector.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dct

from .dsp import ComplexSpectrogram

N_MEL_FILTERS = 26
N_CEPSTRA = 13
DELTA_HALF_WINDOW = 2
CONTEXT_FRAMES = 4

# Filterbank energies are floored here before the log.
ENERGY_FLOOR = 1e-50

STACKED_DIM = (2 * CONTEXT_FRAMES + 1) * 3 * N_CEPSTRA


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(n_bins: int, sample_rate: int) -> np.ndarray:
    """Triangular filters on the mel scale, 0 Hz to Nyquist, shape (26, n_bins).

    Triangles are evaluated at the continuous bin-center frequencies, so no
    filter comes out empty even for short frames.
    """
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), N_MEL_FILTERS + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.linspace(0.0, nyquist, n_bins)

    fb = np.zeros((N_MEL_FILTERS, n_bins))
    for j in range(N_MEL_FILTERS):
        lo, mid, hi = hz_points[j : j + 3]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        fb[j] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def mfcc(frames: np.ndarray, sample_rate: int) -> np.ndarray:
    """13 static cepstra (including c0) of complex STFT frames, (..., K) -> (..., 13)."""
    fb = mel_filterbank(frames.shape[-1], sample_rate)
    energies = np.maximum((np.abs(frames) ** 2) @ fb.T, ENERGY_FLOOR)
    return dct(np.log(energies), type=2, norm="ortho", axis=-1)[..., :N_CEPSTRA]


def deltas(static: np.ndarray) -> np.ndarray:
    """Append delta and delta-delta regressions, (N, C) -> (N, 3C).

    Deltas use the standard +-2 frame linear regression with edge frames
    replicated; delta-deltas apply the same regression to the deltas.
    """
    static = np.asarray(static, dtype=np.float64)
    if static.ndim != 2 or static.shape[0] == 0:
        raise ValueError("need a nonempty (n_frames, n_coeffs) sequence")
    d1 = _regression(static)
    d2 = _regression(d1)
    return np.concatenate([static, d1, d2], axis=1)


def _regression(seq: np.ndarray) -> np.ndarray:
    n = seq.shape[0]
    pad = np.pad(seq, ((DELTA_HALF_WINDOW, DELTA_HALF_WINDOW), (0, 0)), mode="edge")
    out = np.zeros_like(seq)
    denom = 2.0 * sum(k * k for k in range(1, DELTA_HALF_WINDOW + 1))
    for k in range(1, DELTA_HALF_WINDOW + 1):
        out += k * (pad[DELTA_HALF_WINDOW + k : DELTA_HALF_WINDOW + k + n]
                    - pad[DELTA_HALF_WINDOW - k : DELTA_HALF_WINDOW - k + n])
    return out / denom


def cmvn(features: np.ndarray) -> np.ndarray:
    """Per-utterance standardization: each coefficient to mean 0, variance 1.

    Population variance; coefficients with zero variance are left at zero.
    Undefined for single-frame utterances.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("expected (n_frames, n_coeffs)")
    if features.shape[0] < 2:
        raise ValueError("CMVN undefined for fewer than 2 frames")
    centered = features - features.mean(axis=0)
    std = features.std(axis=0)
    out = np.zeros_like(centered)
    live = std > 0
    out[:, live] = centered[:, live] / std[live]
    return out


def stack_all(features: np.ndarray) -> np.ndarray:
    """Context-stack every frame, (N, C) -> (N, 9C): row n is frames n-4 .. n+4,
    with the edge frames replicated."""
    n = features.shape[0]
    idx = np.clip(
        np.arange(n)[:, None] + np.arange(-CONTEXT_FRAMES, CONTEXT_FRAMES + 1)[None, :],
        0, n - 1,
    )
    return features[idx].reshape(n, -1)


def feature_matrix(spec: ComplexSpectrogram, sample_rate: int) -> np.ndarray:
    """Full pipeline for one utterance: (n_frames, 351) stacked features.

    CMVN statistics are utterance-wide, so this runs offline on the whole
    spectrogram rather than frame by frame.
    """
    return stack_all(cmvn(deltas(mfcc(spec.frames, sample_rate))))
