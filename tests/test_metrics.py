"""Segmental SNR and log-spectral distance."""

import numpy as np
import pytest

from nnmm.dsp import Waveform
from nnmm.metrics import log_spectral_distance, segmental_snr


def wav(x, rate=16000):
    return Waveform(samples=np.asarray(x, dtype=np.float64), sample_rate=rate)


def naive_segsnr(clean, enhanced, rate, frame_ms=32.0):
    """Frame loop written independently of the library implementation."""
    n = int(round(rate * frame_ms / 1000.0))
    energies, snrs = [], []
    for start in range(0, len(clean) - n + 1, n):
        c = clean[start:start + n]
        e = enhanced[start:start + n] - c
        energies.append(np.sum(c**2))
        snrs.append(10 * np.log10(np.sum(c**2) / max(np.sum(e**2), 1e-300)))
    energies = np.asarray(energies)
    active = energies > energies.max() * 10 ** (-40 / 10)
    return float(np.mean(np.clip(np.asarray(snrs)[active], -10.0, 35.0)))


# ---------------------------------------------------------------------------
# Segmental SNR
# ---------------------------------------------------------------------------


class TestSegmentalSnr:
    def test_identical_signals_hit_ceiling(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8000)
        assert segmental_snr(wav(x), wav(x)) == 35.0

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(1)
        clean = rng.standard_normal(16000)
        enhanced = clean + 0.1 * rng.standard_normal(16000)
        got = segmental_snr(wav(clean), wav(enhanced))
        want = naive_segsnr(clean, enhanced, 16000)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_known_flat_snr(self):
        """Error at exactly -20 dB per frame gives a segmental SNR of 20."""
        rng = np.random.default_rng(2)
        clean = rng.standard_normal(16000)
        n = 512
        enhanced = clean.copy()
        for start in range(0, 16000 - n + 1, n):
            c = clean[start:start + n]
            err = rng.standard_normal(n)
            err *= np.sqrt(np.sum(c**2) / np.sum(err**2)) * 10 ** (-20 / 20)
            enhanced[start:start + n] = c + err
        np.testing.assert_allclose(segmental_snr(wav(clean), wav(enhanced)), 20.0,
                                   atol=1e-9)

    def test_silent_frames_excluded(self):
        rng = np.random.default_rng(3)
        loud = rng.standard_normal(4096)
        clean = np.concatenate([loud, 1e-6 * rng.standard_normal(4096)])
        # corrupt only the near-silent half; active frames are untouched
        enhanced = clean.copy()
        enhanced[4096:] += 0.5
        assert segmental_snr(wav(clean), wav(enhanced)) == 35.0

    def test_worse_estimate_scores_lower(self):
        rng = np.random.default_rng(4)
        clean = rng.standard_normal(8000)
        small = clean + 0.05 * rng.standard_normal(8000)
        large = clean + 0.5 * rng.standard_normal(8000)
        assert segmental_snr(wav(clean), wav(small)) > segmental_snr(wav(clean), wav(large))

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            segmental_snr(wav(np.zeros(4000)), wav(np.ones(4000)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            segmental_snr(wav(np.ones(4000)), wav(np.ones(4001)))

    def test_shorter_than_one_segment_rejected(self):
        """300 samples at 16 kHz hold no 32 ms (512-sample) segment."""
        x = np.random.default_rng(8).standard_normal(300)
        with pytest.raises(ValueError, match="300 samples are shorter than one 32 ms segment"):
            segmental_snr(wav(x), wav(x))


# ---------------------------------------------------------------------------
# Log-spectral distance
# ---------------------------------------------------------------------------


class TestLogSpectralDistance:
    def test_identical_signals_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8000)
        assert log_spectral_distance(wav(x), wav(x)) == pytest.approx(0.0, abs=1e-9)

    def test_pure_gain_maps_to_db(self):
        """Scaling by 2 everywhere is a constant 20*log10(2) dB offset."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8000)
        got = log_spectral_distance(wav(x), wav(2.0 * x))
        np.testing.assert_allclose(got, 20 * np.log10(2.0), rtol=1e-9)

    def test_symmetric_under_gain_inversion(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(8000)
        up = log_spectral_distance(wav(x), wav(2.0 * x))
        down = log_spectral_distance(wav(x), wav(0.5 * x))
        np.testing.assert_allclose(up, down, rtol=1e-9)

    def test_noisier_signal_farther(self):
        rng = np.random.default_rng(8)
        clean = rng.standard_normal(8000)
        a = clean + 0.05 * rng.standard_normal(8000)
        b = clean + 0.5 * rng.standard_normal(8000)
        assert log_spectral_distance(wav(clean), wav(a)) < log_spectral_distance(
            wav(clean), wav(b))

    def test_silent_reference_rejected(self):
        """A digitally silent reference has no energetic frame to score."""
        noise = np.random.default_rng(9).standard_normal(3000)
        with pytest.raises(ValueError, match="clean reference is silent"):
            log_spectral_distance(wav(np.zeros(3000)), wav(noise))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            log_spectral_distance(wav(np.ones(4000)), wav(np.ones(4001)))
