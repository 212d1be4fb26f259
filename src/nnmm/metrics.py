"""Objective enhancement metrics: segmental SNR and log-spectral distance."""

from __future__ import annotations

import numpy as np

from .dsp import Waveform, log_spectra, stft

SEGSNR_FLOOR_DB = -10.0
SEGSNR_CEIL_DB = 35.0

# Frames whose energy falls this far below the loudest frame are treated as
# silence and excluded from the segmental averages.
SILENCE_MARGIN_DB = 40.0

# Length of the non-overlapping segmental-SNR frames.
SEGSNR_FRAME_MS = 32.0


def _frame_energies(x: np.ndarray, frame: int) -> np.ndarray:
    n = len(x) // frame
    return np.sum(x[: n * frame].reshape(n, frame) ** 2, axis=1)


def _loud_frames(energies: np.ndarray, metric: str) -> np.ndarray:
    """Mask of the reference frames within SILENCE_MARGIN_DB of the loudest;
    raises when no frame qualifies, as for a digitally silent reference."""
    active = energies > np.max(energies) * 10.0 ** (-SILENCE_MARGIN_DB / 10.0)
    if not np.any(active):
        raise ValueError(f"clean reference is silent; {metric} undefined")
    return active


def segmental_snr(clean: Waveform, enhanced: Waveform) -> float:
    """Mean per-frame SNR in dB, clamped to [-10, 35], silence excluded.

    Frames are non-overlapping and 32 ms long; a frame counts as silent when
    its clean energy is 40 dB below the loudest clean frame.
    """
    if len(clean) != len(enhanced) or clean.sample_rate != enhanced.sample_rate:
        raise ValueError("signals must share length and sample rate")
    frame = max(1, int(round(SEGSNR_FRAME_MS * 1e-3 * clean.sample_rate)))
    if len(clean) < frame:
        raise ValueError(f"signals of {len(clean)} samples are shorter than one "
                         f"{SEGSNR_FRAME_MS:g} ms segment ({frame} samples)")

    e_clean = _frame_energies(clean.samples, frame)
    e_err = _frame_energies(clean.samples - enhanced.samples, frame)
    active = _loud_frames(e_clean, "segmental SNR")

    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(e_clean[active] / np.maximum(e_err[active], 1e-300))
    return float(np.mean(np.clip(snr, SEGSNR_FLOOR_DB, SEGSNR_CEIL_DB)))


def log_spectral_distance(clean: Waveform, enhanced: Waveform, frame_length: int = 512) -> float:
    """RMS log-magnitude gap in dB over energetic frames of the reference.

    Both signals are analyzed with the same STFT; frames whose clean energy
    sits 40 dB under the loudest frame are skipped, as in segmental_snr, and
    a silent reference is refused.  The per-bin natural log differences are
    converted to dB (factor 20/ln 10) and RMS-pooled.
    """
    if len(clean) != len(enhanced) or clean.sample_rate != enhanced.sample_rate:
        raise ValueError("signals must share length and sample rate")
    sc = stft(clean, frame_length)
    se = stft(enhanced, frame_length)
    lc = log_spectra(sc)
    le = log_spectra(se)

    active = _loud_frames(np.sum(np.abs(sc.frames) ** 2, axis=1), "log-spectral distance")
    diff = (20.0 / np.log(10.0)) * (lc[active] - le[active])
    return float(np.sqrt(np.mean(diff**2)))
