"""Per-utterance enhancement: features, posteriors, SPP, subtraction, OLA.

Only the noise estimate is recursive, so an utterance runs in three parts:

* a precompute over all frames that does not depend on noise: STFT and
  log-spectra, MFCC features and the classifier's posteriors in one batched
  forward pass, and, a block of ``SPEECH_BLOCK`` frames at a time, the
  speech side of the max model (and, for the MMSE estimator, the truncated
  means);
* the recursion, in time order: per frame only the noise side of the
  dominance, the generative posterior where the mode uses it, the SPP (and
  the MMSE estimate), and the SPP-gated noise update;
* soft subtraction, reconstruction and overlap-add over all frames at once.

Two estimator styles are supported:

* soft spectral subtraction driven by the per-bin speech presence
  probability (the default), and
* the classic max-model MMSE estimator with a fixed noise model and the
  generative component posterior, kept as a reference mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dsp import (
    ComplexSpectrogram,
    Waveform,
    check_frame_length,
    edge_padding,
    istft,
    log_spectra,
    reconstruct_frame,
    stft,
)
from .features import feature_matrix
from .mixmax import (
    MixmaxDiagnostics,
    conditional_mean_below,
    generative_posterior,
    hybrid_spp,
    mmse_estimate,
    soft_subtract,
    speech_dominance,
    speech_terms,
)
from .mog import PhonemeMog
from .nn import NnClassifier, forward
from .noise import NoiseModel, adapt, init_from_prefix

ESTIMATORS = ("soft-subtraction", "mixmax-mmse")
POSTERIOR_SOURCES = ("nn", "generative")

# Frames whose speech-side terms are formed together.  Each block holds a few
# (SPEECH_BLOCK, m, K) arrays, so memory does not grow with the utterance;
# 16 frames already amortize the per-call overhead, and larger blocks only
# raise peak memory.
SPEECH_BLOCK = 16


@dataclass(frozen=True)
class EnhancerConfig:
    """Knobs for one enhancement job.

    beta is the maximum attenuation in natural-log magnitude units
    (2.5 ~ 21.7 dB); alpha is the noise-adaptation smoothing constant;
    noise_prefix is the leading noise-only stretch, in seconds, used to
    initialize the noise model.
    """

    frame_length: int = 512
    beta: float = 2.5
    alpha: float = 0.1
    noise_prefix: float = 0.25
    estimator: str = "soft-subtraction"
    posterior_source: str = "nn"

    def __post_init__(self):
        check_frame_length(self.frame_length)
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.noise_prefix <= 0:
            raise ValueError("noise_prefix must be positive")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.posterior_source not in POSTERIOR_SOURCES:
            raise ValueError(f"posterior_source must be one of {POSTERIOR_SOURCES}")


@dataclass
class EnhancementReport:
    """What happened during one utterance, for logging and evaluation."""

    frame_mean_spp: np.ndarray
    # (N, m): the component posterior that weighted each frame's SPP, the
    # classifier's or the generative one, as the mode chose.
    posteriors: np.ndarray
    diagnostics: MixmaxDiagnostics
    noise: NoiseModel

    @property
    def frames_processed(self) -> int:
        return len(self.frame_mean_spp)

    @property
    def mean_spp(self) -> float:
        return float(np.mean(self.frame_mean_spp))


def noise_prefix_frames(logspecs: np.ndarray, sample_rate: int, cfg: EnhancerConfig) -> np.ndarray:
    """Slice of fully-inside-signal leading frames used for noise statistics.

    The first few STFT frames overlap the zero padding, so they are skipped;
    the prefix then spans ``cfg.noise_prefix`` seconds (at least 2 frames).
    """
    hop = cfg.frame_length // 4
    lead = edge_padding(cfg.frame_length) // hop
    n_prefix = max(2, int(round(cfg.noise_prefix * sample_rate / hop)))
    if lead + n_prefix > logspecs.shape[0]:
        raise ValueError(
            f"utterance too short for a {cfg.noise_prefix:g} s noise-only prefix"
        )
    return logspecs[lead:lead + n_prefix]


def _nn_posteriors(
    spec: ComplexSpectrogram,
    sample_rate: int,
    mog: PhonemeMog,
    net: NnClassifier | None,
) -> np.ndarray:
    """The classifier's component posteriors for every frame, shape (N, m).

    The feature matrix is dropped on return, so the frame loop does not
    hold it.
    """
    if net is None:
        raise ValueError("nn posterior source requires a trained classifier")
    if net.n_classes != mog.n_components:
        raise ValueError("classifier and mixture disagree on class count")
    feats = feature_matrix(spec, sample_rate)
    if net.n_inputs != feats.shape[1]:
        raise ValueError(
            f"classifier expects {net.n_inputs}-dim inputs, features are {feats.shape[1]}-dim"
        )
    return forward(net, feats)


def _run(
    w: Waveform,
    mog: PhonemeMog,
    net: NnClassifier | None,
    cfg: EnhancerConfig,
    adapt_noise: bool,
):
    spec = stft(w, cfg.frame_length)
    logspecs = log_spectra(spec)
    if mog.n_bins != spec.n_bins:
        raise ValueError("mixture model bin count does not match frame length")
    noise = init_from_prefix(noise_prefix_frames(logspecs, w.sample_rate, cfg))

    generative = cfg.posterior_source == "generative"
    if generative:
        posteriors = np.empty((spec.n_frames, mog.n_components))
    else:
        posteriors = _nn_posteriors(spec, w.sample_rate, mog, net)

    diag = MixmaxDiagnostics()
    mmse = cfg.estimator == "mixmax-mmse"
    spp = np.empty_like(logspecs)
    xhat = np.empty_like(logspecs) if mmse else None

    for first in range(0, spec.n_frames, SPEECH_BLOCK):
        block = logspecs[first:first + SPEECH_BLOCK]
        f, big_f = speech_terms(block, mog)
        if mmse:
            below = conditional_mean_below(block, mog, diag)
        for i, z in enumerate(block):
            t = first + i
            rho, h = speech_dominance(z, (f[i], big_f[i]), noise, diag)
            if generative:
                posteriors[t] = generative_posterior(h, mog)
            p = posteriors[t]
            if mmse:
                xhat[t], spp[t] = mmse_estimate(z, p, rho, below[i])
            else:
                spp[t] = hybrid_spp(p, rho)
            if adapt_noise:
                noise = adapt(noise, z, spp[t], cfg.alpha)

    frame_mean_spp = spp.mean(axis=1)
    if not mmse:
        xhat = soft_subtract(logspecs, spp, cfg.beta)
    # Each whole-utterance array is dropped once used, so the temporaries of
    # reconstruction and overlap-add do not stack on top of it.
    del spp, logspecs
    out = reconstruct_frame(xhat, spec.frames)
    del xhat
    y = istft(ComplexSpectrogram(frames=out, frame_length=cfg.frame_length))
    pad = edge_padding(cfg.frame_length)
    enhanced = Waveform(samples=y[pad:pad + len(w)], sample_rate=w.sample_rate)
    report = EnhancementReport(
        frame_mean_spp=frame_mean_spp,
        posteriors=posteriors,
        diagnostics=diag,
        noise=noise,
    )
    return enhanced, report


def enhance_utterance(
    w: Waveform,
    mog: PhonemeMog,
    net: NnClassifier | None,
    cfg: EnhancerConfig,
):
    """Enhance one utterance with SPP gating and online noise adaptation.

    Returns the enhanced waveform (same length and rate as the input) and a
    report with per-frame mean SPP and component posteriors, fallback
    counters, and the final noise model.
    """
    return _run(w, mog, net, cfg, adapt_noise=True)


def enhance_mixmax_original(w: Waveform, mog: PhonemeMog, cfg: EnhancerConfig) -> Waveform:
    """Reference mode: generative posterior, exact MMSE, noise held fixed.

    The noise model is initialized from the prefix and never updated, and no
    classifier is involved; only frame length and prefix are read from cfg.
    """
    cfg = replace(cfg, estimator="mixmax-mmse", posterior_source="generative")
    enhanced, _ = _run(w, mog, None, cfg, adapt_noise=False)
    return enhanced
