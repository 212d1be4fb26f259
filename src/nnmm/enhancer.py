"""Per-utterance enhancement: features, posteriors, SPP, subtraction, OLA.

Only the noise estimate is recursive, so an utterance runs in three parts:

* a precompute over all frames that does not depend on noise: STFT and
  log-spectra, MFCC features and the classifier's posteriors in one batched
  forward pass, and, a block of frames at a time, the speech side of the
  max model (and, for the MMSE estimator, the truncated means);
* the recursion, in time order: the noise side of the dominance, the
  generative posterior where the mode uses it, the SPP (and the MMSE
  estimate), and the SPP-gated noise update;
* soft subtraction, reconstruction and overlap-add over all frames at once.

The recursion steps one frame at a time when the noise adapts, since each
frame reads the model the one before it updated.  With the noise model
fixed, as in the reference mode, no frame depends on another, so each step
takes a whole block of frames, (T, B, ...) arrays, through the same
functions; the results are the per-frame ones bit for bit, with a Python
call per block instead of per frame.

A step allocates nothing and checks nothing.  Each call of ``_run`` makes
the step's buffers once, in a ``_StepBuffers`` for the step's shape (made
again only for a short last block) and, when the noise adapts, a spare
noise model and two scratch arrays.  The step passes them to
:func:`speech_dominance`, :func:`weighted_spp` or :func:`weighted_mmse` and
:func:`adapt` through their ``out`` workspaces.  Those run the same code as
their allocating forms, so the results are bit for bit the same.  ``adapt``
writes the new model into the spare one, and the model it read becomes the
next spare.  The buffers belong to one call, so nothing returned shares
memory with a later call.  The checks that ``adapt`` makes on every call of
its allocating form run here once per utterance: :func:`check_observations`
over all log-spectra before the recursion, and :func:`check_spp` over all
SPPs after it, before any result is formed from them.  ``alpha`` is checked
by :class:`EnhancerConfig`.

The recursion runs B equal-length utterances, the rows of a batch,
together: :func:`enhance_batch` takes them, and :func:`enhance_utterance`
and :func:`enhance_mixmax_original` are its one-row case.  Frames are held
time-major, (N, B, 1, K), so frame t of every row is one contiguous
(B, 1, K) array; the noise model is (B, 1, K), the per-component arrays of
a frame are (B, m, K) and the posteriors (B, 1, m).  Each row's arithmetic
is the one-row arithmetic, so a row's result does not depend on the rows
beside it.  The per-frame Python overhead is paid once per batch, not once
per row, which is what an evaluation grid of many noise types and SNRs
over one utterance saves.

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
    check_posteriors,
    conditional_mean_below,
    generative_posterior,
    soft_subtract,
    speech_dominance,
    speech_terms,
    weighted_mmse,
    weighted_spp,
)
from .mog import PhonemeMog
from .nn import NnClassifier, forward
from .noise import NoiseModel, adapt, check_observations, check_spp, init_from_prefix

ESTIMATORS = ("soft-subtraction", "mixmax-mmse")
POSTERIOR_SOURCES = ("nn", "generative")
# The settings the fixed-noise reference mode always runs with.
REFERENCE_MODE = {"estimator": "mixmax-mmse", "posterior_source": "generative"}

# Frame-rows whose speech-side terms are formed together, and, with the
# noise fixed, that one recursion step takes: a block is SPEECH_BLOCK // B
# frames of all B rows.  Each block holds a few (frames, B, m, K) arrays, so
# memory grows with neither the utterance nor the batch; 16 frame-rows
# already amortize the per-call overhead, and larger blocks only raise peak
# memory.
SPEECH_BLOCK = 16

# Most rows one recursion runs.  In a mock-up of the per-frame noise-side
# step, the cost per row-frame fell from 44 us alone to about 17 us at 6 to
# 12 rows and rose to 28 us at 30, as a frame's (B, m, K) arrays outgrew
# the cache.
BATCH_ROWS = 8


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


def _time_major(rows: list[np.ndarray]) -> np.ndarray:
    """The (N, ...) arrays of B rows as one (N, B, 1, ...) array; a single
    row is viewed, not copied."""
    if len(rows) == 1:
        return rows[0][:, np.newaxis, np.newaxis]
    return np.stack(rows, axis=1)[:, :, np.newaxis]


class _StepBuffers:
    """Every array one recursion step writes but does not keep.

    ``shape`` is the shape of a step's ``z``: (B, 1, K) for one frame, or
    (T, B, 1, K) for a block of T frames under the fixed (B, 1, K) noise
    model.  ``dominance`` is :func:`speech_dominance`'s workspace and
    ``terms`` the per-component pair of :func:`weighted_mmse`'s.
    """

    def __init__(self, shape: tuple, n_components: int):
        self.shape = shape
        per_component = shape[:-2] + (n_components, shape[-1])
        noise_side = (np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape[-3:]))
        self.dominance = (noise_side, np.empty(per_component), np.empty(per_component))
        self.terms = (np.empty(per_component), np.empty(per_component))


def _run(
    waves: list[Waveform],
    mog: PhonemeMog,
    net: NnClassifier | None,
    cfg: EnhancerConfig,
    adapt_noise: bool,
) -> list[tuple[Waveform, EnhancementReport]]:
    """One recursion over B rows of one length and sample rate."""
    specs = [stft(w, cfg.frame_length) for w in waves]
    if mog.n_bins != specs[0].n_bins:
        raise ValueError("mixture model bin count does not match frame length")
    logspecs = _time_major([log_spectra(s) for s in specs])
    rate = waves[0].sample_rate
    noise = init_from_prefix(noise_prefix_frames(logspecs, rate, cfg))

    n_frames, n_rows = logspecs.shape[:2]
    generative = cfg.posterior_source == "generative"
    if generative:
        posteriors = np.empty((n_frames, n_rows, 1, mog.n_components))
    else:
        posteriors = _time_major([_nn_posteriors(s, rate, mog, net) for s in specs])
        check_posteriors(posteriors)
    frames = [s.frames for s in specs]
    del specs

    diags = [MixmaxDiagnostics() for _ in waves]
    mmse = cfg.estimator == "mixmax-mmse"
    spp = np.empty_like(logspecs)
    xhat = np.empty_like(logspecs) if mmse else None

    if adapt_noise:
        # adapt's checks, once per utterance (the SPP's after the recursion)
        check_observations(logspecs)
        spare = NoiseModel(mu=noise.mu.copy(), sigma=noise.sigma.copy())
        gate, tmp = np.empty_like(noise.mu), np.empty_like(noise.mu)
    block = max(1, SPEECH_BLOCK // n_rows)
    buffers = None
    for first in range(0, n_frames, block):
        at = slice(first, first + block)
        zs, ps, spps = logspecs[at], posteriors[at], spp[at]
        f, big_f = speech_terms(zs[:, :, 0], mog)
        if mmse:
            below = conditional_mean_below(zs[:, :, 0], mog, diags)
            xhats = xhat[at]
        # A step is one frame when the noise adapts, since the next frame
        # reads the updated model, and the whole block when it is fixed.
        steps = range(len(zs)) if adapt_noise else (slice(None),)
        shape = zs.shape[1:] if adapt_noise else zs.shape
        if buffers is None or buffers.shape != shape:  # the first or a short last block
            buffers = _StepBuffers(shape, mog.n_components)
        for i in steps:
            z, s = zs[i], spps[i]
            rho, h = speech_dominance(z, (f[i], big_f[i]), noise, diags, out=buffers.dominance)
            if generative:
                ps[i, :, 0] = generative_posterior(h, mog)
            if mmse:
                weighted_mmse(z, ps[i], rho, below[i], out=(xhats[i], s, *buffers.terms))
            else:
                weighted_spp(ps[i], rho, out=s)
            if adapt_noise:
                noise, spare = adapt(noise, z, s, cfg.alpha, out=(spare, gate, tmp)), noise
    if adapt_noise:
        check_spp(spp)
    if generative:
        check_posteriors(posteriors)

    frame_mean_spp = spp.mean(axis=-1)
    if not mmse:
        xhat = soft_subtract(logspecs, spp, cfg.beta)
    # Each whole-utterance array is dropped once used, so the temporaries of
    # reconstruction and overlap-add do not stack on top of it.
    del spp, logspecs
    for b in range(n_rows):
        frames[b] = reconstruct_frame(xhat[:, b, 0], frames[b])
    del xhat
    pad = edge_padding(cfg.frame_length)
    results = []
    for b, w in enumerate(waves):
        y = istft(ComplexSpectrogram(frames=frames[b], frame_length=cfg.frame_length))
        frames[b] = None
        report = EnhancementReport(
            frame_mean_spp=frame_mean_spp[:, b, 0],
            posteriors=posteriors[:, b, 0],
            diagnostics=diags[b],
            noise=NoiseModel(mu=noise.mu[b, 0], sigma=noise.sigma[b, 0]),
        )
        results.append((Waveform(samples=y[pad:pad + len(w)], sample_rate=rate), report))
    return results


def enhance_batch(
    waves: list[Waveform],
    mog: PhonemeMog,
    net: NnClassifier | None,
    cfg: EnhancerConfig,
) -> list[tuple[Waveform, EnhancementReport]]:
    """Enhance utterances of one length and sample rate together.

    Returns one ``(Waveform, EnhancementReport)`` per input, in order, each
    equal to :func:`enhance_utterance` of that input alone.  Up to
    ``BATCH_ROWS`` of them share one recursion.
    """
    if not waves:
        raise ValueError("need at least one utterance")
    if any(len(w) != len(waves[0]) or w.sample_rate != waves[0].sample_rate for w in waves):
        raise ValueError("batched utterances must share length and sample rate")
    return [pair for first in range(0, len(waves), BATCH_ROWS)
            for pair in _run(waves[first:first + BATCH_ROWS], mog, net, cfg, adapt_noise=True)]


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
    return _run([w], mog, net, cfg, adapt_noise=True)[0]


def enhance_mixmax_original(w: Waveform, mog: PhonemeMog, cfg: EnhancerConfig) -> Waveform:
    """Reference mode: generative posterior, exact MMSE, noise held fixed.

    The noise model is initialized from the prefix and never updated, and no
    classifier is involved; only frame length and prefix are read from cfg.
    """
    cfg = replace(cfg, **REFERENCE_MODE)
    [(enhanced, _)] = _run([w], mog, None, cfg, adapt_noise=False)
    return enhanced
