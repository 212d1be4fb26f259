"""Per-utterance enhancement: features, posteriors, SPP, subtraction, OLA.

Only the noise estimate is recursive, so an utterance runs in three stages,
private functions that :func:`_run` calls in turn and that pass plain arrays:

* :func:`_precompute`, over all frames, does the work that does not depend
  on the noise: STFT and log-spectra, the noise model of the prefix, and the
  MFCC features and the classifier's posteriors in one batched forward pass;
  before the features it starts the worker thread on the speech side;
* :func:`_recursion` runs the frames in time order.  A block of frames at a
  time it takes the speech side of the max model, f and F, and, for the
  MMSE estimator, forms the truncated means from them; then, step by step,
  the noise side of the dominance, the generative posterior where the mode
  uses it, the SPP (and the MMSE estimate), and the SPP-gated noise update;
* the tail, over all frames at once: :func:`_synthesis` forms the soft
  subtraction (or takes the MMSE estimate), the reconstruction with the
  noisy phase and each frame's windowed inverse transform, then
  :func:`_tail` the overlap-add and the reports.

When the noise adapts, the recursion takes ``NOISE_STEP`` = 8 frames per
step: the dominance, posterior, SPP and MMSE estimate of the step's frames
are one call each under the noise model as it stood before the first of
them, and :func:`adapt` then runs once per frame, in order.  So a frame's
SPP reads a noise model up to ``NOISE_STEP - 1`` frames old.  The paper
updates the noise before every frame; a noise estimate built from delayed,
windowed statistics has precedent in minimum statistics (Martin, "Noise
PSD estimation based on optimal smoothing and minimum statistics", IEEE
TSAP 2001) and IMCRA (Cohen, IEEE TSAP 2003).  Steps start at multiples of
``NOISE_STEP`` in absolute frame index, and a block holds a whole number of
steps, so a batch row steps as it does alone.  At ``alpha = 0``, as in the
reference mode, the update leaves the prefix model as it is, so no frame
depends on another: a step takes the whole block and skips the update.
Both modes make the same calls on (T, B, ...) arrays, and at ``alpha = 0``,
or with ``NOISE_STEP = 1``, the results are the per-frame ones bit for bit.

One worker thread shares every stage that does not read the noise model;
each piece it takes works frame by frame or element by element, so the
thread that forms a piece changes no value.  It takes:

* half of the analysis.  :func:`_analysis` submits the later half of each
  row's frames first, :func:`analyse` and :func:`log_magnitude` of them,
  and the main thread forms the earlier half;
* the speech side, f and F, which read only the observation and the
  mixture: :func:`speech_terms` of one block (``SPEECH_BLOCK`` = 64
  frame-rows) per task, ahead of the frames the main thread steps through;
* half of the synthesis.  :func:`_synthesis` splits the frames as the
  analysis does, and the main thread then runs one overlap-add per row,
  :func:`overlap_add`, in ascending frame order, as :func:`istft` does.

The block is the one unit of speech-side work: the worker forms it, the
truncated means are formed over it, and at ``alpha = 0`` one step takes it.
With B rows a block is ``SPEECH_BLOCK // B`` frames, rounded down to a
multiple of ``NOISE_STEP`` and never below it.  Once the log-spectra are
checked, :func:`_precompute` submits as many whole blocks as
``SPEECH_AHEAD`` frame-rows hold, and only then forms the features and runs
the classifier, so the worker runs through the forward pass instead of
waiting for the recursion.  Each block the recursion takes submits the
next, so no more than that are submitted and not used up; f and F take
about 20.6 KB a frame-row (m = 5, K = 257).

The main thread never waits for a piece the worker has not started: it
cancels it and forms it itself.  For the speech side it does not wait for
the block the worker is inside either, but forms that one too, so only
that block can be formed twice and a worker held up by a busy core never
holds up the recursion.  Of the analysis and the synthesis, whose halves
the worker writes into the arrays the main thread reads, the main thread
forms its own half, then the worker's halves that are not started, from
the last, and waits only for the one half the worker is inside, if any.
The truncated means, the recursion, the features and the forward pass stay
on the main thread.

The worker's tasks must be large.  Every ufunc call on the worker releases
the GIL and must take it back from the main thread, which holds it
between its many small calls, so a task of a few large calls overlaps the
recursion where many small ones would spend the overlap on handoffs.  The
worker runs in the caller's ``contextvars`` context, so an ``np.errstate``
around the call applies there too (numpy keeps that state in a context
variable since 2.0).  It calls :func:`soft_subtract` and
:func:`reconstruct_frame` through their own modules, not through this
module's names, so a wrapper put on this module's names, as a tracer does,
sees the main thread's calls alone.  :func:`_run` owns the worker from the
analysis to the end of the synthesis: however the call ends, the pieces
the worker has not started are cancelled, and it is joined once it has
finished the one it is inside, before :func:`_run` returns or raises.

The recursion's steps check nothing, and both modes make the same calls:
:func:`speech_dominance` forms the step's ``(rho, h)``, and the SPP and
the MMSE estimate that :func:`weighted_spp` and :func:`weighted_mmse`
return are assigned into the whole-utterance arrays.  These kernels
allocate their results afresh: a few small arrays a call, whose allocation
is a small part of each call's time.  :func:`adapt` alone keeps a
workspace, as its allocating form builds and checks a new noise model on
every call; each call of :func:`_recursion` makes it once, a spare noise
model and one scratch array.  ``adapt`` writes the new model
into the spare one, and the model it read becomes the next spare.  The
workspace belongs to one call, so nothing returned shares memory with a
later call.  The checks that ``adapt`` makes on every call of its
allocating form run here once per utterance, at every alpha:
:func:`check_observations` over all log-spectra before the recursion, and
:func:`check_spp` over all SPPs after it, before any result is formed from
them.  ``alpha`` is checked by :class:`EnhancerConfig`.

The recursion also owns the fallback counts: two (N, B) integer arrays, the
undecidable bins and the tail fallbacks of every frame and row, which each
step's slice is handed to.  :func:`_tail` sums them over the frames into
each row's :class:`MixmaxDiagnostics`.

The recursion runs B equal-length utterances, the rows of a batch,
together: :func:`enhance_batch` takes them, and :func:`enhance_utterance`
and :func:`enhance_mixmax_original` are its one-row case.  Frames are held
time-major, (N, B, 1, K), so frame t of every row is one contiguous
(B, 1, K) array; the noise model is (B, 1, K), the per-component arrays of
a frame are (B, m, K) and the posteriors (B, 1, m).  Each row's arithmetic
is the one-row arithmetic, so a row's result does not depend on the rows
beside it.  The per-step Python overhead is paid once per batch, not once
per row, which is what an evaluation grid of many noise types and SNRs
over one utterance saves.

The config picks the mode: the estimator, soft spectral subtraction
driven by the per-bin speech presence probability (the default) or the
classic max-model MMSE estimator; the component posterior, the
classifier's or the generative one; and ``alpha``, where 0 holds the
prefix noise model.  Every combination runs the same recursion.  The
reference mode, ``REFERENCE_MODE``, is the MMSE estimator with the
generative posterior at ``alpha = 0`` (Nádas, Nahamoo & Picheny 1989);
:func:`enhance_mixmax_original` runs it.

With the classifier's posterior, the output repeats bit for bit only at a
fixed BLAS thread count, as training does: :func:`_precompute` runs the
classifier over all frames as one matrix product, and another thread count
can round it differently.  The generative posterior makes no such product.
"""

from __future__ import annotations

import contextvars
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import dsp, mixmax
# stft, log_spectra and istft are not called here: the enhancer runs their
# parts, analyse, log_magnitude, synthesise and overlap_add.  The names stay
# importable from this module, where the benchmark's tracer looks for them.
from .dsp import (
    ComplexSpectrogram,
    Waveform,
    analyse,
    check_frame_length,
    edge_padding,
    frame_signal,
    istft,
    log_magnitude,
    log_spectra,
    overlap_add,
    reconstruct_frame,
    stft,
    synthesise,
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
# The settings the fixed-noise reference mode always runs with: alpha = 0
# holds the prefix noise model for the whole utterance.
REFERENCE_MODE = {"alpha": 0.0, "estimator": "mixmax-mmse", "posterior_source": "generative"}

# Frame-rows in the one unit of speech-side work: the worker thread forms a
# block's f and F in one task, the truncated means are formed a block at a
# time, and, with the noise fixed, one recursion step takes a block.  A block
# is SPEECH_BLOCK // B frames of all B rows, rounded down to a multiple of
# NOISE_STEP and never below it, so memory grows with neither the utterance
# nor the batch.  The worker's tasks must be large: each of its
# ufunc calls takes the GIL back from the main thread's many small per-frame
# calls.  With the main thread waiting for each task, a paired in-process
# timing on a 2-vCPU VM, one BLAS thread, ran a 12 s default-mode utterance
# at 0.95 of the serial recursion's time with tasks of 16 frame-rows and at
# 0.79 with tasks of 64.
SPEECH_BLOCK = 64

# Most frame-rows of speech-side blocks submitted to the worker and not yet
# used up by the recursion, rounded down to whole blocks (at least one): 12
# blocks of 64 frames at one row, 16 blocks of 8 frames at six.  The worker
# starts before the classifier's forward pass and gets ahead by as many
# blocks as that pass gives it time for, up to this bound; a bound in
# frame-rows lets a batch look ahead as far as one row does.  f and F take
# 20.6 KB a frame-row (m = 5, K = 257), so 768 hold 15.8 MB and 1024 hold
# 21.1 MB.  Over 10 alternating 25 s benchmark pairs on a 2-vCPU VM, one BLAS
# thread, 768 against 1024 read short_grid's median throughput 77.96 and
# 76.72 s/s (768 faster in 6 pairs) with peak memory about 2 MB lower, and
# long_white was level over 4 pairs.  In process, short_grid's main thread
# then formed a median of 18 of its 1332 frame-rows (0 at 1024); with a
# bound of eight blocks, 384 frame-rows for six rows, and a serial
# analysis it formed 624.
SPEECH_AHEAD = 768

# Frames per step of the adaptive recursion, 64 ms at the 8 ms hop: the
# step's frames read the noise model as it stood before the first of them,
# and adapt then runs once per frame, so a frame's SPP reads a model up to
# NOISE_STEP - 1 frames old.  1 is the per-frame recursion.  In process, on
# 12 s of 5 dB white noise at three seeds (2-vCPU VM, one BLAS thread), the
# default mode's segSNR gain, gain on step noise, gain at -20 dB and LSD,
# in dB, and the median ms per utterance, read by step:
#      1: 6.437 / 5.852 / 2.146 / 9.926, 128.9 ms
#      2: 6.460 / 5.879 / 2.109 / 9.900,  97.3 ms
#      4: 6.480 / 5.903 / 2.090 / 9.894,  86.0 ms
#      8: 6.503 / 5.927 / 2.092 / 9.890,  80.9 ms
#     16: 6.528 / 5.954 / 2.112 / 9.887,  85.6 ms
# Frames until the mean noise mu covered 90% of a +8 dB step, with speech at
# 5 dB: 39 at 1, 43 at 4, 48 at 8, 49 at 16; without speech 28 up to 8.
# Against the per-frame recursion, over 10 alternating 25 s benchmark pairs
# on the same VM, a step of 8 raised long_white's throughput from 87.6 to
# 103.2 s/s (+18%, faster in every pair), cut its median real-time factor
# from 0.0115 to 0.0096, and left short_grid level (74.9 and 75.0 s/s).
NOISE_STEP = 8

# Most rows one recursion runs.  In a mock-up of the per-frame noise-side
# step, the cost per row-frame fell from 44 us alone to about 17 us at 6 to
# 12 rows and rose to 28 us at 30, as a frame's (B, m, K) arrays outgrew
# the cache.
BATCH_ROWS = 8


@dataclass(frozen=True)
class EnhancerConfig:
    """Knobs for one enhancement job.

    beta is the maximum attenuation in natural-log magnitude units
    (2.5 ~ 21.7 dB); alpha is the noise-adaptation smoothing constant, in
    [0, 1), where 0 holds the prefix noise model for the whole utterance;
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
        if not 0.0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and >= 0")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if not 0.0 < self.noise_prefix < np.inf:
            raise ValueError("noise_prefix must be finite and positive")
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

    The first few STFT frames overlap the zero padding, so they are skipped:
    the prefix starts at the first frame that starts at sample 0 or later, and
    spans ``cfg.noise_prefix`` seconds (at least 2 frames).
    """
    hop = cfg.frame_length // 4
    lead = -(-edge_padding(cfg.frame_length) // hop)
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


def _share(pool: ThreadPoolExecutor, rows: int, n_frames: int, here: Callable,
           there: Callable) -> None:
    """Form every row's frames in two parts, one on each thread.

    ``here(b, at)`` and ``there(b, at)`` form the frames ``at`` of row
    ``b`` on the calling thread and on ``pool``'s worker; they do the same
    work, row by row or element by element, so the thread that forms a
    part changes no value.  The later half of every row is submitted to the
    worker first, in the caller's context, and the calling thread then forms
    the earlier halves.  After that it cancels, from the last, each part
    the worker has not started and forms it with ``here``; so it waits only
    for the one part the worker is inside, if any, and a worker error is
    raised here.  The parts still queued when ``here`` raises are left to
    ``pool``'s shutdown.
    """
    mid = n_frames // 2
    theirs = [(b, slice(mid, n_frames)) for b in range(rows)]
    futures = [pool.submit(contextvars.copy_context().run, there, *part) for part in theirs]
    for b in range(rows):
        here(b, slice(0, mid))
    started = []
    for part, future in reversed(list(zip(theirs, futures))):
        if future.cancel():
            here(*part)
        else:
            started.append(future)
    for future in started:
        future.result()


def _analysis(pool: ThreadPoolExecutor, waves: list[Waveform],
              frame_length: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The rows' log-spectra, time-major (N, B, 1, K), and their STFT
    frames, one (N, K) array per row, formed on both threads by
    :func:`_share`: :func:`analyse` and :func:`log_magnitude` work frame by
    frame, so they equal :func:`stft` and :func:`log_spectra` bit for bit.
    """
    windows = [frame_signal(w, frame_length) for w in waves]
    n, bins = len(windows[0]), frame_length // 2 + 1
    frames = [np.empty((n, bins), complex) for _ in waves]
    logspecs = np.empty((n, len(waves), 1, bins))

    def part(b, at):
        analyse(windows[b][at], out=frames[b][at])
        log_magnitude(frames[b][at], out=logspecs[at, b, 0])

    _share(pool, len(waves), n, part, part)
    return logspecs, frames


def _precompute(pool: ThreadPoolExecutor, waves: list[Waveform], mog: PhonemeMog,
                net: NnClassifier | None,
                cfg: EnhancerConfig) -> tuple[np.ndarray, np.ndarray, list, NoiseModel, Iterator]:
    """The noise-independent start of :func:`_run`.

    Returns the rows' log-spectra (N, B, 1, K), their posteriors
    (N, B, 1, m), the rows' STFT frames, the noise model of the prefix and
    the speech side's blocks from :func:`_speech_ahead`.  The posteriors
    are the classifier's, checked here, or, for the generative source, an
    empty array the recursion fills.  ``pool``'s worker forms half of the
    analysis, and starts on the speech side as soon as the observations
    are checked, so it runs while the classifier's forward pass does.
    """
    if mog.n_bins != cfg.frame_length // 2 + 1:
        raise ValueError("mixture model bin count does not match frame length")
    logspecs, frames = _analysis(pool, waves, cfg.frame_length)
    rate = waves[0].sample_rate
    noise = init_from_prefix(noise_prefix_frames(logspecs, rate, cfg))
    # adapt's checks, once per utterance (the SPP's after the recursion),
    # before the worker reads a frame
    check_observations(logspecs)
    block = max(NOISE_STEP, SPEECH_BLOCK // len(waves) // NOISE_STEP * NOISE_STEP)
    speech = _speech_ahead(pool, logspecs[:, :, 0], mog, block)
    if cfg.posterior_source == "generative":
        posteriors = np.empty(logspecs.shape[:2] + (1, mog.n_components))
    else:
        posteriors = np.stack([
            _nn_posteriors(ComplexSpectrogram(frames=f, frame_length=cfg.frame_length),
                           rate, mog, net) for f in frames], axis=1)[:, :, np.newaxis]
        check_posteriors(posteriors)
    return logspecs, posteriors, frames, noise, speech


def _speech_ahead(pool: ThreadPoolExecutor, zs: np.ndarray, mog: PhonemeMog,
                  block: int) -> Iterator:
    """:func:`speech_terms` of the frames ``zs``, (N, B, K), as
    ``(frames, (f, F))`` per block of ``block`` frames, where ``frames`` is
    the block's slice.

    ``pool``'s worker forms one block per task, in the caller's context, so
    its ``np.errstate`` applies there too.  This call submits the first
    blocks, as many whole blocks as ``SPEECH_AHEAD`` frame-rows hold (at
    least one), and each block the caller takes submits the next, so no
    more are submitted and not used up.  A block the worker has not
    finished when its turn comes is cancelled, if the worker has not
    started it, and formed here.  So the caller never waits for a worker
    that a busy core holds up, and only the block the worker is inside can
    be formed twice.  The values, and the errors under the caller's
    ``np.errstate``, are the same either way, since ``speech_terms`` is
    elementwise: the worker's error is raised when its block is taken.  The
    blocks still queued when the caller stops early are cancelled by
    ``pool``'s shutdown.
    """
    ahead = max(block, SPEECH_AHEAD // zs.shape[1] // block * block)

    def submit(first):
        at = slice(first, first + block)
        return at, pool.submit(contextvars.copy_context().run, speech_terms, zs[at], mog)

    queue = deque(submit(first) for first in range(0, min(ahead, len(zs)), block))

    def blocks():
        while queue:
            at, future = queue.popleft()
            if future.cancel() or not future.done():
                yield at, speech_terms(zs[at], mog)
            else:
                yield at, future.result()
            if at.start + ahead < len(zs):
                queue.append(submit(at.start + ahead))

    return blocks()


def _recursion(logspecs: np.ndarray, posteriors: np.ndarray, noise: NoiseModel, mog: PhonemeMog,
               cfg: EnhancerConfig,
               speech: Iterator) -> tuple[np.ndarray, np.ndarray | None, NoiseModel, tuple]:
    """The frames in time order: SPP, MMSE estimate and noise update.

    ``speech`` gives the frames' speech side a block at a time, as
    :func:`_speech_ahead` does, in blocks of whole ``NOISE_STEP``s.  When
    the noise adapts, a step of ``NOISE_STEP`` frames forms their SPP under
    the model as it stood before the first of them, so a frame's SPP reads
    a model up to ``NOISE_STEP - 1`` frames old (windowed, delayed noise
    statistics, as in Martin 2001 and Cohen 2003), and then adapts the model
    once per frame, in order.  Returns every frame's SPP, the MMSE
    estimate (None for soft subtraction), the last noise model and the
    (N, B) counts of undecidable bins and of tail fallbacks.  Generative
    posteriors are written into ``posteriors``.
    """
    generative = cfg.posterior_source == "generative"
    mmse = cfg.estimator == "mixmax-mmse"
    adapting = cfg.alpha > 0
    spp = np.empty_like(logspecs)
    xhat = np.empty_like(logspecs) if mmse else None
    undecidable = np.zeros(logspecs.shape[:2], np.int64)
    tail = np.zeros(logspecs.shape[:2], np.int64)

    if adapting:
        spare = NoiseModel(mu=noise.mu.copy(), sigma=noise.sigma.copy())
        gate = np.empty_like(noise.mu)
    for at, (f, big_f) in speech:
        zs, ps, spps, counts = logspecs[at], posteriors[at], spp[at], undecidable[at]
        if mmse:
            below = conditional_mean_below(zs[:, :, 0], (f, big_f), mog, tail[at])
            xhats = xhat[at]
        # A step is NOISE_STEP frames when the noise adapts, and the whole
        # block when alpha = 0 holds it fixed.
        step = NOISE_STEP if adapting else len(zs)
        for first in range(0, len(zs), step):
            i = slice(first, first + step)
            z = zs[i]
            rho, h = speech_dominance(z, (f[i], big_f[i]), noise, counts[i])
            if generative:
                ps[i, :, 0] = generative_posterior(h, mog)
            spps[i] = weighted_spp(ps[i], rho)
            if mmse:
                xhats[i] = weighted_mmse(z, ps[i], rho, below[i])
            if adapting:
                for z_t, spp_t in zip(z, spps[i]):
                    noise, spare = adapt(noise, z_t, spp_t, cfg.alpha, out=(spare, gate)), noise
    check_spp(spp)
    if generative:
        check_posteriors(posteriors)
    return spp, xhat, noise, (undecidable, tail)


def _synthesis(pool: ThreadPoolExecutor, cfg: EnhancerConfig, logspecs: np.ndarray,
               spp: np.ndarray, xhat: np.ndarray | None, frames: list) -> list[np.ndarray]:
    """Each row's windowed synthesis segments, (N, frame_length), formed on
    both threads by :func:`_share`: the estimate (soft subtraction, or the
    MMSE one in ``xhat``), :func:`reconstruct_frame` with the noisy phase and
    :func:`synthesise`, every one frame by frame or element by element.  The
    worker calls the first two through their own modules, so a wrapper on
    this module's names sees the calling thread's calls alone.
    """
    segs = [np.empty((len(f), cfg.frame_length)) for f in frames]

    def part(subtract, reconstruct, b, at):
        if xhat is None:
            x = subtract(logspecs[at, b, 0], spp[at, b, 0], cfg.beta)
        else:
            x = xhat[at, b, 0]
        synthesise(reconstruct(x, frames[b][at]), cfg.frame_length, out=segs[b][at])

    _share(pool, len(frames), len(logspecs), partial(part, soft_subtract, reconstruct_frame),
           partial(part, mixmax.soft_subtract, dsp.reconstruct_frame))
    return segs


def _tail(waves: list[Waveform], cfg: EnhancerConfig, segs: list, frame_mean_spp: np.ndarray,
          posteriors: np.ndarray, noise: NoiseModel, counts: tuple) -> list:
    """Overlap-add of each row's synthesis segments, and the row's report.

    ``counts`` is the recursion's (N, B) pair of fallback counts.  Each
    row's segments are dropped once its waveform is formed.
    """
    pad = edge_padding(cfg.frame_length)
    undecidable, tail = (c.sum(axis=0).tolist() for c in counts)
    results = []
    for b, w in enumerate(waves):
        y = overlap_add(segs[b])
        segs[b] = None
        report = EnhancementReport(
            frame_mean_spp=frame_mean_spp[:, b, 0],
            posteriors=posteriors[:, b, 0],
            diagnostics=MixmaxDiagnostics(undecidable_bins=undecidable[b],
                                          tail_fallbacks=tail[b]),
            noise=NoiseModel(mu=noise.mu[b, 0], sigma=noise.sigma[b, 0]),
        )
        results.append((Waveform(samples=y[pad:pad + len(w)], sample_rate=w.sample_rate), report))
    return results


def _run(waves: list[Waveform], mog: PhonemeMog, net: NnClassifier | None,
         cfg: EnhancerConfig) -> list[tuple[Waveform, EnhancementReport]]:
    """One recursion over B rows of one length and sample rate: the three
    stages, with the tail's synthesis run here.

    The whole-utterance arrays are dropped before the overlap-add, so its
    temporaries do not stack on top of them.  The ``del`` frees them
    because nothing else refers to them: the recursion's per-block views of
    them go when :func:`_recursion` returns, and the speech side's when its
    blocks run out.

    The one worker thread lives from the analysis to the end of synthesis.
    Whichever way they end, the parts and blocks it has not started are
    cancelled, and it is joined once it has finished the one it is inside.
    """
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        logspecs, posteriors, frames, noise, speech = _precompute(pool, waves, mog, net, cfg)
        spp, xhat, noise, counts = _recursion(logspecs, posteriors, noise, mog, cfg, speech)
        frame_mean_spp = spp.mean(axis=-1)
        segs = _synthesis(pool, cfg, logspecs, spp, xhat, frames)
    finally:
        pool.shutdown(cancel_futures=True)
    del logspecs, spp, xhat, frames
    return _tail(waves, cfg, segs, frame_mean_spp, posteriors, noise, counts)


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
            for pair in _run(waves[first:first + BATCH_ROWS], mog, net, cfg)]


def enhance_utterance(
    w: Waveform,
    mog: PhonemeMog,
    net: NnClassifier | None,
    cfg: EnhancerConfig,
):
    """Enhance one utterance with SPP gating and online noise adaptation
    (none at ``cfg.alpha = 0``).

    Returns the enhanced waveform (same length and rate as the input) and a
    report with per-frame mean SPP and component posteriors, fallback
    counters, and the final noise model.
    """
    return _run([w], mog, net, cfg)[0]


def enhance_mixmax_original(w: Waveform, mog: PhonemeMog, cfg: EnhancerConfig) -> Waveform:
    """Reference mode: generative posterior, exact MMSE, noise held fixed.

    :func:`enhance_utterance` with ``cfg`` set to ``REFERENCE_MODE``, its
    waveform only: the noise model is initialized from the prefix and never
    updated (alpha = 0), and no classifier is involved; only frame length
    and prefix are read from cfg.  The same call through
    :func:`enhance_utterance` or :func:`enhance_batch` also returns the
    report; ``nnmm enhance`` and ``nnmm evaluate`` run it with ``--alpha 0
    --estimator mixmax-mmse --posterior generative``.  Kept as the entry
    point of the benchmark's ``mmse_reference`` workload until the benchmark
    calls :func:`enhance_utterance` itself (ROADMAP 1b).
    """
    return enhance_utterance(w, mog, None, replace(cfg, **REFERENCE_MODE))[0]
