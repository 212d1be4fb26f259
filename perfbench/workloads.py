"""The three benchmark workloads: inputs, the operation, checks and quality.

Every workload is one closed-loop client: the next operation starts only
after the previous one returned.  Inputs are generated from the workload
seed; the program sees only the generated waveforms, corpora and bundle.

* ``long_white`` -- one ``enhance_utterance`` call (NN posterior, soft
  subtraction, noise adaptation) on a 12 s input: 0.5 s noise-only lead-in,
  concatenated synthetic utterances, 5 dB white noise.  The per-frame loop
  is ~95% of the time, so work hoisted out of it shows here.
* ``short_grid`` -- one in-process ``nnmm evaluate`` over a saved corpus of
  one short utterance (0.5 s lead-in, 1.25 s speech), noise {white, step},
  SNR {0, 5, 10} dB, alternating between the corpus at its stored level and
  a -20 dB copy.
  Per-utterance costs (repeated STFTs and features, metrics, CSV and corpus
  I/O) are a large share here; the quiet copy is the input-level sweep.
* ``mmse_reference`` -- one ``enhance_mixmax_original`` call on a 5 s input
  with a lead-in, in 5 dB white noise that steps up by 8 dB halfway.  It
  runs the generative posterior and truncated mean with no classifier,
  features or adaptation, so a fast path built for the default mode that
  slows the reference mode shows here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
from dataclasses import dataclass, field

import nnmm
import nnmm.cli
import nnmm.dsp
import numpy as np

import prepare
from tracer import Wrap

SNR_DB = 5.0
STEP_DB = 8.0
LEAD_IN_S = 0.5
QUIET_SCALE = 0.1  # -20 dB
GRID_SNRS = (0.0, 5.0, 10.0)
GRID_NOISES = ("white", "step")
GRID_SPEECH_S = 1.25


@dataclass
class Case:
    """One distinct input an operation can receive, plus what checks need."""

    key: object                   # distinct per input
    audio_s: float
    noisy: object = None          # Waveform, for the enhancement workloads
    clean: object = None
    frames: int = 0               # STFT frames of ``noisy``
    corpus: str = ""              # corpus directory, for short_grid
    rows: set = field(default_factory=set)


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _speech(seed: int, seconds: float):
    """Clean input of exactly ``seconds``: noise-only lead-in then speech."""
    spec = nnmm.SyntheticCorpusSpec(envelopes=nnmm.default_envelopes(prepare.N_CLASSES), seed=seed)
    shortest = spec.utterance_seconds[0]
    utterances = nnmm.synthesize_corpus(spec, math.ceil(seconds / shortest) + 1)
    lead = np.zeros(int(LEAD_IN_S * spec.sample_rate))
    samples = np.concatenate([lead] + [u.waveform.samples for u in utterances])
    return nnmm.Waveform(samples=samples[:int(round(seconds * spec.sample_rate))],
                         sample_rate=spec.sample_rate)


def _white(clean, seed: int):
    return nnmm.mix_at_snr(clean, nnmm.white_noise(len(clean), clean.sample_rate, seed=seed), SNR_DB)


def _step(clean, seed: int):
    noise = nnmm.step_white_noise(len(clean), clean.sample_rate, seed=seed, step_db=STEP_DB)
    return nnmm.mix_at_snr(clean, noise, SNR_DB)


MIXERS = {"white": _white, "step": _step}


def _enhance_case(key, clean, noisy, frame_length, scale=1.0) -> Case:
    if scale != 1.0:
        clean = nnmm.Waveform(samples=clean.samples * scale, sample_rate=clean.sample_rate)
        noisy = nnmm.Waveform(samples=noisy.samples * scale, sample_rate=noisy.sample_rate)
    return Case(key=key, audio_s=noisy.duration, noisy=noisy, clean=clean,
                frames=nnmm.stft(noisy, frame_length).n_frames)


def _check_waveform(case: Case, w) -> str | None:
    if len(w) != len(case.noisy) or w.sample_rate != case.noisy.sample_rate:
        return "output length or sample rate differs from the input"
    if not np.all(np.isfinite(w.samples)):
        return "non-finite output samples"
    return None


class _Enhancement:
    """The two workloads whose operation enhances one waveform.

    Quality comes from ``quality_inputs`` inputs shaped like the timed one,
    each in every noise kind of the workload and as a -20 dB copy of its
    first kind; the timed input is the first of them.  Quality varies from
    seed to seed with the speech drawn, and averaging over several inputs
    keeps that spread well inside the bounds.
    """

    noises: tuple[str, ...]
    quality_inputs: int

    def __init__(self, bundle, seed: int, seconds: float):
        self.bundle = bundle
        self.cfg = nnmm.EnhancerConfig(frame_length=bundle.frame_length)
        fl = bundle.frame_length
        self.probes = []
        for i in range(self.quality_inputs):
            clean = _speech(seed + 1000 * i, seconds)
            mixed = {kind: MIXERS[kind](clean, seed + 1000 * i + k + 1)
                     for k, kind in enumerate(self.noises)}
            self.probes += [_enhance_case((kind, i), clean, mixed[kind], fl) for kind in self.noises]
            self.probes.append(_enhance_case(("quiet", i), clean, mixed[self.noises[0]], fl, QUIET_SCALE))
        self.timed = [self.probes[0]]

    def waveform(self, result):
        return result

    def digest(self, result) -> bytes:
        return _digest(self.waveform(result).samples.tobytes())

    def _gain(self, case, result) -> float:
        return (nnmm.segmental_snr(case.clean, self.waveform(result))
                - nnmm.segmental_snr(case.clean, case.noisy))

    def _lsd(self, case, result) -> float:
        return nnmm.log_spectral_distance(case.clean, self.waveform(result), self.bundle.frame_length)

    def quality(self, results: dict) -> dict:
        def mean(metric, kind):
            return float(np.mean([metric(c, results[c.key]) for c in self.probes if c.key[0] == kind]))

        return {
            "segsnr_gain_db": mean(self._gain, self.noises[0]),
            "lsd_db": mean(self._lsd, self.noises[0]),
            "segsnr_gain_step_db": mean(self._gain, "step"),
            "segsnr_gain_quiet_db": mean(self._gain, "quiet"),
        }


class LongWhite(_Enhancement):
    name = "long_white"
    top_span = "enhancer.enhance"
    noises = ("white", "step")
    quality_inputs = 3

    def __init__(self, bundle, bundle_path, seed, sizes, work_dir):
        super().__init__(bundle, seed + 101, sizes.long_seconds)

    def run(self, case):
        return nnmm.enhance_utterance(case.noisy, self.bundle.mog, self.bundle.net, self.cfg)

    def waveform(self, result):
        return result[0]

    def check(self, case, result) -> str | None:
        w, report = result
        problem = _check_waveform(case, w)
        if problem:
            return problem
        if report.frames_processed != case.frames:
            return f"frames_processed {report.frames_processed} != STFT frames {case.frames}"
        spp = np.asarray(report.frame_mean_spp)
        if spp.shape != (case.frames,) or not np.all((spp >= 0.0) & (spp <= 1.0)):
            return "frame_mean_spp outside [0, 1] or of the wrong length"
        return None


class MmseReference(_Enhancement):
    name = "mmse_reference"
    top_span = "enhancer.enhance"
    noises = ("step",)
    # The -20 dB gain here is only ~0.3 dB, so it is averaged over a minute
    # of audio.
    quality_inputs = 12

    def __init__(self, bundle, bundle_path, seed, sizes, work_dir):
        super().__init__(bundle, seed + 404, sizes.mmse_seconds)

    def run(self, case):
        return nnmm.enhance_mixmax_original(case.noisy, self.bundle.mog, self.cfg)

    def check(self, case, result) -> str | None:
        return _check_waveform(case, result)


def _grid_utterance(u, spec, speech_seconds: float):
    """Lead-in plus the first ``speech_seconds`` of ``u`` (on the hop grid),
    relabelled per frame.

    Frames keep the rule the corpus uses: each takes the class at its
    centre sample; lead-in frames take the class of the first speech sample.
    Segments sit on the hop grid, so the class at a centre is the label of
    the original frame centred at the start of the same hop block.
    """
    hop = spec.frame_length // 4
    lead = hop * math.ceil(LEAD_IN_S * spec.sample_rate / hop)
    speech = u.waveform.samples[:hop * int(speech_seconds * spec.sample_rate / hop)]
    samples = np.concatenate([np.zeros(lead), speech])
    centers = np.clip((np.arange(nnmm.dsp.num_frames(len(samples), spec.frame_length)) - 1) * hop,
                      0, len(samples) - 1)
    labels = u.frame_labels[np.maximum(centers - lead, 0) // hop + 1]
    return nnmm.LabeledUtterance(
        waveform=nnmm.Waveform(samples=samples, sample_rate=spec.sample_rate), frame_labels=labels)


class ShortGrid:
    name = "short_grid"
    top_span = "cli.evaluate"

    def __init__(self, bundle, bundle_path, seed, sizes, work_dir):
        self.bundle_path = bundle_path
        self.seed = seed
        self.out = os.path.join(work_dir, "grid.csv")
        spec = nnmm.SyntheticCorpusSpec(envelopes=nnmm.default_envelopes(prepare.N_CLASSES),
                                        utterance_seconds=(GRID_SPEECH_S, 1.5 * GRID_SPEECH_S),
                                        frame_length=bundle.frame_length, seed=seed + 606)
        utterances = [_grid_utterance(u, spec, GRID_SPEECH_S)
                      for u in nnmm.synthesize_corpus(spec, sizes.grid_quality_utterances)]

        def corpus(key, utts, scale):
            path = os.path.join(work_dir, f"grid_{key}")
            scaled = [nnmm.LabeledUtterance(
                waveform=nnmm.Waveform(samples=u.waveform.samples * scale,
                                       sample_rate=u.waveform.sample_rate),
                frame_labels=u.frame_labels) for u in utts]
            nnmm.save_corpus(path, scaled, spec.frame_length, spec.n_classes)
            names = [f"utt_{i:04d}" for i in range(len(utts))]
            return Case(key=key, corpus=path,
                        audio_s=len(GRID_NOISES) * len(GRID_SNRS) * sum(u.waveform.duration for u in utts),
                        rows=set(itertools.product(names, GRID_NOISES, GRID_SNRS)))

        # One utterance per timed corpus gives ~40 operations per 25 s run.
        timed = utterances[:1]
        self.timed = [corpus("stored", timed, 1.0), corpus("quiet", timed, QUIET_SCALE)]
        self.probes = [corpus("quality_stored", utterances, 1.0),
                       corpus("quality_quiet", utterances, QUIET_SCALE)]

    def run(self, case):
        argv = ["evaluate", "--bundle", self.bundle_path, "--corpus", case.corpus,
                "--out", self.out, "--snr", ",".join(f"{s:g}" for s in GRID_SNRS),
                "--noise", ",".join(GRID_NOISES), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = nnmm.cli.main(argv)
        text = ""
        if code == 0:
            with open(self.out) as fh:
                text = fh.read()
        return code, text

    @staticmethod
    def rows(result) -> list[dict]:
        return list(csv.DictReader(io.StringIO(result[1])))

    def digest(self, result) -> bytes:
        return _digest(result[1].encode())

    def check(self, case, result) -> str | None:
        code, _ = result
        if code != 0:
            return f"evaluate exited with {code}"
        rows = self.rows(result)
        got = [(r["utterance"], r["noise"], float(r["snr_db"])) for r in rows]
        if len(got) != len(case.rows) or set(got) != case.rows:
            return f"CSV rows {sorted(got)} != expected {sorted(case.rows)}"
        for r in rows:
            values = [float(r[k]) for k in ("segsnr_in", "segsnr_out", "lsd", "mean_spp", "accuracy")]
            if not all(math.isfinite(v) for v in values):
                return "non-finite value in the evaluate CSV"
            if not 0.0 <= float(r["mean_spp"]) <= 1.0:
                return "mean_spp outside [0, 1] in the evaluate CSV"
        return None

    def quality(self, results: dict) -> dict:
        stored, quiet = self.rows(results["quality_stored"]), self.rows(results["quality_quiet"])

        def gain(rows):
            return float(np.mean([float(r["segsnr_out"]) - float(r["segsnr_in"]) for r in rows]))

        return {
            "segsnr_gain_db": gain(stored),
            "lsd_db": float(np.mean([float(r["lsd"]) for r in stored])),
            "segsnr_gain_step_db": gain([r for r in stored if r["noise"] == "step"]),
            "segsnr_gain_quiet_db": gain(quiet),
        }


WORKLOADS = {w.name: w for w in (LongWhite, ShortGrid, MmseReference)}


def track_frames(limit: int = 200) -> int:
    """Frames public ``adapt`` needs to come within 5% of a +1.0 log step.

    The stream is the C07 acceptance stream (seed 77, 64 bins, sigma 0.05,
    alpha 0.1, SPP 0).  Returns ``limit + 1`` if it never gets there.
    """
    rng = np.random.default_rng(77)
    n_bins, sigma = 64, 0.05
    mu_new = np.full(n_bins, -1.0)
    model = nnmm.NoiseModel(mu=np.full(n_bins, -2.0), sigma=np.full(n_bins, sigma))
    for frame in range(1, limit + 1):
        model = nnmm.adapt(model, rng.normal(mu_new, sigma), np.zeros(n_bins), alpha=0.1)
        if np.mean(np.abs(model.mu - mu_new)) <= 0.05:
            return frame
    return limit + 1


def layer_wraps(tracer) -> list[Wrap]:
    """Every name a calling module imported, mapped to its layer span.

    The enhancer's own ``stft`` result gives the frames analysed, and each
    ``MixmaxDiagnostics`` it creates is kept so its fallback counters can be
    read once the operation is over.
    """
    def frames(spec):
        tracer.note("enhancer.frames", spec.n_frames)

    def diagnostics(diag):
        tracer.note("enhancer.diagnostics", diag)

    table = {
        "nnmm.enhancer": {
            "stft": "dsp.stft", "istft": "dsp.istft", "log_spectra": "dsp.log_spectra",
            "reconstruct_frame": "dsp.reconstruct_frame",
            "feature_matrix": "features.feature_matrix",
            "speech_dominance": "mixmax.speech_dominance",
            "soft_subtract": "mixmax.soft_subtract",
            "generative_posterior": "mixmax.generative_posterior",
            "conditional_mean_below": "mixmax.conditional_mean_below",
            "forward": "nn.forward",
            "adapt": "noise.adapt", "init_from_prefix": "noise.init_from_prefix",
            "MixmaxDiagnostics": "mixmax.diagnostics",
        },
        "nnmm.cli": {
            "enhance_utterance": "enhancer.enhance",
            "enhance_mixmax_original": "enhancer.enhance",
            "stft": "dsp.stft", "log_spectra": "dsp.log_spectra",
            "feature_matrix": "features.feature_matrix",
            "segmental_snr": "metrics.segmental_snr",
            "log_spectral_distance": "metrics.log_spectral_distance",
            "classify_accuracy": "nn.classify_accuracy",
            "classify_frames": "mog.classify_frames",
            "load_corpus": "corpus.load_corpus", "mix_at_snr": "corpus.mix_at_snr",
            "white_noise": "corpus.noise", "step_white_noise": "corpus.noise",
            "load_bundle": "serialize.load_bundle",
        },
        "nnmm.metrics": {"stft": "dsp.stft", "log_spectra": "dsp.log_spectra"},
    }
    hooks = {("nnmm.enhancer", "stft"): frames,
             ("nnmm.enhancer", "MixmaxDiagnostics"): diagnostics}
    return [Wrap(module, attr, layer, hooks.get((module, attr)))
            for module, names in table.items() for attr, layer in names.items()]
