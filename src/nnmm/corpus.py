"""Synthetic labeled corpus: formant-shaped noise standing in for speech.

Each class is a spectral envelope (a few Gaussian formant bumps over a
broadband floor); an utterance is a concatenation of variable-length
segments, each carrying one class, with per-segment level jitter.  Classes
are acoustically separable by construction, segments sit on the STFT hop
grid, and every STFT frame gets the label of the class active at its
center.  Everything is deterministic given the seed.

Also here: white / stepped noise generators, SNR-controlled mixing, and
plain-file corpus storage (PCM16 WAV + one label file per utterance).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dsp import (
    Waveform,
    check_frame_length,
    check_unsigned,
    log_spectra,
    num_frames,
    read_wav,
    stft,
    write_wav,
)
from .features import feature_matrix

PEAK_LEVEL = 0.5

# Shortest and longest class segment, in STFT hops.
SEGMENT_FRAMES = (8, 20)

# Where step_white_noise's level jumps, as a fraction of its length.
STEP_FRACTION = 0.5


@dataclass(frozen=True)
class ClassEnvelope:
    """Gaussian formant bumps over a flat floor, evaluated in Hz."""

    formants: tuple[float, ...]
    bandwidths: tuple[float, ...]
    floor: float = 0.03

    def __post_init__(self):
        if len(self.formants) != len(self.bandwidths) or not self.formants:
            raise ValueError("need one bandwidth per formant")
        if not all(0 < v < np.inf for v in (*self.formants, *self.bandwidths)):
            raise ValueError("formants and bandwidths must be finite and positive")
        if not 0 < self.floor < np.inf:
            raise ValueError("floor must be finite and positive")

    def gain(self, freqs: np.ndarray) -> np.ndarray:
        """Amplitude response at the given frequencies (Hz)."""
        f = np.asarray(freqs, dtype=np.float64)
        g = np.full_like(f, self.floor)
        for fc, bw in zip(self.formants, self.bandwidths):
            g += np.exp(-0.5 * ((f - fc) / bw) ** 2)
        return g


def _check_sample_rate(sample_rate) -> None:
    """Refuse a sample rate that is not a positive integer, by name."""
    check_unsigned("sample_rate", sample_rate, 32)
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")


def default_envelopes(n_classes: int, sample_rate: int = 16000) -> tuple[ClassEnvelope, ...]:
    """Distinct two-formant envelopes spread across the band."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    _check_sample_rate(sample_rate)
    nyquist = sample_rate / 2.0
    envs = []
    for i in range(n_classes):
        f1 = 280.0 + 3000.0 * i / n_classes
        f2 = min(0.9 * nyquist, 2.1 * f1 + 700.0 + 260.0 * (i % 3))
        envs.append(
            ClassEnvelope(
                formants=(f1, f2),
                bandwidths=(90.0 + 12.0 * i, 160.0 + 25.0 * (i % 4)),
            )
        )
    return tuple(envs)


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    """Recipe for a labeled corpus; utterance lengths are in seconds."""

    envelopes: tuple[ClassEnvelope, ...]
    sample_rate: int = 16000
    frame_length: int = 512
    utterance_seconds: tuple[float, float] = (1.2, 2.0)
    amp_jitter: tuple[float, float] = (0.4, 1.0)
    seed: int = 0

    def __post_init__(self):
        if len(self.envelopes) < 2:
            raise ValueError("need at least 2 classes")
        if len({e.formants for e in self.envelopes}) != len(self.envelopes):
            raise ValueError("class envelopes must be distinct")
        _check_sample_rate(self.sample_rate)
        check_frame_length(self.frame_length)
        for name in ("utterance_seconds", "amp_jitter"):
            low, high = getattr(self, name)
            if not 0 < low <= high < np.inf:
                raise ValueError(f"{name} must be finite with 0 < low <= high, "
                                 f"got {(low, high)}")
        if self.utterance_seconds[0] * self.sample_rate < 1:
            raise ValueError(f"utterance_seconds must start at one sample or more, "
                             f"got {self.utterance_seconds} at {self.sample_rate} Hz")

    @property
    def n_classes(self) -> int:
        return len(self.envelopes)


@dataclass(frozen=True)
class LabeledUtterance:
    """A waveform plus one class index per STFT frame."""

    waveform: Waveform
    frame_labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.frame_labels, dtype=np.intp)
        object.__setattr__(self, "frame_labels", labels)
        if labels.ndim != 1:
            raise ValueError("frame_labels must be 1-D")


def _shaped_segment(env: ClassEnvelope, n: int, sample_rate: int, rng) -> np.ndarray:
    """White noise colored by the class envelope, unit RMS."""
    e = rng.standard_normal(n)
    spectrum = np.fft.rfft(e) * env.gain(np.fft.rfftfreq(n, 1.0 / sample_rate))
    x = np.fft.irfft(spectrum, n=n)
    return x / np.sqrt(np.mean(x * x))


def synthesize_utterance(spec: SyntheticCorpusSpec, rng) -> LabeledUtterance:
    """One utterance: uniformly drawn, hop-aligned class segments with level jitter."""
    hop = spec.frame_length // 4
    target = int(rng.uniform(*spec.utterance_seconds) * spec.sample_rate)

    pieces, classes, lengths = [], [], []
    total = 0
    while total < target:
        cls = int(rng.choice(spec.n_classes))
        seg_frames = int(rng.integers(SEGMENT_FRAMES[0], SEGMENT_FRAMES[1] + 1))
        n = seg_frames * hop
        seg = _shaped_segment(spec.envelopes[cls], n, spec.sample_rate, rng)
        seg *= rng.uniform(*spec.amp_jitter)
        pieces.append(seg)
        classes.append(cls)
        lengths.append(n)
        total += n

    x = np.concatenate(pieces)
    x *= PEAK_LEVEL / np.max(np.abs(x))
    sample_class = np.repeat(np.asarray(classes, dtype=np.intp), lengths)

    # Label each STFT frame by the class at its center sample.  Frame t
    # starts at t * hop - edge_padding, and stft pads edge_padding = L - hop
    # zeros, so its center is (t + 1) * hop - L / 2.
    n_fr = num_frames(len(x), spec.frame_length)
    centers = np.clip((np.arange(n_fr) + 1) * hop - spec.frame_length // 2, 0, len(x) - 1)
    return LabeledUtterance(
        waveform=Waveform(samples=x, sample_rate=spec.sample_rate),
        frame_labels=sample_class[centers],
    )


def synthesize_corpus(spec: SyntheticCorpusSpec, n_utterances: int) -> list[LabeledUtterance]:
    """Deterministic corpus: one RNG stream seeded by ``spec.seed``."""
    if n_utterances < 1:
        raise ValueError("need at least one utterance")
    rng = np.random.default_rng(spec.seed)
    return [synthesize_utterance(spec, rng) for _ in range(n_utterances)]


def assemble_frames(utterances: list[LabeledUtterance], frame_length: int = 512):
    """Per-frame training arrays pooled over utterances.

    Returns (log_spectra, stacked_features, labels); features are normalized
    per utterance before pooling, matching how the enhancer computes them.
    """
    specs, feats, labels = [], [], []
    for utt in utterances:
        spec = stft(utt.waveform, frame_length)
        if len(utt.frame_labels) != spec.n_frames:
            raise ValueError("label count does not match frame count")
        specs.append(log_spectra(spec))
        feats.append(feature_matrix(spec, utt.waveform.sample_rate))
        labels.append(utt.frame_labels)
    return np.concatenate(specs), np.concatenate(feats), np.concatenate(labels)


# ---------------------------------------------------------------------------
# noise generators and mixing
# ---------------------------------------------------------------------------

def white_noise(n_samples: int, sample_rate: int, seed: int = 0) -> Waveform:
    """Stationary Gaussian white noise (RMS 0.1)."""
    rng = np.random.default_rng(seed)
    return Waveform(samples=0.1 * rng.standard_normal(n_samples), sample_rate=sample_rate)


def step_white_noise(
    n_samples: int,
    sample_rate: int,
    seed: int = 0,
    step_db: float = 10.0,
) -> Waveform:
    """White noise whose level jumps by ``step_db`` halfway through."""
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(n_samples)
    split = int(n_samples * STEP_FRACTION)
    x[split:] *= 10.0 ** (step_db / 20.0)
    return Waveform(samples=x, sample_rate=sample_rate)


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """clean + noise scaled for the requested full-utterance SNR.

    Noise shorter than the clean signal is tiled; the scaling makes
    10*log10(P_clean / P_noise) equal ``snr_db`` exactly over the utterance.
    An empty ``clean`` or ``noise`` and a non-finite ``snr_db`` are refused
    by name.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("sample rates differ")
    for name, w in (("clean", clean), ("noise", noise)):
        if not len(w):
            raise ValueError(f"{name} is empty")
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    nse = np.resize(noise.samples, len(clean))  # tiled, then cut to length

    p_clean = np.mean(clean.samples**2)
    p_noise = np.mean(nse**2)
    if p_clean <= 0 or p_noise <= 0:
        raise ValueError("zero-power signal cannot be mixed at a target SNR")
    scale = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(samples=clean.samples + scale * nse, sample_rate=clean.sample_rate)


# ---------------------------------------------------------------------------
# plain-file storage
# ---------------------------------------------------------------------------

def save_corpus(path: str, utterances: list[LabeledUtterance], frame_length: int, n_classes: int) -> None:
    """Write PCM16 WAVs, one label file per utterance, and a meta file."""
    os.makedirs(path, exist_ok=True)
    for i, utt in enumerate(utterances):
        write_wav(os.path.join(path, f"utt_{i:04d}.wav"), utt.waveform)
        with open(os.path.join(path, f"utt_{i:04d}.labels"), "w") as fh:
            fh.write("\n".join(str(int(c)) for c in utt.frame_labels) + "\n")
    with open(os.path.join(path, "corpus.meta"), "w") as fh:
        fh.write(f"n_utterances={len(utterances)}\n")
        fh.write(f"n_classes={n_classes}\n")
        fh.write(f"frame_length={frame_length}\n")
        fh.write(f"sample_rate={utterances[0].waveform.sample_rate}\n")


def load_corpus(path: str):
    """Read a saved corpus; returns (utterances, meta dict)."""
    meta_path = os.path.join(path, "corpus.meta")
    if not os.path.isfile(meta_path):
        raise ValueError(f"{path}: not a corpus directory (missing corpus.meta)")
    meta = {}
    with open(meta_path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                try:
                    meta[key.strip()] = int(value.strip())
                except ValueError:
                    raise ValueError(f"{meta_path}: {line!r} is not <key>=<integer>") from None
    missing = [k for k in ("n_utterances", "n_classes", "frame_length", "sample_rate")
               if k not in meta]
    if missing:
        raise ValueError(f"{meta_path}: missing {', '.join(missing)}")
    if meta["n_utterances"] < 1:
        raise ValueError(f"{meta_path}: n_utterances must be at least 1")
    check_frame_length(meta["frame_length"])

    utterances = []
    for i in range(meta["n_utterances"]):
        wav = read_wav(os.path.join(path, f"utt_{i:04d}.wav"), expected_rate=meta["sample_rate"])
        labels_path = os.path.join(path, f"utt_{i:04d}.labels")
        labels = np.loadtxt(labels_path, dtype=np.intp, ndmin=1)
        if len(labels) != num_frames(len(wav), meta["frame_length"]):
            raise ValueError(f"utt_{i:04d}: label count does not match frame count")
        outside = labels[(labels < 0) | (labels >= meta["n_classes"])]
        if outside.size:
            raise ValueError(f"{labels_path}: label {outside[0]} outside [0, {meta['n_classes']})")
        utterances.append(LabeledUtterance(waveform=wav, frame_labels=labels))
    return utterances, meta
