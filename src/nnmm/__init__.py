"""Hybrid generative/discriminative single-microphone speech enhancement.

A mixture-of-Gaussians clean-speech model and a neural phoneme classifier
combine, through a max-model of noisy log-spectra, into per-bin speech
presence probabilities that drive soft spectral subtraction with online
noise adaptation.  The classic fixed-noise MMSE estimator is included as a
reference mode.
"""

from .corpus import (
    LabeledUtterance,
    SyntheticCorpusSpec,
    assemble_frames,
    default_envelopes,
    mix_at_snr,
    save_corpus,
    step_white_noise,
    synthesize_corpus,
    white_noise,
)
from .dsp import ComplexSpectrogram, Waveform, edge_padding, istft, stft, write_wav
from .enhancer import (
    EnhancementReport,
    EnhancerConfig,
    enhance_mixmax_original,
    enhance_utterance,
)
from .errors import BundleFormatError, NumericError
from .metrics import log_spectral_distance, segmental_snr
from .mixmax import MixmaxDiagnostics
from .mog import PhonemeMog, classify_frames, train_supervised
from .nn import NnClassifier, classify_accuracy, train
from .noise import NoiseModel, adapt
from .serialize import ModelBundle, load_bundle, save_bundle

__version__ = "0.1.0"

__all__ = [
    "BundleFormatError",
    "ComplexSpectrogram",
    "EnhancementReport",
    "EnhancerConfig",
    "LabeledUtterance",
    "MixmaxDiagnostics",
    "ModelBundle",
    "NnClassifier",
    "NoiseModel",
    "NumericError",
    "PhonemeMog",
    "SyntheticCorpusSpec",
    "Waveform",
    "adapt",
    "assemble_frames",
    "classify_accuracy",
    "classify_frames",
    "default_envelopes",
    "edge_padding",
    "enhance_mixmax_original",
    "enhance_utterance",
    "istft",
    "load_bundle",
    "log_spectral_distance",
    "mix_at_snr",
    "save_bundle",
    "save_corpus",
    "segmental_snr",
    "step_white_noise",
    "stft",
    "synthesize_corpus",
    "train",
    "train_supervised",
    "white_noise",
    "write_wav",
]
