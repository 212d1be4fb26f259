"""Time/frequency conversion: framing, windowed STFT, overlap-add inverse,
log-magnitude spectra and magnitude/phase recombination.

The analysis and synthesis windows are both sqrt-Hann (periodic form) at a
hop of one quarter frame, so analysis times synthesis overlap-adds to an
exactly constant 2.0 and the interior round trip is lossless up to float
error.  The input is zero-padded by ``frame_length - hop`` on both ends so
every original sample receives full window coverage.

Both transforms are split at the frame: :func:`stft` is :func:`analyse` of
:func:`frame_signal`, and :func:`istft` is :func:`overlap_add` of
:func:`synthesise`.  :func:`analyse`, :func:`synthesise` and
:func:`log_magnitude` work on each frame on its own, so any slice of the
frames, formed alone and on any thread, is that slice of the whole, bit for
bit.

The window is scipy's periodic-Hann formula written out in numpy, built once
per frame length and shared read-only.  Importing ``scipy.signal`` for it
would cost about 47 MB of resident memory and 0.9 s, a third of an
enhancement process's memory; ``scipy.io`` is imported only when a WAV file
is read or written, for the same reason.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Magnitude floor applied before taking logs, keeping log-spectra finite.
MAGNITUDE_FLOOR = 1e-10


@dataclass(frozen=True)
class Waveform:
    """Mono audio: float samples (nominally in [-1, 1]) plus a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("waveform must be single-channel (1-D samples)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        check_unsigned("sample_rate", self.sample_rate, 32)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "sample_rate", operator.index(self.sample_rate))

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class ComplexSpectrogram:
    """One-sided STFT frames: shape (n_frames, frame_length // 2 + 1)."""

    frames: np.ndarray
    frame_length: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        object.__setattr__(self, "frames", frames)
        check_frame_length(self.frame_length)
        if frames.ndim != 2 or frames.shape[1] != self.frame_length // 2 + 1:
            raise ValueError("frames must have frame_length/2 + 1 bins each")

    @property
    def hop(self) -> int:
        return self.frame_length // 4

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


def check_unsigned(name: str, value, bits: int) -> None:
    """Reject a ``value`` that is not an integer in [0, 2**bits), named
    ``name`` in the error.  A numpy integer is an integer; a float, even a
    whole one, is not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}") from None
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")


def check_frame_length(frame_length: int) -> None:
    """Reject frame lengths the enhancer cannot run at, or a model bundle
    cannot store: not an integer in [0, 2**32), odd, or below 8."""
    check_unsigned("frame_length", frame_length, 32)
    if frame_length < 8 or frame_length % 2:
        raise ValueError("frame_length must be even and at least 8")


@lru_cache(maxsize=8)
def analysis_window(frame_length: int) -> np.ndarray:
    """sqrt of the periodic Hann window; also used for synthesis.

    The arithmetic is scipy's own for ``get_window("hann", L, fftbins=True)``,
    so the window equals the sqrt of scipy's bit for bit; ``np.hanning(L +
    1)[:-1]`` does not.  It is written in numpy because ``scipy.signal``
    costs about 47 MB and 0.9 s to import.  The array is cached per frame
    length and read-only, since every caller shares it.
    """
    win = np.sqrt(0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, frame_length + 1))[:-1])
    win.flags.writeable = False
    return win


def edge_padding(frame_length: int) -> int:
    """Zeros prepended (and appended) so edge samples get full coverage."""
    return frame_length - frame_length // 4


def num_frames(n_samples: int, frame_length: int) -> int:
    """Number of STFT frames produced for an input of ``n_samples``."""
    hop = frame_length // 4
    padded = n_samples + 2 * edge_padding(frame_length)
    return (padded - frame_length) // hop + 1 + (1 if (padded - frame_length) % hop else 0)


def frame_signal(w: Waveform, frame_length: int) -> np.ndarray:
    """The frames :func:`stft` transforms: the zero-padded signal at 75%
    overlap, a read-only (n_frames, frame_length) view.

    Raises ValueError for a frame length :func:`check_frame_length` refuses
    and for an input shorter than one frame.
    """
    check_frame_length(frame_length)
    x = w.samples
    if len(x) < frame_length:
        raise ValueError("utterance too short: need at least one full frame")

    hop = frame_length // 4
    pad = edge_padding(frame_length)
    # Round the tail up to the hop grid so trailing samples are fully covered.
    tail = pad + (-(len(x) + 2 * pad - frame_length)) % hop
    xp = np.concatenate([np.zeros(pad), x, np.zeros(tail)])
    return sliding_window_view(xp, frame_length)[::hop]


def analyse(windows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One-sided spectrum of each windowed frame of :func:`frame_signal`,
    (n, frame_length) -> (n, frame_length // 2 + 1), into ``out`` if given.

    Each frame is transformed on its own, so the spectra of a slice of the
    frames are that slice of the spectra, bit for bit.
    """
    return np.fft.rfft(windows * analysis_window(windows.shape[1]), axis=1, out=out)


def stft(w: Waveform, frame_length: int = 512) -> ComplexSpectrogram:
    """Windowed one-sided STFT at 75% overlap: :func:`analyse` of
    :func:`frame_signal`.

    Raises ValueError for a frame length :func:`check_frame_length` refuses
    and for an input shorter than one frame.
    """
    return ComplexSpectrogram(frames=analyse(frame_signal(w, frame_length)),
                              frame_length=frame_length)


def synthesise(frames: np.ndarray, frame_length: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """The windowed inverse transform of each one-sided frame,
    (n, frame_length // 2 + 1) -> (n, frame_length), into ``out`` if given:
    the segments :func:`overlap_add` sums.  Frame by frame, as
    :func:`analyse` is."""
    segs = np.fft.irfft(frames, n=frame_length, axis=1, out=out)
    segs *= analysis_window(frame_length)
    return segs


def overlap_add(segs: np.ndarray) -> np.ndarray:
    """Weighted overlap-add of the (n_frames, frame_length) segments of
    :func:`synthesise`, at a hop of a quarter frame.

    Returns ``(n_frames - 1) * hop + frame_length`` samples in the padded
    coordinate system of :func:`stft`; slice with :func:`edge_padding` to
    recover original-signal alignment.
    """
    n, L = segs.shape
    hop = L // 4
    win = analysis_window(L)
    power = win * win
    # Rows are hop-long output blocks; frame i covers blocks i .. i+overlap-1.
    overlap = -(-L // hop)
    out = np.zeros((n + overlap - 1, hop))
    wsum = np.zeros_like(out)
    # One strided add per block offset j, adds frame i's part j to block i+j.
    # Offsets run from last to first so every block sums its frames in
    # ascending frame order, the order a frame-by-frame loop adds them in.
    for j in reversed(range(overlap)):
        cols = slice(j * hop, min((j + 1) * hop, L))
        width = cols.stop - cols.start
        out[j:j + n, :width] += segs[:, cols]
        wsum[j:j + n, :width] += power[cols]
    out = out.ravel()[:(n - 1) * hop + L]
    wsum = wsum.ravel()[:(n - 1) * hop + L]
    good = wsum > 1e-10
    out[good] /= wsum[good]
    return out


def istft(s: ComplexSpectrogram) -> np.ndarray:
    """Weighted overlap-add inverse: :func:`overlap_add` of
    :func:`synthesise`, with the same sample count and alignment."""
    if s.n_frames == 0:
        raise ValueError("empty spectrogram")
    return overlap_add(synthesise(s.frames, s.frame_length))


def log_magnitude(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Floored log-magnitude of complex frames, elementwise, into ``out``
    if given."""
    mag = np.abs(frames)
    np.maximum(mag, MAGNITUDE_FLOOR, out=mag)
    return np.log(mag, out=mag if out is None else out)


def log_spectra(s: ComplexSpectrogram) -> np.ndarray:
    """Log-magnitude of every frame, shape (n_frames, n_bins)."""
    return log_magnitude(s.frames)


def reconstruct_frame(xhat: np.ndarray, noisy_frame: np.ndarray) -> np.ndarray:
    """Combine an estimated log-magnitude with the noisy frame's phase.

    Bins whose noisy magnitude is exactly zero have no defined phase and
    come out zero.
    """
    if xhat.shape != noisy_frame.shape:
        raise ValueError("log-magnitude and frame lengths differ")
    # exp(xhat) * frame / mag, in place so a whole utterance of frames needs
    # few temporaries; the product comes first, so the exp temporary is freed
    # before the magnitudes are allocated.
    out = noisy_frame * np.exp(xhat)
    mag = np.abs(noisy_frame)
    nz = mag > 0
    np.divide(out, mag, out=out, where=nz)
    out[~nz] = 0.0
    return out


def read_wav(path, expected_rate: int | None = None) -> Waveform:
    """Read a 16-bit PCM mono WAV file and scale it to [-1, 1].

    Rejects other encodings and channel counts; if ``expected_rate`` is
    given, rejects files at any other sample rate (no resampler here).
    """
    from scipy.io import wavfile  # imported here: enhancing needs no scipy.io

    rate, data = wavfile.read(path)
    if data.dtype != np.int16:
        raise ValueError(f"{path}: only 16-bit PCM WAV is supported, got {data.dtype}")
    if data.ndim != 1:
        raise ValueError(f"{path}: only mono WAV is supported, got {data.ndim} channels")
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(
            f"{path}: sample rate {rate} Hz does not match required {expected_rate} Hz"
        )
    return Waveform(samples=data.astype(np.float64) / 32768.0, sample_rate=rate)


def write_wav(path, w: Waveform) -> None:
    """Write a waveform as 16-bit PCM mono, clipping to [-1, 1]."""
    from scipy.io import wavfile  # imported here: enhancing needs no scipy.io

    pcm = np.clip(w.samples, -1.0, 1.0)
    wavfile.write(path, w.sample_rate, np.round(pcm * 32767.0).astype(np.int16))
