"""STFT analysis/synthesis, framing arithmetic, and WAV round trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import get_window

from nnmm.corpus import SyntheticCorpusSpec, default_envelopes
from nnmm.dsp import (
    ComplexSpectrogram,
    Waveform,
    analyse,
    analysis_window,
    edge_padding,
    frame_signal,
    istft,
    log_magnitude,
    log_spectra,
    num_frames,
    overlap_add,
    read_wav,
    reconstruct_frame,
    stft,
    synthesise,
    write_wav,
)
from nnmm.enhancer import EnhancerConfig
from nnmm.mog import PhonemeMog
from nnmm.serialize import ModelBundle

from oracles import istft_by_frame, stft_by_gather


# ---------------------------------------------------------------------------
# Waveform / window basics
# ---------------------------------------------------------------------------


class TestWaveform:
    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="single-channel"):
            Waveform(samples=np.zeros((2, 100)), sample_rate=16000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Waveform(samples=np.array([0.0, np.nan]), sample_rate=16000)

    @pytest.mark.parametrize("rate", [16000.7, 16000.0, "16000", 0, -1],
                             ids=["fraction", "whole-float", "str", "zero", "negative"])
    def test_unusable_sample_rate_raises(self, rate):
        """A rate that is not a positive integer is refused, not truncated
        to one."""
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform(samples=np.zeros(100), sample_rate=rate)

    def test_numpy_integer_sample_rate_stored_as_int(self):
        w = Waveform(samples=np.zeros(100), sample_rate=np.int64(16000))
        assert w.sample_rate == 16000
        assert type(w.sample_rate) is int

    def test_duration(self):
        w = Waveform(samples=np.zeros(8000), sample_rate=16000)
        assert w.duration == 0.5
        assert len(w) == 8000


class TestWindow:
    def test_squared_window_overlap_adds_to_constant(self):
        """The squared analysis window must satisfy COLA at 75% overlap."""
        L = 512
        hop = L // 4
        w2 = analysis_window(L) ** 2
        acc = np.zeros(4 * L)
        for start in range(0, 4 * L - L + 1, hop):
            acc[start:start + L] += w2
        interior = acc[L:-L]
        np.testing.assert_allclose(interior, interior[0], atol=1e-12)

    def test_equals_scipy_periodic_hann(self):
        """The numpy window is scipy's periodic Hann, sqrt'd, bit for bit."""
        for L in range(8, 4097, 2):
            np.testing.assert_array_equal(
                analysis_window(L), np.sqrt(get_window("hann", L, fftbins=True)), err_msg=str(L))

    def test_cached_window_is_read_only(self):
        win = analysis_window(512)
        assert analysis_window(512) is win
        with pytest.raises(ValueError, match="read-only"):
            win *= 2.0

    def test_num_frames_matches_stft(self):
        rng = np.random.default_rng(0)
        for n in [512, 777, 1024, 5000, 16001]:
            w = Waveform(samples=rng.standard_normal(n), sample_rate=16000)
            assert stft(w, 512).n_frames == num_frames(n, 512)


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_reconstruction_error_tiny(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(16000)
        w = Waveform(samples=x, sample_rate=16000)
        y = istft(stft(w, 512))
        pad = edge_padding(512)
        err = np.sqrt(np.mean((y[pad:pad + len(x)] - x) ** 2))
        assert err < 1e-10

    def test_round_trip_various_lengths(self):
        rng = np.random.default_rng(12)
        for n in [512, 640, 1000, 4097]:
            x = 0.3 * rng.standard_normal(n)
            y = istft(stft(Waveform(samples=x, sample_rate=8000), 256))
            pad = edge_padding(256)
            np.testing.assert_allclose(y[pad:pad + n], x, atol=1e-10)

    def test_too_short_raises(self):
        w = Waveform(samples=np.zeros(100), sample_rate=16000)
        with pytest.raises(ValueError, match="too short"):
            stft(w, 512)

    @pytest.mark.parametrize("frame_length", [2, 6, 9])
    def test_unusable_frame_length_raises(self, frame_length):
        """Below 8 the hop is under 2 samples (0 at length 2)."""
        w = Waveform(samples=np.zeros(100), sample_rate=16000)
        with pytest.raises(ValueError, match="frame_length must be even and at least 8"):
            stft(w, frame_length)

    @staticmethod
    def _frame_length_users(frame_length):
        """One call per holder of a frame length: stft, the spectrogram, the
        enhancer's config, the model bundle and the corpus recipe."""
        w = Waveform(samples=np.zeros(2048), sample_rate=16000)
        mog = PhonemeMog(weights=np.ones(1), means=np.zeros((1, 257)), stds=np.ones((1, 257)))
        return [
            lambda: stft(w, frame_length),
            lambda: ComplexSpectrogram(frames=np.zeros((1, 257), complex),
                                       frame_length=frame_length),
            lambda: EnhancerConfig(frame_length=frame_length),
            lambda: ModelBundle(mog=mog, net=None, sample_rate=16000, frame_length=frame_length),
            lambda: SyntheticCorpusSpec(envelopes=default_envelopes(2),
                                        frame_length=frame_length),
        ]

    @pytest.mark.parametrize("frame_length", [512.0, np.float64(512), "512"],
                             ids=["float", "numpy-float", "str"])
    def test_non_integer_frame_length_raises(self, frame_length):
        """A whole float is refused where it is given, not inside the FFT
        of the first stft that takes it."""
        for make in self._frame_length_users(frame_length):
            with pytest.raises(ValueError, match="frame_length must be an integer"):
                make()

    def test_numpy_integer_frame_length_accepted(self):
        for make in self._frame_length_users(np.int64(512)):
            make()

    def test_shapes(self):
        w = Waveform(samples=np.zeros(16000), sample_rate=16000)
        s = stft(w, 512)
        assert s.n_bins == 257
        assert s.hop == 128
        assert s.frames.dtype == np.complex128


class TestAgainstFrameLoops:
    """The strided framing and overlap-add keep the arithmetic of the
    index-gather and frame-by-frame references, so results are bit-equal."""

    # (frame_length, samples): the one-frame minimum, lengths on and off the
    # hop grid, and a frame length that is not a multiple of 4 (5 overlaps).
    CASES = [(512, 512), (512, 640), (512, 1000), (512, 16000 + 37),
             (256, 4097), (10, 10), (10, 57)]

    @pytest.mark.parametrize("frame_length,n", CASES)
    def test_stft_and_istft_bit_equal(self, frame_length, n):
        rng = np.random.default_rng(n)
        w = Waveform(samples=rng.standard_normal(n), sample_rate=16000)
        s = stft(w, frame_length)
        np.testing.assert_array_equal(s.frames, stft_by_gather(w, frame_length).frames)
        np.testing.assert_array_equal(istft(s), istft_by_frame(s))

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9])
    def test_frame_parts_equal_the_whole(self, k):
        """stft is analyse of frame_signal, and istft overlap_add of
        synthesise.  Analysed, log-scaled and synthesised in two parts at
        every split of the first k frames, into one array each, the frames
        equal the whole's bit for bit."""
        rng = np.random.default_rng(k)
        w = Waveform(samples=rng.standard_normal(3000), sample_rate=16000)
        whole = ComplexSpectrogram(frames=stft(w, 256).frames[:k], frame_length=256)
        windows = frame_signal(w, 256)[:k]
        for mid in range(k + 1):
            frames = np.empty((k, 129), complex)
            logs = np.empty((k, 129))
            segs = np.empty((k, 256))
            for at in (slice(0, mid), slice(mid, k)):
                analyse(windows[at], out=frames[at])
                log_magnitude(frames[at], out=logs[at])
                synthesise(frames[at], 256, out=segs[at])
            np.testing.assert_array_equal(frames, whole.frames)
            np.testing.assert_array_equal(logs, log_spectra(whole))
            np.testing.assert_array_equal(overlap_add(segs), istft(whole))
        np.testing.assert_array_equal(overlap_add(segs), istft_by_frame(whole))

    def test_reconstruct_stack_matches_masked_formula(self):
        rng = np.random.default_rng(7)
        fr = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        fr[2, :4] = 0.0
        xhat = rng.normal(0, 1, fr.shape)
        mag = np.abs(fr)
        nz = mag > 0
        expect = np.zeros_like(fr)
        expect[nz] = np.exp(xhat[nz]) * fr[nz] / mag[nz]
        np.testing.assert_array_equal(reconstruct_frame(xhat, fr), expect)


# ---------------------------------------------------------------------------
# Log magnitudes and frame reconstruction
# ---------------------------------------------------------------------------


class TestLogMagnitude:
    def test_floor_applied(self):
        s = ComplexSpectrogram(frames=np.zeros((2, 5), dtype=complex), frame_length=8)
        np.testing.assert_allclose(log_spectra(s), np.log(1e-10))

    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        fr = rng.standard_normal((3, 257)) + 1j * rng.standard_normal((3, 257))
        s = ComplexSpectrogram(frames=fr, frame_length=512)
        np.testing.assert_allclose(log_spectra(s), np.log(np.abs(fr)))

    def test_log_spectra_stacks_frames(self):
        rng = np.random.default_rng(4)
        w = Waveform(samples=rng.standard_normal(2000), sample_rate=16000)
        s = stft(w, 512)
        ls = log_spectra(s)
        assert ls.shape == (s.n_frames, s.n_bins)
        np.testing.assert_allclose(ls[2], np.log(np.abs(s.frames[2])))

    def test_reconstruct_keeps_phase(self):
        """exp(log-magnitude) with the noisy phase reproduces the frame."""
        rng = np.random.default_rng(5)
        fr = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        out = reconstruct_frame(np.log(np.abs(fr)), fr)
        np.testing.assert_allclose(out, fr, rtol=1e-12)

    def test_reconstruct_zero_bins_stay_zero(self):
        fr = np.zeros(4, dtype=complex)
        out = reconstruct_frame(np.full(4, -1.0), fr)
        np.testing.assert_allclose(out, 0.0)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------


class TestWavIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        x = 0.8 * rng.uniform(-1, 1, 4000)
        w = Waveform(samples=x, sample_rate=16000)
        path = tmp_path / "a.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, x, atol=5e-5)

    def test_expected_rate_enforced(self, tmp_path):
        w = Waveform(samples=np.zeros(100), sample_rate=8000)
        path = tmp_path / "b.wav"
        write_wav(path, w)
        with pytest.raises(ValueError, match="8000"):
            read_wav(path, expected_rate=16000)

    def test_clipping_on_write(self, tmp_path):
        w = Waveform(samples=np.array([2.0, -2.0, 0.0]), sample_rate=8000)
        path = tmp_path / "c.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert np.max(np.abs(back.samples)) <= 1.0

    def test_only_wav_io_imports_scipy_io(self, tmp_path):
        """Importing the package and its CLI loads neither scipy.signal nor
        scipy.io; reading a WAV file then loads scipy.io."""
        path = tmp_path / "d.wav"
        write_wav(path, Waveform(samples=np.zeros(100), sample_rate=8000))
        code = (
            "import sys, nnmm, nnmm.cli\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.io') if m in sys.modules))\n"
            f"nnmm.cli.read_wav({str(path)!r})\n"
            "print('scipy.io' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["[]", "True"]


class TestSpectrogramValidation:
    def test_bad_bin_count_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            ComplexSpectrogram(frames=np.zeros((3, 200), dtype=complex), frame_length=512)
