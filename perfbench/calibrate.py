"""Machine-speed reference for normalizing wall-clock times.

On a shared 2-vCPU host the same operation can take up to twice as long for
tens of seconds at a time, so raw medians from runs made minutes apart
disagree by more than any useful regression bound.  The reference kernel
below is a frozen copy of the *shape* of the seed's per-frame enhancer step
-- classifier forward pass, max-model dominance on (5, 257) arrays, SPP,
soft subtraction, gated noise update with validation, phase reconstruction
-- on fixed random data.  It does not import ``nnmm``, so no program change
can move it, and it slows down with the host the way the enhancer does.

Timing it between operations gives the machine's momentary speed.  A
normalized time is ``measured * NOMINAL_S / reference``, where ``reference``
is the mean of the kernel times just before and just after the measured
work: the time the work would take on the machine ``NOMINAL_S`` was measured
on (2 vCPUs, numpy 2.4 with OpenBLAS).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import expit, ndtr

FRAMES = 100
# Median kernel time on that machine; it only scales reported values.
NOMINAL_S = 0.027
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


class Reference:
    def __init__(self):
        rng = np.random.default_rng(1)
        self.z = rng.standard_normal((FRAMES, 257)) - 2.0
        self.frames = rng.standard_normal((FRAMES, 257)) + 1j * rng.standard_normal((FRAMES, 257))
        self.feats = rng.standard_normal((FRAMES, 351))
        self.means = rng.standard_normal((5, 257)) - 1.0
        self.stds = 0.5 + rng.random((5, 257))
        self.w1 = 0.05 * rng.standard_normal((500, 352))
        self.w2 = 0.05 * rng.standard_normal((5, 501))

    def seconds(self) -> float:
        """Wall time of one pass of the reference frame loop."""
        t0 = time.perf_counter()
        mu, sigma = np.full(257, -2.0), np.full(257, 0.5)
        acc = 0.0
        for t in range(FRAMES):
            hidden = np.concatenate([expit(self.w1 @ np.concatenate([self.feats[t], [1.0]])), [1.0]])
            logits = self.w2 @ hidden
            e = np.exp(logits - logits.max())
            p = e / e.sum()

            z = self.z[t]
            a = (z - self.means) / self.stds
            b = (z - mu) / sigma
            f, big_f = np.exp(-0.5 * a * a) / (self.stds * _SQRT_2PI), ndtr(a)
            g, big_g = np.exp(-0.5 * b * b) / (sigma * _SQRT_2PI), ndtr(b)
            numer = f * big_g
            h = numer + big_f * g
            low = h < 1e-300
            rho = np.clip(np.where(low, 0.5, numer / np.where(low, 1.0, h)), 0.0, 1.0)
            spp = np.clip(p @ rho, 0.0, 1.0)
            xhat = z - (1.0 - spp) * 2.5

            if np.any(spp < 0) or np.any(spp > 1):
                raise ArithmeticError("reference SPP left [0, 1]")
            mu_new = spp * mu + (1.0 - spp) * (0.1 * z + 0.9 * mu)
            sigma = np.maximum(spp * sigma + (1.0 - spp) * (0.1 * np.abs(z - mu_new) + 0.9 * sigma), 1e-3)
            mu = mu_new
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
                raise ArithmeticError("reference noise model is not finite")

            frame = self.frames[t]
            mag = np.abs(frame)
            out = np.zeros_like(frame)
            nz = mag > 0
            out[nz] = np.exp(xhat[nz]) * frame[nz] / mag[nz]
            acc += float(out.real.sum())
        seconds = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")
        return seconds


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to the nominal machine speed."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
