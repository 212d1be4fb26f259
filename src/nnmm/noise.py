"""Single-Gaussian per-bin noise model with SPP-gated recursive adaptation.

The model is initialized from a leading noise-only stretch of the utterance
and then updated frame by frame: bins judged speech-dominated keep their old
statistics, noise-dominated bins blend toward the current observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import SIGMA_FLOOR


@dataclass(frozen=True)
class NoiseModel:
    """Per-bin mean and std-dev of the noise log-spectrum, shapes (K,).

    The enhancer's batched recursion holds the models of B rows as one, of
    shapes (B, 1, K); bins are always the last axis.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.shape != sigma.shape or mu.ndim == 0:
            raise ValueError("mu and sigma must have one shape, with bins on the last axis")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("noise parameters must be finite")
        if (sigma < SIGMA_FLOOR).any():
            raise ValueError(f"sigma must be >= {SIGMA_FLOOR}")

    @classmethod
    def _unchecked(cls, mu: np.ndarray, sigma: np.ndarray) -> NoiseModel:
        """A model from float64 (K,) arrays that are valid by construction;
        skips ``__post_init__``."""
        model = object.__new__(cls)
        object.__setattr__(model, "mu", mu)
        object.__setattr__(model, "sigma", sigma)
        return model

    @property
    def n_bins(self) -> int:
        return self.mu.shape[-1]


def init_from_prefix(frames: np.ndarray) -> NoiseModel:
    """Sample mean and unbiased std over noise-only prefix frames, (N, K).

    Frames of a batch, (N, B, 1, K), give the (B, 1, K) model of the B rows.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim < 2 or x.shape[0] < 2:
        raise ValueError("insufficient noise-only prefix: need at least 2 frames")
    return NoiseModel(
        mu=x.mean(axis=0),
        sigma=np.maximum(np.sqrt(x.var(axis=0, ddof=1)), SIGMA_FLOOR),
    )


def adapt(model: NoiseModel, z: np.ndarray, spp: np.ndarray, alpha: float) -> NoiseModel:
    """One recursive update gated by the speech presence probability.

    Noise-dominated bins (spp near 0) move toward the observation with
    smoothing ``alpha``; speech-dominated bins are frozen.  The updated mean
    feeds the deviation term of the std update.

    Checks run on the inputs only: the frame and SPP match the model's
    length, ``alpha`` lies in (0, 1), the SPP in [0, 1] (NaN fails) and the
    frame is finite.  ``model`` was checked when it was built.  The
    result is not checked again: its mean blends finite values with weights
    in [0, 1] and its std is floored at ``SIGMA_FLOOR``, so it is valid by
    construction.  Both are formed in place on fresh arrays, in the order
    of the textbook recursion, so they round as its expressions do.
    """
    z = np.asarray(z, dtype=np.float64)
    rho = np.asarray(spp, dtype=np.float64)
    if z.shape != model.mu.shape or rho.shape != model.mu.shape:
        raise ValueError("frame, SPP and model lengths differ")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not (rho.min() >= 0 and rho.max() <= 1):  # NaN fails both
        raise ValueError("SPP values must lie in [0, 1]")
    if not np.isfinite(z).all():
        raise ValueError("observation must be finite")

    # mu = rho*mu + (1-rho)*(alpha*z + (1-alpha)*mu)
    gate = 1.0 - rho
    tmp = np.multiply(1.0 - alpha, model.mu)
    mu = np.multiply(alpha, z)
    mu += tmp
    mu *= gate
    np.multiply(rho, model.mu, out=tmp)
    mu += tmp
    # sigma = rho*sigma + (1-rho)*(alpha*|z - mu| + (1-alpha)*sigma)
    sigma = np.subtract(z, mu)
    np.abs(sigma, out=sigma)
    sigma *= alpha
    np.multiply(1.0 - alpha, model.sigma, out=tmp)
    sigma += tmp
    sigma *= gate
    np.multiply(rho, model.sigma, out=tmp)
    sigma += tmp
    np.maximum(sigma, SIGMA_FLOOR, out=sigma)
    return NoiseModel._unchecked(mu, sigma)
