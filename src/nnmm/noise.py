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


def check_spp(spp: np.ndarray) -> None:
    """Reject an SPP outside [0, 1] (NaN fails); any shape, in one pass."""
    if not (spp.min() >= 0 and spp.max() <= 1):  # NaN fails both
        raise ValueError("SPP values must lie in [0, 1]")


def check_observations(z: np.ndarray) -> None:
    """Reject a non-finite observation; any shape, in one pass."""
    if not np.isfinite(z).all():
        raise ValueError("observation must be finite")


def adapt(
    model: NoiseModel,
    z: np.ndarray,
    spp: np.ndarray,
    alpha: float,
    *,
    out: tuple | None = None,
) -> NoiseModel:
    """One recursive update gated by the speech presence probability.

    Noise-dominated bins (spp near 0) move toward the observation with
    smoothing ``alpha``; speech-dominated bins are frozen.  The updated mean
    feeds the deviation term of the std update.

    Checks run on the inputs only: the frame and SPP match the model's
    length, ``alpha`` lies in (0, 1), the SPP in [0, 1] (NaN fails) and the
    frame is finite.  ``model`` was checked when it was built.  The
    result is not checked again: its mean blends finite values with weights
    in [0, 1] and its std is floored at ``SIGMA_FLOOR``, so it is valid by
    construction.  Both are formed in place, in the order of the textbook
    recursion, so they round as its expressions do.

    Without ``out`` the result is a new model on fresh arrays.  ``out`` is
    a workspace ``(into, gate, tmp)``: a model of ``model``'s shape that
    shares no array with it, whose arrays are overwritten with the result
    and which is returned, and two float64 scratch arrays of that shape;
    nothing is then allocated.  That form is the enhancer's per-frame step
    and checks nothing: its caller checks a whole utterance's observations
    and SPP at once with :func:`check_observations` and :func:`check_spp`,
    and ``alpha`` is checked by the enhancer's config.
    """
    if out is None:
        z = np.asarray(z, dtype=np.float64)
        rho = np.asarray(spp, dtype=np.float64)
        if z.shape != model.mu.shape or rho.shape != model.mu.shape:
            raise ValueError("frame, SPP and model lengths differ")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        check_spp(rho)
        check_observations(z)
        into, gate, tmp = None, None, None
    else:
        rho = spp
        into, gate, tmp = out
    mu, sigma = (None, None) if into is None else (into.mu, into.sigma)
    # Output arrays are named positionally, the cheapest form of a numpy
    # call, which counts in a step that runs once per frame; np.maximum
    # alone takes ``out=``, as its positional form is deprecated.
    # mu = rho*mu + (1-rho)*(alpha*z + (1-alpha)*mu)
    gate = np.subtract(1.0, rho, gate)
    tmp = np.multiply(1.0 - alpha, model.mu, tmp)
    mu = np.multiply(alpha, z, mu)
    np.add(mu, tmp, mu)
    np.multiply(mu, gate, mu)
    np.multiply(rho, model.mu, tmp)
    np.add(mu, tmp, mu)
    # sigma = rho*sigma + (1-rho)*(alpha*|z - mu| + (1-alpha)*sigma)
    sigma = np.subtract(z, mu, sigma)
    np.abs(sigma, sigma)
    np.multiply(sigma, alpha, sigma)
    np.multiply(1.0 - alpha, model.sigma, tmp)
    np.add(sigma, tmp, sigma)
    np.multiply(sigma, gate, sigma)
    np.multiply(rho, model.sigma, tmp)
    np.add(sigma, tmp, sigma)
    np.maximum(sigma, SIGMA_FLOOR, out=sigma)
    return NoiseModel._unchecked(mu, sigma) if into is None else into
