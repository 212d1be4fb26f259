"""Max-model mathematics for noisy log-spectra.

In the log-magnitude domain a noisy observation is well approximated by the
elementwise maximum of the clean-speech and noise log-spectra.  With Gaussian
bins on both sides everything is closed form:

    density of max(X, Y):       h(z) = f(z) G(z) + F(z) g(z)
    speech-dominance prob.:     rho  = f(z) G(z) / h(z)
    truncated mean:             E[X | X < z] = mu - sigma^2 f(z) / F(z)

Per-component versions (speech modeled by a class-conditional Gaussian
mixture) combine into the classic MMSE log-spectral estimator, and the
dominance probabilities double as per-bin speech presence probabilities for
soft spectral subtraction.

The density is split by what it depends on.  The speech side, f and F of
every component at the observation, depends only on the noisy frame:
:func:`speech_terms` forms it for any number of frames at once.  The noise
side, g and G, changes as the noise model adapts: :func:`speech_dominance`
forms it for one frame, or for a block of frames under one noise model, and
combines both sides into ``(rho, h)``, the one place the max density is
formed.  :func:`generative_posterior`, :func:`weighted_spp` and
:func:`weighted_mmse` take those results instead of recomputing them, and
:func:`conditional_mean_below` forms the truncated means from the same f
and F.  It needs no log domain: above its fallback cliff, near
(z - mu) / sigma = -37, f and F are both normal floats, and the Mills ratio
f / F stays within 2.3e-13 relative of a 50-digit reference.
The weighted sums do not check their posterior: the enhancer checks all of
an utterance's posteriors at once with :func:`check_posteriors`.  There is
one implementation of each formula, and the enhancer runs it, so the
quadrature and Monte-Carlo checks of this module verify the production
path.

The functions the enhancer calls also take a batch of frames, one per
enhancer row: ``z`` and the noise model of shape (B, 1, K), the
per-component arrays (B, m, K) and the posteriors (B, 1, m).  With the
noise model fixed they also take a block of T such frames, a leading T axis
on ``z``, the per-component arrays and the posteriors; the noise model
stays (B, 1, K) and broadcasts.

The two numerical fallbacks are counted per frame and row.
:func:`speech_dominance` and :func:`conditional_mean_below` take
``counts``, an integer array with the leading axes of their per-component
result: () for one frame (m, K), (B,) for a batch, (T, B) for a block.
Each adds the fallbacks of every frame and row to its entry, in place, so a
caller that holds an (N, B) array per fallback, as the enhancer's recursion
does, hands in the slice of the frames it runs.  One frame's entry is the
0-d view ``counts[t, b, ...]``: a scalar cannot be added to in place, and
is refused.  All functions are pure, apart from those counts, and every
array they return is fresh; models are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import DENSITY_FLOOR, gaussian_pdf_cdf, normalize_log_scores
from .mog import PhonemeMog
from .noise import NoiseModel


@dataclass
class MixmaxDiagnostics:
    """Counters for the rare numerical fallbacks taken during enhancement."""

    undecidable_bins: int = 0
    tail_fallbacks: int = 0

    @property
    def total(self) -> int:
        return self.undecidable_bins + self.tail_fallbacks


# ---------------------------------------------------------------------------
# elementwise max-of-Gaussians density
# ---------------------------------------------------------------------------

def speech_terms(z: np.ndarray, mog: PhonemeMog) -> tuple[np.ndarray, np.ndarray]:
    """Speech-side density f and CDF F at the observation, per component.

    ``z`` is one log-spectrum (K,) or a stack of them (..., K); both results
    have shape (..., m, K).  Nothing here depends on the noise model.
    """
    z = np.asarray(z, dtype=np.float64)
    return gaussian_pdf_cdf(z[..., np.newaxis, :], mog.means, mog.stds)


def speech_dominance(
    z: np.ndarray,
    speech: tuple[np.ndarray, np.ndarray],
    noise: NoiseModel,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """P(speech exceeds noise | observation, component) and the max density.

    ``speech`` is :func:`speech_terms` of the same frame ``z``.  Returns
    ``(rho, h)``, both of shape (m, K), or (B, m, K) for a batch, or
    (T, B, m, K) for a block of T batched frames under one noise model:
    ``h = f G + F g`` is the density of max(X, Y) for every component and
    bin.  Bins where ``h`` itself underflows carry no information either
    way; their ``rho`` comes back as 0.5, and each frame's count of them is
    added to its entry of ``counts``.

    ``rho`` is ``f G / h`` with no clipping: ``f G <= h`` holds after
    rounding too, and both are non-negative, so it lies in [0, 1].  One
    ``h.min()`` test picks the path.  Only a frame (or block) with an
    underflowing bin builds the mask, counts its bins and sets them to 0.5;
    the other bins keep ``f G / h``, so a block rounds as its frames do one
    at a time.

    ``h`` and ``rho`` are formed in place on two fresh arrays, in the order
    of ``F g + f G`` and ``f G / h``, so they round as those expressions do.
    """
    f, big_f = speech
    g, big_g = gaussian_pdf_cdf(z, noise.mu, noise.sigma)
    numer = np.multiply(f, big_g)
    h = np.multiply(big_f, g)
    h += numer
    if h.min() < DENSITY_FLOOR:
        undecidable = h < DENSITY_FLOOR
        if counts is not None:
            np.add(counts, np.count_nonzero(undecidable, axis=(-2, -1)), out=counts)
        return np.where(undecidable, 0.5, numer / np.where(undecidable, 1.0, h)), h
    numer /= h
    return numer, h


def generative_posterior(h: np.ndarray, mog: PhonemeMog) -> np.ndarray:
    """Component posterior p(i | z) under the max-model mixture, length m,
    or (B, m) for a batch, or (T, B, m) for a block of batched frames.

    ``h`` is the (m, K) density from :func:`speech_dominance`; bins are
    treated as independent, so each component's joint log-density is the
    sum of its per-bin logs.  Computed in the log domain with
    max-subtraction.  ``h`` is floored at ``DENSITY_FLOOR`` before the log,
    so the scores are finite for any finite observation; a NaN observation
    gives a NaN posterior, which :func:`check_posteriors` rejects.
    """
    floored = np.maximum(h, DENSITY_FLOOR)
    scores = np.log(floored, out=floored).sum(axis=-1)
    scores += np.log(mog.weights)
    return normalize_log_scores(scores)


def conditional_mean_below(
    z: np.ndarray,
    speech: tuple[np.ndarray, np.ndarray],
    mog: PhonemeMog,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """E[X_k | X_k < z_k, component i] for all i, k; shape (..., m, K).

    ``z`` is one log-spectrum (K,) or a stack of them (..., K), and
    ``speech`` is :func:`speech_terms` of the same ``z``: its f and F are
    the density and CDF the truncated mean mu - sigma^2 f / F is formed
    from.  Once F drops below the density floor, the lower-tail asymptote
    z + sigma**2 / (z - mu) is used instead, as it is for a mean that is
    not finite, and each frame's count of such bins is added to its entry
    of ``counts``; either way the result sits strictly below z.  The
    asymptote is the truncated mean's series z + sigma / a - 2 sigma / a**3
    + ... cut after its second term, so at the cliff it meets the analytic
    mean to about 4e-5 sigma.

    No log domain is needed: above that cliff, near a = (z - mu) / sigma =
    -37, F >= 1e-300 and f is about |a| F / sigma, so both are normal
    floats and f / F keeps full relative precision.  Against a 50-digit
    reference the Mills ratio f / F is within 4.2e-15 relative on
    a in [-5, 8] and within 2.3e-13 on [-37, -20], where the tail of
    ``ndtr`` sets the error.

    Formed in place on one fresh array, in the order of
    ``mu - sigma**2 * f / F``, so it rounds as that expression does.
    """
    f, big_f = speech
    mean = np.multiply(np.square(mog.stds), f)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean /= big_f
    np.subtract(mog.means, mean, out=mean)

    fallback = big_f < DENSITY_FLOOR
    fallback |= ~np.isfinite(mean)
    if counts is not None:
        np.add(counts, np.count_nonzero(fallback, axis=(-2, -1)), out=counts)
    if fallback.any():  # rare: skips three masked passes over the stack
        z = np.asarray(z, dtype=np.float64)[..., np.newaxis, :]
        np.subtract(z, mog.means, out=mean, where=fallback)
        np.divide(np.square(mog.stds), mean, out=mean, where=fallback)
        np.add(z, mean, out=mean, where=fallback)
    return mean


def check_posteriors(p: np.ndarray) -> None:
    """Reject posteriors that are not probability vectors along the last
    axis: a negative entry, or a sum more than 1e-9 from 1 (NaN fails both).

    Checks every row of a stack in one pass, so a caller that holds all of
    an utterance's posteriors checks them once.
    """
    if not (p.min() >= 0 and np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-9):
        raise ValueError("posterior must be a probability vector")


def weighted_spp(posterior: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Speech presence probability per bin: sum_i p_i rho_ik.

    Mixes the per-component dominance ``rho`` from :func:`speech_dominance`
    with a component posterior p, the classifier's or the generative one,
    which :func:`check_posteriors` has accepted; it is not checked here.  A
    probability vector and ``rho`` in [0, 1] keep every sum non-negative,
    but the rounding of a sum of terms that add to 1 can land just above 1,
    so only the upper end is clamped.

    Shapes (m,) and (m, K) give (K,); a batch (B, 1, m) and (B, m, K)
    gives (B, 1, K), and a block (T, B, 1, m) and (T, B, m, K) gives
    (T, B, 1, K), one ``matmul``, which rounds as the single frame does.
    """
    spp = np.matmul(posterior, rho)
    return np.minimum(spp, 1.0, out=spp)


def weighted_mmse(
    z: np.ndarray,
    posterior: np.ndarray,
    rho: np.ndarray,
    below: np.ndarray,
) -> np.ndarray:
    """Posterior-weighted MMSE estimate of the clean log-spectrum.

    Per component the estimate keeps the observation where speech dominates
    and falls back to the truncated-Gaussian mean where noise does:
    x̂ = sum_i p_i (rho_i z + (1 - rho_i) E[X | X < z, i]), with ``rho``
    from :func:`speech_dominance` and ``below`` from
    :func:`conditional_mean_below` (Nádas, Nahamoo & Picheny, IEEE TASSP
    1989).  The posterior is not checked here, as in :func:`weighted_spp`,
    which gives the SPP of the same posterior and ``rho``.  Shapes as in
    :func:`weighted_spp`, with ``z`` (K,), (B, 1, K) or (T, B, 1, K).

    The per-component terms are formed in place, in the order of
    ``rho z + (1 - rho) below``, so they round as that expression does.
    """
    per_component = np.multiply(rho, z)
    rest = np.subtract(1.0, rho)
    rest *= below
    per_component += rest
    return np.matmul(posterior, per_component)


def soft_subtract(z: np.ndarray, spp: np.ndarray, beta: float) -> np.ndarray:
    """Soft spectral subtraction in the log domain: z − (1−rho)·β.

    Fully speech-dominated bins pass through untouched; fully noise-dominated
    bins are attenuated by the flat reduction level β (natural-log units).
    The result is formed in place as z + (rho−1)·β, one array and no
    temporary; negation is exact, so it rounds as the formula above.
    """
    z = np.asarray(z, dtype=np.float64)
    rho = np.asarray(spp, dtype=np.float64)
    if z.shape != rho.shape:
        raise ValueError("observation and SPP lengths differ")
    if beta < 0:
        raise ValueError("noise-reduction level must be >= 0")
    out = np.subtract(rho, 1.0)
    out *= beta
    out += z
    return out
