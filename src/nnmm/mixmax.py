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
combines both sides into ``(rho, h)``, with the same code as
:func:`max_density`.  :func:`generative_posterior`, :func:`hybrid_spp` and
:func:`mmse_estimate` take those results instead of recomputing them.
The enhancer calls exactly these functions, except that it checks all
posteriors at once and then calls the unchecked weighted sums
:func:`weighted_spp` and :func:`weighted_mmse`, which the two checked
functions wrap; so the quadrature and Monte-Carlo checks of this module
verify the production path.

The functions the enhancer calls also take a batch of frames, one per
enhancer row: ``z`` and the noise model of shape (B, 1, K), the
per-component arrays (B, m, K) and the posteriors (B, 1, m).  Counters then
go to a list of diagnostics, one per row.  With the noise model fixed they
also take a block of T such frames, a leading T axis on ``z``, the
per-component arrays and the posteriors; the noise model stays (B, 1, K)
and broadcasts.  All functions are pure, apart from those counters and the
``out`` workspaces a caller hands them; models are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .gauss import _LOG_SQRT_2PI, DENSITY_FLOOR, gaussian_pdf_cdf
from .mog import PhonemeMog
from .noise import NoiseModel

LOG_DENSITY_FLOOR = np.log(DENSITY_FLOOR)


@dataclass
class MixmaxDiagnostics:
    """Counters for the rare numerical fallbacks taken during enhancement."""

    undecidable_bins: int = 0
    tail_fallbacks: int = 0

    @property
    def total(self) -> int:
        return self.undecidable_bins + self.tail_fallbacks


def _per_row(diag: MixmaxDiagnostics | list[MixmaxDiagnostics], mask: np.ndarray):
    """Pairs of diagnostics and the number of True entries of ``mask`` it
    takes.

    One ``MixmaxDiagnostics`` takes them all.  A list holds one per batch
    row, and axis -3 of ``mask``, the axis before a frame's (m, K), indexes
    the rows; every other axis is summed.
    """
    rows = diag if isinstance(diag, list) else [diag]
    stacked = mask.reshape(-1, len(rows), *mask.shape[-2:])
    return zip(rows, np.count_nonzero(stacked, axis=(0, 2, 3)).tolist())


# ---------------------------------------------------------------------------
# elementwise max-of-Gaussians density
# ---------------------------------------------------------------------------

def _max_terms(speech, z, mu_y, sigma_y, out=None):
    """The two terms of the max density, f(z) G(z) and F(z) g(z).

    ``speech`` is the pair (f, F) from :func:`gaussian_pdf_cdf` on the
    speech side.  ``out`` is :func:`speech_dominance`'s workspace.
    """
    f, big_f = speech
    noise_side, speech_term, noise_term = (None, None, None) if out is None else out
    g, big_g = gaussian_pdf_cdf(z, mu_y, sigma_y, out=noise_side)
    return np.multiply(f, big_g, speech_term), np.multiply(big_f, g, noise_term)


def max_density(z, mu_x, sigma_x, mu_y, sigma_y):
    """Density of max(X, Y) for independent Gaussians; broadcasts freely."""
    speech, noise = _max_terms(gaussian_pdf_cdf(z, mu_x, sigma_x), z, mu_y, sigma_y)
    return speech + noise


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
    diag: MixmaxDiagnostics | list[MixmaxDiagnostics] | None = None,
    *,
    out: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """P(speech exceeds noise | observation, component) and the max density.

    ``speech`` is :func:`speech_terms` of the same frame ``z``.  Returns
    ``(rho, h)``, both of shape (m, K), or (B, m, K) for a batch, or
    (T, B, m, K) for a block of T batched frames under one noise model:
    ``h`` is :func:`max_density` for every component and bin, the one place
    the per-frame densities are combined.  Bins where ``h`` itself underflows
    carry no information either way; their ``rho`` comes back as 0.5 and is
    counted in ``diag``.

    One ``h.min()`` test picks the path.  When no bin underflows, ``rho`` is
    ``f G / h`` with no further check: ``f G <= h`` and both are
    non-negative, so it already lies in [0, 1].  Only a frame (or block)
    with an underflowing bin builds the mask, counts its bins and clips;
    clipping leaves the other bins' ``f G / h`` as they are, so a block
    rounds as its frames do one at a time.

    Without ``out`` every array is fresh.  ``out`` is a workspace
    ``(noise_side, numer, h)``: ``noise_side`` is the workspace of
    :func:`gaussian_pdf_cdf` for ``z`` against the noise model, and ``numer``
    and ``h`` are float64 arrays of the result's shape.  ``h`` and, unless a
    bin underflows, ``rho`` are then returned in ``h`` and ``numer``, and
    nothing is allocated.
    """
    numer, h = _max_terms(speech, np.asarray(z, dtype=np.float64), noise.mu, noise.sigma, out)
    np.add(h, numer, h)
    if h.min() < DENSITY_FLOOR:
        undecidable = h < DENSITY_FLOOR
        if diag is not None:
            for d, n in _per_row(diag, undecidable):
                d.undecidable_bins += n
        rho = np.where(undecidable, 0.5, numer / np.where(undecidable, 1.0, h))
        return np.clip(rho, 0.0, 1.0), h
    np.divide(numer, h, numer)
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
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores, out=scores)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def conditional_mean_below(
    z: np.ndarray,
    mog: PhonemeMog,
    diag: MixmaxDiagnostics | list[MixmaxDiagnostics] | None = None,
) -> np.ndarray:
    """E[X_k | X_k < z_k, component i] for all i, k; shape (..., m, K).

    ``z`` is one log-spectrum (K,) or a stack of them (..., K).  The
    inverse Mills ratio f/F is evaluated as exp(log f − log F) so the deep
    lower tail stays finite.  Once F itself drops below the density floor
    the asymptote z − σ is used instead (counted in ``diag``); either way
    the result sits strictly below z.

    Formed in place on three fresh arrays, in the order of
    ``a = (z - mu) / sigma``, ``ratio = exp(-0.5 * a * a - log sqrt(2 pi)
    - log F(a))`` and ``mu - sigma * ratio``, so it rounds as those
    expressions do.
    """
    z = np.asarray(z, dtype=np.float64)[..., np.newaxis, :]
    a = np.subtract(z, mog.means)
    a /= mog.stds
    log_cdf = log_ndtr(a)
    fallback = log_cdf < LOG_DENSITY_FLOOR
    # log of the standard normal pdf at a, shifted by -log sigma for the
    # actual density; the sigma^2 * f/F term then reduces to sigma * ratio.
    ratio = np.multiply(-0.5, a)
    ratio *= a
    ratio -= _LOG_SQRT_2PI
    ratio -= log_cdf
    with np.errstate(over="ignore"):
        np.exp(ratio, out=ratio)
    ratio *= mog.stds
    mean = np.subtract(mog.means, ratio, out=ratio)

    fallback |= ~np.isfinite(mean)
    if diag is not None:
        for d, n in _per_row(diag, fallback):
            d.tail_fallbacks += n
    return np.subtract(z, mog.stds, out=mean, where=fallback)


def check_posteriors(p: np.ndarray) -> None:
    """Reject posteriors that are not probability vectors along the last
    axis: a negative entry, or a sum more than 1e-9 from 1 (NaN fails both).

    Checks every row of a stack in one pass, so a caller that holds all of
    an utterance's posteriors checks them once.
    """
    if not (p.min() >= 0 and np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-9):
        raise ValueError("posterior must be a probability vector")


def _check_posterior(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (rho.shape[0],):
        raise ValueError("posterior length must match component count")
    check_posteriors(p)
    return p


def weighted_spp(posterior: np.ndarray, rho: np.ndarray, *, out=None) -> np.ndarray:
    """:func:`hybrid_spp` without the posterior check.

    Shapes (m,) and (m, K) give (K,); a batch (B, 1, m) and (B, m, K)
    gives (B, 1, K), and a block (T, B, 1, m) and (T, B, m, K) gives
    (T, B, 1, K), one ``matmul``, which rounds as the single frame does.
    With ``out``, a float64 array of the result's shape, the SPP is written
    there.
    """
    spp = np.matmul(posterior, rho, out)
    return np.minimum(spp, 1.0, out=spp)


def weighted_mmse(
    z: np.ndarray,
    posterior: np.ndarray,
    rho: np.ndarray,
    below: np.ndarray,
    *,
    out: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mmse_estimate` without the posterior check; shapes as in
    :func:`weighted_spp`, with ``z`` (K,), (B, 1, K) or (T, B, 1, K).

    ``out`` is a workspace ``(xhat, spp, per_component, rest)``: the two
    results, and two float64 arrays of ``rho``'s shape for the
    per-component estimate; nothing is then allocated."""
    xhat, spp, per_component, rest = (None, None, None, None) if out is None else out
    spp = weighted_spp(posterior, rho, out=spp)
    per_component = np.multiply(rho, z, per_component)
    rest = np.subtract(1.0, rho, rest)
    np.multiply(rest, below, rest)
    np.add(per_component, rest, per_component)
    return np.matmul(posterior, per_component, xhat), spp


def mmse_estimate(
    z: np.ndarray,
    posterior: np.ndarray,
    rho: np.ndarray,
    below: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior-weighted MMSE estimate of the clean log-spectrum and the
    SPP, both length K.

    Per component the estimate keeps the observation where speech dominates
    and falls back to the truncated-Gaussian mean where noise does:
    x̂ = rho·z + (1−rho)·E[X | X < z], with ``rho`` from
    :func:`speech_dominance` and ``below`` from :func:`conditional_mean_below`.
    The second result is the SPP, :func:`hybrid_spp` of the same posterior
    and ``rho``.  The posterior is checked once, as :func:`hybrid_spp`
    checks it.
    """
    p = _check_posterior(posterior, rho)
    return weighted_mmse(np.asarray(z, dtype=np.float64), p, rho, below)


def hybrid_spp(p_nn: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Speech presence probability per bin: posterior-weighted dominance.

    Mixes the per-component dominance ``rho`` from :func:`speech_dominance`
    with a component posterior, either the discriminative classifier's or
    the generative one.  The posterior is checked here.  A valid posterior
    and ``rho >= 0`` make every sum non-negative, so only the upper end is
    clamped, against rounding above 1.
    """
    return weighted_spp(_check_posterior(p_nn, rho), rho)


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
