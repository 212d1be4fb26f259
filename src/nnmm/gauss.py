"""Scalar Gaussian density helpers used by the speech, noise and mixture models.

All functions broadcast over numpy arrays.  CDFs go through ``scipy.special``
erf-based routines, which are accurate to well below 1e-12 absolute error,
and the log density stays finite far into the tails where the plain density
underflows.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

# Smallest admissible standard deviation (log-magnitude units).  Training and
# adaptation clamp here so likelihoods never degenerate.
SIGMA_FLOOR = 1e-3

# Densities are floored here before taking logs.
DENSITY_FLOOR = 1e-300

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def gaussian_pdf_cdf(x, mu, sigma):
    """Gaussian density and cumulative distribution at ``x`` for mean ``mu``
    and std-dev ``sigma``, from one standardization.

    The density is formed in place on one fresh array, in the order of
    ``exp(-0.5 * z * z) / (sqrt(2 pi) * sigma)``, so it rounds as that
    expression does.
    """
    z = np.subtract(x, mu, dtype=np.float64)
    z /= sigma
    pdf = np.multiply(-0.5, z)
    pdf *= z
    pdf = np.exp(pdf, pdf if pdf.ndim else None)  # a 0-d result has no buffer
    pdf /= _SQRT_2PI * sigma
    return pdf, ndtr(z)


def normalize_log_scores(scores):
    """Log-domain scores to probabilities along the last axis, in place.

    Subtracts each row's maximum before exponentiating, so the largest term
    is exactly 1 and nothing overflows, then divides by the row's sum;
    ``scores`` is overwritten and returned.
    """
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def log_gaussian_pdf(x, mu, sigma):
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - _LOG_SQRT_2PI
