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


def gaussian_pdf_cdf(x, mu, sigma, *, out=None):
    """Gaussian density and cumulative distribution at ``x`` for mean ``mu``
    and std-dev ``sigma``, from one standardization.

    The density is formed in place, in the order of
    ``exp(-0.5 * z * z) / (sqrt(2 pi) * sigma)``, so it rounds as that
    expression does.  Without ``out`` every array is fresh.  ``out`` is a
    workspace ``(z, pdf, cdf, scale)`` of float64 arrays: the first three of
    the broadcast shape, ``scale`` of ``sigma``'s.  The results are then
    written into ``pdf`` and ``cdf`` and returned, and nothing is allocated.
    """
    z, pdf, cdf, scale = (None, None, None, None) if out is None else out
    # Output arrays are named positionally, the cheapest form of a numpy
    # call; in-place steps use operators, which also serve 0-d results.
    z = np.subtract(x, mu, z, dtype=np.float64)
    z /= sigma
    pdf = np.multiply(-0.5, z, pdf)
    pdf *= z
    pdf = np.exp(pdf, pdf if pdf.ndim else None)  # a 0-d result has no buffer
    pdf /= np.multiply(_SQRT_2PI, sigma, scale)
    return pdf, ndtr(z, cdf)


def log_gaussian_pdf(x, mu, sigma):
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - _LOG_SQRT_2PI
