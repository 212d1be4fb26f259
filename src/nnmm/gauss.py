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


def gaussian_pdf_cdf(x, mu, sigma):
    """Gaussian density and cumulative distribution at ``x`` for mean ``mu``
    and std-dev ``sigma``, from one standardization."""
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * sigma), ndtr(z)


def log_gaussian_pdf(x, mu, sigma):
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - _LOG_SQRT_2PI
