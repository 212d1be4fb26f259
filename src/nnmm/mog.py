"""Clean-speech model: a mixture of diagonal Gaussians over log-spectra.

Each component is meant to represent one phoneme class.  The supervised
trainer computes per-class moments directly from labeled frames; the EM
trainer is the unsupervised baseline used for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gauss import DENSITY_FLOOR, SIGMA_FLOOR, log_gaussian_pdf, normalize_log_scores


@dataclass(frozen=True)
class PhonemeMog:
    """Mixture weights plus per-bin means and std-devs, shapes (m,), (m, K), (m, K)."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        sd = np.asarray(self.stds, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "stds", sd)
        if mu.ndim != 2 or mu.shape != sd.shape or w.shape != (mu.shape[0],):
            raise ValueError("inconsistent mixture shapes")
        for name, a in (("weights", w), ("means", mu), ("std-devs", sd)):
            if not np.isfinite(a).all():
                raise ValueError(f"mixture {name} must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if np.any(sd < SIGMA_FLOOR):
            raise ValueError(f"std-devs must be >= {SIGMA_FLOOR}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"c{i}" for i in range(mu.shape[0])))
        elif len(self.labels) != mu.shape[0]:
            raise ValueError("one label per component required")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def n_bins(self) -> int:
        return self.means.shape[1]


def train_supervised(
    logspecs: np.ndarray,
    class_indices: np.ndarray,
    n_classes: int,
) -> PhonemeMog:
    """Per-class sample moments of labeled log-spectral frames.

    Means are sample means, variances are unbiased (divisor N_i - 1), and
    weights are the relative class frequencies.  Every class must occur at
    least twice.
    """
    x = np.asarray(logspecs, dtype=np.float64)
    y = np.asarray(class_indices)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("logspecs and class_indices lengths differ")

    counts = np.bincount(y, minlength=n_classes)
    for i, c in enumerate(counts):
        if c < 2:
            raise ValueError(f"class {i}: needs at least 2 frames, got {c}")

    m, k = n_classes, x.shape[1]
    means = np.zeros((m, k))
    stds = np.zeros((m, k))
    for i in range(m):
        xi = x[y == i]
        means[i] = xi.mean(axis=0)
        stds[i] = np.sqrt(xi.var(axis=0, ddof=1))
    return PhonemeMog(
        weights=counts / counts.sum(),
        means=means,
        stds=np.maximum(stds, SIGMA_FLOOR),
    )


def train_em(
    logspecs: np.ndarray,
    n_components: int,
    iterations: int = 20,
    seed: int = 0,
) -> PhonemeMog:
    """Unsupervised diagonal-covariance mixture fit by EM.

    Deterministic given the seed.  Components are seeded k-means++ style
    from a data subsample; a component whose responsibility mass collapses
    is re-seeded from a random frame.  Variances are maximum-likelihood
    (responsibility-weighted, no Bessel correction).
    """
    if n_components < 1:
        raise ValueError(f"n_components must be at least 1, got {n_components}")
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    x = np.asarray(logspecs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < n_components:
        raise ValueError("need at least one frame per component")
    n, k = x.shape
    m = n_components
    rng = np.random.default_rng(seed)

    means = _kmeanspp_seeds(x, m, rng)
    stds = np.tile(np.maximum(x.std(axis=0, ddof=0), SIGMA_FLOOR), (m, 1))
    weights = np.full(m, 1.0 / m)

    for _ in range(iterations):
        # E-step in the log domain with max-subtraction.
        resp = normalize_log_scores(frame_log_joints(PhonemeMog(weights, means, stds), x))

        mass = resp.sum(axis=0)
        for i in np.flatnonzero(mass < 1e-8):
            means[i] = x[rng.integers(n)]
            stds[i] = np.maximum(x.std(axis=0, ddof=0), SIGMA_FLOOR)
            resp[:, i] = 1.0 / n
            mass = resp.sum(axis=0)

        weights = mass / mass.sum()
        means = (resp.T @ x) / mass[:, None]
        second = (resp.T @ (x * x)) / mass[:, None]
        stds = np.maximum(np.sqrt(np.maximum(second - means**2, 0.0)), SIGMA_FLOOR)

    return PhonemeMog(weights=weights, means=means, stds=stds)


def frame_log_joints(mog: PhonemeMog, logspecs: np.ndarray) -> np.ndarray:
    """log(c_i) + log-density of each frame under component i, shape (N, m)."""
    x = np.asarray(logspecs, dtype=np.float64)
    logp = np.stack(
        [log_gaussian_pdf(x, mog.means[i], mog.stds[i]).sum(axis=1) for i in range(mog.n_components)],
        axis=1,
    )
    return logp + np.log(np.maximum(mog.weights, DENSITY_FLOOR))


def classify_frames(mog: PhonemeMog, logspecs: np.ndarray) -> np.ndarray:
    """Most probable component per frame under the clean-speech mixture.

    This is the purely generative classifier: no noise model, no feature
    context — each log-spectral frame is scored on its own.
    """
    return np.argmax(frame_log_joints(mog, logspecs), axis=1)


def _kmeanspp_seeds(x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    sub = x[rng.choice(x.shape[0], size=min(x.shape[0], 2048), replace=False)]
    seeds = [sub[rng.integers(sub.shape[0])]]
    for _ in range(m - 1):
        d2 = np.min(
            np.stack([((sub - s) ** 2).sum(axis=1) for s in seeds], axis=1), axis=1
        )
        if d2.sum() <= 0:
            seeds.append(sub[rng.integers(sub.shape[0])])
            continue
        seeds.append(sub[rng.choice(sub.shape[0], p=d2 / d2.sum())])
    return np.array(seeds)
