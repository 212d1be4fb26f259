"""Supervised and EM mixture training over log-spectral frames."""

import numpy as np
import pytest
from scipy.special import logsumexp

from nnmm.gauss import SIGMA_FLOOR
from nnmm.mog import (
    PhonemeMog,
    classify_frames,
    frame_log_joints,
    train_em,
    train_supervised,
)


def two_cluster_data(rng, n_per=200, k=6, gap=8.0):
    a = rng.normal(0.0, 1.0, (n_per, k))
    b = rng.normal(gap, 1.5, (n_per, k))
    x = np.vstack([a, b])
    labels = np.repeat([0, 1], n_per)
    return x, labels


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


class TestPhonemeMog:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            PhonemeMog(weights=np.array([0.5, 0.2]),
                       means=np.zeros((2, 3)), stds=np.ones((2, 3)))

    def test_sigma_floor_enforced(self):
        with pytest.raises(ValueError, match="0.001"):
            PhonemeMog(weights=np.array([1.0]),
                       means=np.zeros((1, 3)), stds=np.full((1, 3), 1e-9))

    @pytest.mark.parametrize("field,value", [
        ("weights", np.array([np.nan, 0.5, 0.5])),
        ("weights", np.array([np.inf, 0.5, 0.5])),
        ("means", np.full((3, 4), np.nan)),
        ("means", np.array([[0.0, -np.inf, 0.0, 0.0]] * 3)),
        ("stds", np.full((3, 4), np.inf)),
        ("stds", np.array([[1.0, 1.0, np.nan, 1.0]] * 3)),
    ])
    def test_non_finite_parameter_rejected(self, field, value):
        """A NaN passes every comparison with a bound and a mean has no
        bound, so finiteness is checked for each field on its own."""
        params = {"weights": np.full(3, 1 / 3), "means": np.zeros((3, 4)),
                  "stds": np.ones((3, 4)), field: value}
        name = "std-devs" if field == "stds" else field
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PhonemeMog(**params)

    def test_default_labels(self):
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=np.zeros((2, 3)), stds=np.ones((2, 3)))
        assert mog.labels == ("c0", "c1")


# ---------------------------------------------------------------------------
# Supervised training
# ---------------------------------------------------------------------------


class TestSupervised:
    def test_matches_per_class_numpy_statistics(self):
        """Means, unbiased stds and priors equal direct per-class numpy calls."""
        rng = np.random.default_rng(0)
        x, labels = two_cluster_data(rng)
        mog = train_supervised(x, labels, 2)
        for i in range(2):
            cls = x[labels == i]
            np.testing.assert_allclose(mog.means[i], cls.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(mog.stds[i], cls.std(axis=0, ddof=1), rtol=1e-12)
        np.testing.assert_allclose(mog.weights, [0.5, 0.5])

    def test_class_with_one_frame_rejected(self):
        x = np.zeros((3, 4))
        labels = np.array([0, 0, 1])
        with pytest.raises(ValueError, match="class 1: needs at least 2 frames"):
            train_supervised(x, labels, 2)

    def test_sigma_floor_applied(self):
        x = np.zeros((10, 2))
        labels = np.zeros(10, dtype=int)
        x[:, 1] = np.arange(10)
        mog = train_supervised(x, labels, 1)
        assert mog.stds[0, 0] == SIGMA_FLOOR

    def test_custom_labels_kept(self):
        rng = np.random.default_rng(1)
        x, labels = two_cluster_data(rng, n_per=10)
        mog = train_supervised(x, labels, 2)
        assert mog.labels == ("c0", "c1")
        named = PhonemeMog(weights=mog.weights, means=mog.means, stds=mog.stds,
                           labels=("aa", "iy"))
        assert named.labels == ("aa", "iy")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestClassify:
    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(2)
        x, labels = two_cluster_data(rng)
        mog = train_supervised(x, labels, 2)
        assert np.mean(classify_frames(mog, x) == labels) > 0.999

    def test_log_joints_match_direct_formula(self):
        rng = np.random.default_rng(3)
        x, labels = two_cluster_data(rng, n_per=20, k=3)
        mog = train_supervised(x, labels, 2)
        lj = frame_log_joints(mog, x)
        # direct dense evaluation of log c + sum_k log N
        for i in range(2):
            manual = np.log(mog.weights[i]) + np.sum(
                -0.5 * ((x - mog.means[i]) / mog.stds[i]) ** 2
                - np.log(mog.stds[i]) - 0.5 * np.log(2 * np.pi),
                axis=1,
            )
            np.testing.assert_allclose(lj[:, i], manual, rtol=1e-10)


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


class TestEm:
    def test_likelihood_nondecreasing_overall(self):
        """More EM iterations should not hurt the data likelihood."""
        rng = np.random.default_rng(4)
        x, _ = two_cluster_data(rng)
        short = train_em(x, 2, iterations=2, seed=9)
        long = train_em(x, 2, iterations=25, seed=9)
        def log_likelihood(mog):
            return logsumexp(frame_log_joints(mog, x), axis=1).sum()

        assert log_likelihood(long) >= log_likelihood(short) - 1e-6

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(5)
        x, labels = two_cluster_data(rng, gap=12.0)
        mog = train_em(x, 2, iterations=30, seed=0)
        pred = classify_frames(mog, x)
        acc = np.mean(pred == labels)
        assert max(acc, 1 - acc) > 0.999  # component order is arbitrary

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x, _ = two_cluster_data(rng, n_per=60)
        a = train_em(x, 3, iterations=10, seed=42)
        b = train_em(x, 3, iterations=10, seed=42)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.stds, b.stds)
        assert np.array_equal(a.weights, b.weights)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="at least one frame per component"):
            train_em(np.zeros((2, 4)), 3)

