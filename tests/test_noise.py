"""Noise model initialization and SPP-gated recursive adaptation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nnmm.gauss import SIGMA_FLOOR
from nnmm.noise import NoiseModel, adapt, check_observations, check_spp, init_from_prefix


class TestInit:
    def test_prefix_statistics(self):
        """Init equals the sample mean and unbiased std of the prefix."""
        rng = np.random.default_rng(0)
        frames = rng.normal(-3.0, 0.8, (40, 16))
        model = init_from_prefix(frames)
        np.testing.assert_allclose(model.mu, frames.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(model.sigma, frames.std(axis=0, ddof=1), rtol=1e-12)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="insufficient noise-only prefix"):
            init_from_prefix(np.zeros((1, 8)))

    def test_sigma_floor(self):
        model = init_from_prefix(np.zeros((5, 4)))
        np.testing.assert_allclose(model.sigma, SIGMA_FLOOR)


class TestAdapt:
    def test_matches_recursion_formula(self):
        """One update reproduces the two-stage smoothing recursion exactly."""
        rng = np.random.default_rng(1)
        k = 12
        model = NoiseModel(mu=rng.normal(0, 1, k), sigma=rng.uniform(0.5, 2.0, k))
        z = rng.normal(0, 2, k)
        rho = rng.uniform(0, 1, k)
        alpha = 0.1

        out = adapt(model, z, rho, alpha)
        mu_exp = rho * model.mu + (1 - rho) * (alpha * z + (1 - alpha) * model.mu)
        sigma_exp = rho * model.sigma + (1 - rho) * (
            alpha * np.abs(z - mu_exp) + (1 - alpha) * model.sigma
        )
        np.testing.assert_allclose(out.mu, mu_exp, rtol=1e-12)
        np.testing.assert_allclose(out.sigma, np.maximum(sigma_exp, SIGMA_FLOOR), rtol=1e-12)

    def test_speech_bins_frozen(self):
        model = NoiseModel(mu=np.array([1.0, 1.0]), sigma=np.array([0.5, 0.5]))
        out = adapt(model, np.array([9.0, 9.0]), np.array([1.0, 1.0]), 0.2)
        np.testing.assert_allclose(out.mu, model.mu)
        np.testing.assert_allclose(out.sigma, model.sigma)

    def test_noise_bins_converge_to_constant_input(self):
        """Repeated noise-only updates pull the mean onto the observation."""
        model = NoiseModel(mu=np.zeros(3), sigma=np.ones(3))
        z = np.full(3, 4.0)
        rho = np.zeros(3)
        for _ in range(200):
            model = adapt(model, z, rho, 0.1)
        np.testing.assert_allclose(model.mu, 4.0, atol=1e-6)

    def test_geometric_approach_rate(self):
        """With rho=0 the gap to a level shift shrinks by (1-alpha) per frame."""
        model = NoiseModel(mu=np.zeros(1), sigma=np.ones(1))
        z = np.ones(1)
        gaps = []
        for _ in range(5):
            model = adapt(model, z, np.zeros(1), 0.1)
            gaps.append(float(1.0 - model.mu[0]))
        ratios = np.diff(np.log(gaps))
        np.testing.assert_allclose(np.exp(ratios), 0.9, rtol=1e-10)

    def test_alpha_range_checked(self):
        model = NoiseModel(mu=np.zeros(2), sigma=np.ones(2))
        with pytest.raises(ValueError, match="alpha"):
            adapt(model, np.zeros(2), np.zeros(2), 1.0)

    def test_spp_range_checked(self):
        model = NoiseModel(mu=np.zeros(2), sigma=np.ones(2))
        with pytest.raises(ValueError, match="SPP"):
            adapt(model, np.zeros(2), np.array([0.5, 1.5]), 0.1)

    def test_nan_spp_rejected(self):
        """A NaN SPP is reported as such, not later as non-finite noise."""
        model = NoiseModel(mu=np.zeros(2), sigma=np.ones(2))
        with pytest.raises(ValueError, match="SPP"):
            adapt(model, np.zeros(2), np.array([0.5, np.nan]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_observation_rejected(self, bad):
        """The result is not re-checked, so the frame is checked instead."""
        model = NoiseModel(mu=np.zeros(3), sigma=np.ones(3))
        with pytest.raises(ValueError, match="observation must be finite"):
            adapt(model, np.array([0.0, bad, 1.0]), np.array([0.0, 1.0, 0.5]), 0.1)


@st.composite
def adapt_cases(draw):
    """A noise model, a finite frame, an SPP in [0, 1] and alpha in (0, 1)."""
    k = draw(st.integers(1, 16))

    def vec(lo, hi):
        return draw(arrays(np.float64, k, elements=st.floats(lo, hi)))

    model = NoiseModel(mu=vec(-50.0, 50.0), sigma=vec(SIGMA_FLOOR, 10.0))
    return model, vec(-100.0, 100.0), vec(0.0, 1.0), draw(st.floats(1e-3, 1.0 - 1e-3))


class TestAdaptProperties:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(adapt_cases())
    def test_equals_textbook_recursion(self, case):
        """Bit for bit the two-stage recursion, sigma floored, on fresh
        arrays: the inputs come back unmodified."""
        model, z, rho, alpha = case
        inputs = (model.mu, model.sigma, z, rho)
        before = [a.copy() for a in inputs]

        out = adapt(model, z, rho, alpha)

        mu = rho * model.mu + (1.0 - rho) * (alpha * z + (1.0 - alpha) * model.mu)
        sigma = rho * model.sigma + (1.0 - rho) * (
            alpha * np.abs(z - mu) + (1.0 - alpha) * model.sigma
        )
        np.testing.assert_array_equal(out.mu, mu)
        np.testing.assert_array_equal(out.sigma, np.maximum(sigma, SIGMA_FLOOR))
        assert np.all(out.sigma >= SIGMA_FLOOR)
        for a, b in zip(inputs, before):
            np.testing.assert_array_equal(a, b)
        assert not any(np.shares_memory(o, a) for o in (out.mu, out.sigma) for a in inputs)


class TestAdaptWorkspace:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data(), rows=st.sampled_from([None, 1, 3]), k=st.integers(1, 16))
    def test_equals_allocating_form(self, data, rows, k):
        """Written into a spare model and scratch arrays, one (K,) model or a
        batch of (B, 1, K) ones, the update equals the allocating form bit
        for bit, returns the spare model, and leaves the inputs unmodified."""
        shape = (k,) if rows is None else (rows, 1, k)

        def vec(lo, hi):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        model = NoiseModel(mu=vec(-50.0, 50.0), sigma=vec(SIGMA_FLOOR, 10.0))
        z, rho = vec(-100.0, 100.0), vec(0.0, 1.0)
        alpha = data.draw(st.floats(1e-3, 1.0 - 1e-3))
        inputs = (model.mu, model.sigma, z, rho)
        before = [a.copy() for a in inputs]

        want = adapt(model, z, rho, alpha)
        into = NoiseModel(mu=np.full(shape, 7.0), sigma=np.full(shape, 7.0))
        got = adapt(model, z, rho, alpha,
                    out=(into, np.full(shape, np.nan), np.full(shape, np.nan)))
        assert got is into
        np.testing.assert_array_equal(got.mu, want.mu)
        np.testing.assert_array_equal(got.sigma, want.sigma)
        for a, b in zip(inputs, before):
            np.testing.assert_array_equal(a, b)


class TestChecks:
    def test_spp_checked_over_any_shape(self):
        check_spp(np.zeros((4, 2, 1, 3)))
        for bad in (1.5, -0.1, np.nan):
            spp = np.zeros((4, 2, 1, 3))
            spp[3, 1, 0, 2] = bad
            with pytest.raises(ValueError, match=r"SPP values must lie in \[0, 1\]"):
                check_spp(spp)

    def test_observations_checked_over_any_shape(self):
        check_observations(np.zeros((4, 2, 1, 3)))
        for bad in (np.nan, np.inf, -np.inf):
            z = np.zeros((4, 2, 1, 3))
            z[2, 0, 0, 1] = bad
            with pytest.raises(ValueError, match="observation must be finite"):
                check_observations(z)
