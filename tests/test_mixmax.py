"""Max-model densities, dominance probabilities, conditional means, estimators.

The closed forms are checked three independent ways: Simpson quadrature for
density normalization, finite differences of the product CDF for the density
formula, and rejection sampling for the conditional expectations.  The
estimators are driven the way the enhancer drives them: ``speech_terms``
forms the speech side, ``speech_dominance`` adds the noise side and forms
``(rho, h)`` once, and the posterior, SPP and MMSE estimate reuse it; a
posterior is checked by ``check_posteriors`` before ``weighted_spp`` or
``weighted_mmse`` weights it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import log_ndtr, ndtr

from nnmm.gauss import DENSITY_FLOOR, SIGMA_FLOOR, gaussian_pdf_cdf
from nnmm.mixmax import (
    check_posteriors,
    conditional_mean_below,
    generative_posterior,
    soft_subtract,
    speech_dominance,
    speech_terms,
    weighted_mmse,
    weighted_spp,
)
from nnmm.mog import PhonemeMog
from nnmm.noise import NoiseModel

from oracles import density_integral, mc_max_window, mc_truncated_mean


def single_mog(mu, sigma):
    """One-component model over len(mu) bins."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    return PhonemeMog(weights=np.array([1.0]), means=mu[None, :], stds=sigma[None, :])


def noise_of(mu, sigma):
    return NoiseModel(mu=np.atleast_1d(np.asarray(mu, dtype=float)),
                      sigma=np.atleast_1d(np.asarray(sigma, dtype=float)))


def dominance(z, mog, noise, counts=None):
    """speech_dominance of one frame, with its speech side formed first."""
    return speech_dominance(z, speech_terms(z, mog), noise, counts)


def density_of_max(z, mu_x, sigma_x, mu_y, sigma_y):
    """The ``h`` of speech_dominance at every point of ``z``, for a
    one-component mixture N(mu_x, sigma_x) against noise N(mu_y, sigma_y):
    each point is one bin, and the parameters broadcast over them."""
    z = np.asarray(z, dtype=float)
    mog = single_mog(np.broadcast_to(mu_x, z.shape), np.broadcast_to(sigma_x, z.shape))
    noise = noise_of(np.broadcast_to(mu_y, z.shape), np.broadcast_to(sigma_y, z.shape))
    return dominance(z, mog, noise)[1][0]


def textbook_density(z, mog, noise):
    """f G + F g per component and bin, written out from np.exp and ndtr."""
    def pdf_cdf(mu, sigma):
        a = (z - mu) / sigma
        return np.exp(-0.5 * a * a) / (np.sqrt(2.0 * np.pi) * sigma), ndtr(a)

    f, big_f = pdf_cdf(mog.means, mog.stds)
    g, big_g = pdf_cdf(noise.mu, noise.sigma)
    return f * big_g + big_f * g


def truncated(z, mog, counts=None):
    """conditional_mean_below of frames ``z``, with their speech side formed
    first."""
    return conditional_mean_below(z, speech_terms(z, mog), mog, counts)


def posterior_at(z, mog, noise):
    """Generative posterior from the density that speech_dominance forms."""
    _, h = dominance(z, mog, noise)
    return generative_posterior(h, mog)


def spp_of(p, rho):
    """The SPP as the enhancer forms it: the posterior checked, then
    weighted."""
    check_posteriors(p)
    return weighted_spp(p, rho)


def mmse_at(z, p, mog, noise):
    """MMSE estimate from the per-frame terms, as the enhancer forms them:
    the posterior checked, then weighted."""
    check_posteriors(p)
    rho, _ = dominance(z, mog, noise)
    return weighted_mmse(z, p, rho, truncated(z, mog))


# ---------------------------------------------------------------------------
# Density of the elementwise max
# ---------------------------------------------------------------------------


class TestMaxDensity:
    def test_noise_free_limit_reduces_to_speech_density(self):
        """With the noise far below, h collapses onto the clean density f."""
        z = np.linspace(-3, 3, 41)
        h = density_of_max(z, 0.0, 1.0, -40.0, 0.5)
        f = np.exp(-0.5 * z**2) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(h, f, rtol=1e-6)

    def test_identical_pair_gives_2fF(self):
        z = np.linspace(-2, 4, 25)
        h = density_of_max(z, 1.0, 0.7, 1.0, 0.7)
        f = np.exp(-0.5 * ((z - 1) / 0.7) ** 2) / (0.7 * np.sqrt(2 * np.pi))
        big_f = ndtr((z - 1.0) / 0.7)
        np.testing.assert_allclose(h, 2 * f * big_f, rtol=1e-12)

    def test_integrates_to_one(self):
        """Quadrature over a wide grid: the max of two Gaussians is a density."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            mx, my = rng.uniform(-4, 4, 2)
            sx, sy = rng.uniform(0.3, 3.0, 2)
            lo = min(mx - 12 * sx, my - 12 * sy)
            hi = max(mx + 12 * sx, my + 12 * sy)
            total = density_integral(lambda z: density_of_max(z, mx, sx, my, sy), lo, hi)
            assert abs(total - 1.0) < 1e-5

    def test_is_derivative_of_product_cdf(self):
        """h(z) must equal d/dz [F(z) G(z)] (max CDF), by central differences."""
        rng = np.random.default_rng(8)
        eps = 1e-5
        for _ in range(10):
            mx, my = rng.uniform(-2, 2, 2)
            sx, sy = rng.uniform(0.4, 2.0, 2)
            z = rng.uniform(-3, 3, 15)
            fd = (
                ndtr((z + eps - mx) / sx) * ndtr((z + eps - my) / sy)
                - ndtr((z - eps - mx) / sx) * ndtr((z - eps - my) / sy)
            ) / (2 * eps)
            np.testing.assert_allclose(density_of_max(z, mx, sx, my, sy), fd,
                                       rtol=1e-6, atol=1e-12)

    def test_mixture_density_integrates_to_one(self):
        """Sum of weighted per-component max densities is itself a density."""
        mog = PhonemeMog(weights=np.array([0.3, 0.7]),
                         means=np.array([[0.0], [2.5]]),
                         stds=np.array([[0.8], [1.4]]))
        noise = noise_of([0.5], [1.1])

        def mixture(z):
            out = np.zeros_like(z)
            for i in range(2):
                out += mog.weights[i] * density_of_max(
                    z, mog.means[i, 0], mog.stds[i, 0], noise.mu[0], noise.sigma[0])
            return out

        total = density_integral(mixture, -20.0, 25.0)
        assert abs(total - 1.0) < 1e-5

    def test_dominance_density_shapes_and_log_joint(self):
        """speech_dominance's h is f G + F g per component; the generative
        posterior is the normalized weight times the product of its bins."""
        rng = np.random.default_rng(6)
        mog = PhonemeMog(weights=np.array([0.3, 0.7]),
                         means=rng.normal(0, 1, (2, 4)), stds=rng.uniform(0.5, 1.5, (2, 4)))
        noise = noise_of(rng.normal(0, 1, 4), rng.uniform(0.5, 1.5, 4))
        z = rng.normal(0, 1, 4)
        _, h = dominance(z, mog, noise)
        assert h.shape == (2, 4)
        np.testing.assert_allclose(h, textbook_density(z, mog, noise), rtol=1e-12)
        joint = mog.weights * np.prod(h, axis=1)
        np.testing.assert_allclose(generative_posterior(h, mog), joint / joint.sum(),
                                   rtol=1e-12)

    def test_frame_stack_matches_single_frames(self):
        """The speech side and the truncated mean of a stack of frames equal
        the per-frame results row by row, fallback counts included."""
        rng = np.random.default_rng(8)
        mog = PhonemeMog(weights=np.array([0.2, 0.3, 0.5]),
                         means=rng.normal(0, 1, (3, 5)), stds=rng.uniform(0.5, 1.5, (3, 5)))
        zs = rng.normal(0, 2, (4, 5))
        zs[2, 1] = -60.0  # deep lower tail: conditional_mean_below falls back
        f, big_f = speech_terms(zs, mog)
        stack_counts, frame_counts = np.zeros(4, np.int64), np.zeros(4, np.int64)
        below = conditional_mean_below(zs, (f, big_f), mog, stack_counts)
        assert f.shape == big_f.shape == below.shape == (4, 3, 5)
        for t, z in enumerate(zs):
            f_t, big_f_t = speech_terms(z, mog)
            np.testing.assert_array_equal(f[t], f_t)
            np.testing.assert_array_equal(big_f[t], big_f_t)
            np.testing.assert_array_equal(
                below[t], conditional_mean_below(z, (f_t, big_f_t), mog, frame_counts[t, ...]))
        np.testing.assert_array_equal(stack_counts, frame_counts)
        assert frame_counts[2] > 0


# ---------------------------------------------------------------------------
# Generative posterior
# ---------------------------------------------------------------------------


class TestGenerativePosterior:
    def test_single_component_is_certain(self):
        mog = single_mog([0.0, 1.0], [1.0, 1.0])
        noise = noise_of([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(posterior_at(np.zeros(2), mog, noise), [1.0])

    def test_z_at_far_separated_component_mean(self):
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=np.array([[0.0, 0.0], [30.0, 30.0]]),
                         stds=np.ones((2, 2)))
        noise = noise_of([-5.0, -5.0], [1.0, 1.0])
        p = posterior_at(np.array([30.0, 30.0]), mog, noise)
        assert p[1] > 0.99

    def test_symmetric_components_give_uniform(self):
        mog = PhonemeMog(weights=np.array([0.25, 0.25, 0.5]),
                         means=np.zeros((3, 2)), stds=np.ones((3, 2)))
        noise = noise_of(np.zeros(2), np.ones(2))
        p = posterior_at(np.ones(2), mog, noise)
        np.testing.assert_allclose(p[0], p[1], rtol=1e-12)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(9)
        mog = PhonemeMog(weights=np.full(4, 0.25),
                         means=rng.normal(0, 2, (4, 8)),
                         stds=rng.uniform(0.5, 2, (4, 8)))
        noise = noise_of(rng.normal(0, 1, 8), rng.uniform(0.5, 2, 8))
        for _ in range(5):
            p = posterior_at(rng.normal(0, 3, 8), mog, noise)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p >= 0)

    def test_nan_frame_posterior_rejected_by_spp(self):
        """A NaN observation gives a NaN posterior, which the SPP refuses."""
        mog = single_mog([0.0], [1.0])
        rho, h = dominance(np.array([np.nan]), mog, noise_of([0.0], [1.0]))
        with pytest.raises(ValueError, match="probability vector"):
            spp_of(generative_posterior(h, mog), rho)


# ---------------------------------------------------------------------------
# Speech dominance
# ---------------------------------------------------------------------------


class TestSpeechDominance:
    def test_identical_distributions_are_coin_flips(self):
        mog = single_mog(np.zeros(5), np.ones(5))
        noise = noise_of(np.zeros(5), np.ones(5))
        rho, _ = dominance(np.linspace(-2, 2, 5), mog, noise)
        np.testing.assert_allclose(rho, 0.5, rtol=1e-12)

    def test_speech_far_above_noise_dominates(self):
        mog = single_mog([0.0], [1.0])
        noise = noise_of([-30.0], [1.0])
        rho, _ = dominance(np.array([0.5]), mog, noise)
        np.testing.assert_allclose(rho, 1.0, atol=1e-12)

    def test_noise_far_above_speech_dominates(self):
        mog = single_mog([-30.0], [1.0])
        noise = noise_of([0.0], [1.0])
        rho, _ = dominance(np.array([0.5]), mog, noise)
        np.testing.assert_allclose(rho, 0.0, atol=1e-12)

    def test_monte_carlo_rejection_oracle(self):
        """Closed form matches empirical P(Y<X | max in window) within 3 SE."""
        rng = np.random.default_rng(10)
        mog = single_mog([1.0], [1.2])
        noise = noise_of([0.0], [0.9])
        for z in [-0.5, 0.5, 1.5, 2.5]:
            est = mc_max_window(rng, 400_000, 1.0, 1.2, 0.0, 0.9, z, 0.02)
            rho = dominance(np.array([z]), mog, noise)[0][0, 0]
            assert abs(rho - est["p_dominance"]) < 3 * est["p_se"], (
                f"z={z}: closed {rho:.4f} vs mc {est['p_dominance']:.4f}"
            )

    def test_undecidable_bin_flagged(self):
        """Where both densities underflow the bin reports exactly one half."""
        mog = single_mog([0.0], [1.0])
        noise = noise_of([0.0], [1.0])
        counts = np.zeros((), np.int64)
        rho, _ = dominance(np.array([60.0]), mog, noise, counts)
        assert rho[0, 0] == 0.5
        assert counts == 1

    def test_mixed_frame_takes_the_masked_formula(self):
        """A frame where some bins underflow: 0.5 exactly there, f G / h
        elsewhere, and only the underflowing bins are counted."""
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 40.0]]),
                         stds=np.ones((2, 4)))
        noise = noise_of(np.zeros(4), np.ones(4))
        z = np.array([0.3, 60.0, -1.0, 45.0])
        f, big_f = speech_terms(z, mog)
        g, big_g = gaussian_pdf_cdf(z, noise.mu, noise.sigma)
        numer, h_exp = f * big_g, f * big_g + big_f * g
        und = h_exp < DENSITY_FLOOR
        np.testing.assert_array_equal(und, [[False, True, False, True],
                                            [False, True, False, False]])

        counts = np.zeros((), np.int64)
        rho, h = speech_dominance(z, (f, big_f), noise, counts)
        np.testing.assert_array_equal(h, h_exp)
        np.testing.assert_array_equal(rho, np.where(und, 0.5, numer / np.where(und, 1.0, h_exp)))
        assert counts == 3

        # the same bins without the underflowing ones take the common path
        keep = [0, 2]
        counts = np.zeros((), np.int64)
        rho, _ = speech_dominance(z[keep], (f[:, keep], big_f[:, keep]),
                                  noise_of(np.zeros(2), np.ones(2)), counts)
        np.testing.assert_array_equal(rho, numer[:, keep] / h_exp[:, keep])
        assert counts == 0

    def test_range_always_valid(self):
        rng = np.random.default_rng(11)
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=rng.normal(0, 3, (2, 6)),
                         stds=rng.uniform(0.3, 2, (2, 6)))
        noise = noise_of(rng.normal(0, 3, 6), rng.uniform(0.3, 2, 6))
        for _ in range(20):
            rho, _ = dominance(rng.normal(0, 5, 6), mog, noise)
            assert np.all(rho >= 0) and np.all(rho <= 1)


# ---------------------------------------------------------------------------
# Conditional mean below the observation
# ---------------------------------------------------------------------------


class TestConditionalMean:
    def test_at_the_mean(self):
        """Cut at mu: mean of the lower half-Gaussian is mu - sigma*sqrt(2/pi)."""
        mog = single_mog([2.0], [1.5])
        out = truncated(np.array([2.0]), mog)
        np.testing.assert_allclose(out[0, 0], 2.0 - 1.5 * np.sqrt(2 / np.pi), rtol=1e-12)

    def test_inactive_truncation(self):
        mog = single_mog([1.0], [0.5])
        out = truncated(np.array([1.0 + 10 * 0.5]), mog)
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-6)

    def test_monte_carlo_truncation_oracle(self):
        rng = np.random.default_rng(12)
        for mu, sigma, z in [(0.5, 1.3, 1.0), (-1.0, 0.7, -1.5), (2.0, 2.0, 0.0)]:
            mc_mean, se = mc_truncated_mean(rng, 400_000, mu, sigma, z)
            closed = truncated(np.array([z]), single_mog([mu], [sigma]))[0, 0]
            assert abs(closed - mc_mean) < 3 * se, f"({mu},{sigma},{z})"

    def test_always_below_cut(self):
        rng = np.random.default_rng(13)
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=rng.normal(0, 2, (2, 9)),
                         stds=rng.uniform(0.3, 2, (2, 9)))
        for _ in range(30):
            z = rng.normal(0, 6, 9)
            out = truncated(z, mog)
            assert np.all(out < z[None, :])

    def test_deep_tail_fallback(self):
        """Once F underflows, the asymptote z + sigma^2 / (z - mu) is
        substituted and counted."""
        mog = single_mog([0.0], [1.0])
        counts = np.zeros((), np.int64)
        out = truncated(np.array([-40.0]), mog, counts)
        np.testing.assert_allclose(out[0, 0], -40.025)
        assert counts == 1

    def test_near_tail_still_analytic(self):
        """Just above the underflow cliff the analytic f / F path is used."""
        mog = single_mog([0.0], [1.0])
        counts = np.zeros((), np.int64)
        out = truncated(np.array([-30.0]), mog, counts)
        assert counts == 0
        # asymptotic inverse Mills ratio: lambda(-a) ~ a + 1/a
        expected = -30.0 - 1.0 / (30.0 + 1.0 / 30.0)
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-3)
        assert out[0, 0] < -30.0

    def test_fallback_cliff(self):
        """On a grid of 200,001 points over a in [-37.1, -37.0] the fallback
        takes exactly the points below the cliff at a = -37.047, where F
        reaches the density floor: the points the log-domain test
        log F(a) < log(DENSITY_FLOOR) selects.  Below it the result is the
        asymptote z + sigma^2 / (z - mu), above it the analytic mean, and
        the two meet at the cliff to within 2e-3 sigma."""
        mog = single_mog([0.0], [1.0])
        z = np.linspace(-37.1, -37.0, 200_001)
        counts = np.zeros((), np.int64)
        out = truncated(z, mog, counts)[0]
        fallback = out == z + 1.0 / z
        n = int(counts)
        assert fallback[:n].all() and not fallback[n:].any()
        np.testing.assert_array_equal(fallback, log_ndtr(z) < np.log(DENSITY_FLOOR))
        assert z[n - 1] < -37.04709 and z[n] > -37.04710
        # just above the cliff: a + 1/a - 2/a^3, the asymptotic series
        np.testing.assert_allclose(out[n:], z[n:] + 1.0 / z[n:] - 2.0 / z[n:] ** 3, rtol=1e-7)
        assert abs(out[n] - out[n - 1]) <= 2e-3

    @staticmethod
    def _model_and_frames(data, t, b, m, k):
        def vec(shape, lo, hi):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        weights = vec(m, 0.01, 1.0)
        mog = PhonemeMog(weights=weights / weights.sum(), means=vec((m, k), -10.0, 10.0),
                         stds=vec((m, k), SIGMA_FLOOR, 3.0))
        zs = vec((t, b, k), -80.0, 30.0)
        zs[0, 0, 0] = -1e3  # deep tail in every example: a fallback
        if zs.size > 1:  # and one bin 30 standard deviations below a component mean
            zs[-1, -1, -1] = mog.means[0, -1] - 30.0 * mog.stds[0, -1]
        return mog, zs

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), t=st.integers(1, 4), b=st.integers(1, 3), m=st.integers(1, 4),
           k=st.integers(1, 6))
    def test_in_place_equals_textbook(self, data, t, b, m, k):
        """The in-place kernel equals the plain expressions bit for bit on a
        (T, B, K) stack, fallbacks and per-frame counts included, and leaves
        its inputs as they were."""
        mog, zs = self._model_and_frames(data, t, b, m, k)
        f, big_f = speech_terms(zs, mog)
        inputs = [zs, f, big_f, mog.weights, mog.means, mog.stds]
        before = [a.copy() for a in inputs]

        # the textbook expressions
        z = zs[..., np.newaxis, :]
        a = (z - mog.means) / mog.stds
        f_plain = np.exp(-0.5 * a * a) / (np.sqrt(2.0 * np.pi) * mog.stds)
        big_f_plain = ndtr(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = mog.means - mog.stds**2 * f_plain / big_f_plain
        with np.errstate(divide="ignore", over="ignore"):  # read only where fallback
            asymptote = z + mog.stds**2 / (z - mog.means)
        fallback = (big_f_plain < DENSITY_FLOOR) | ~np.isfinite(mean)
        expected = np.where(fallback, asymptote, mean)

        counts = np.zeros((t, b), np.int64)
        np.testing.assert_array_equal(conditional_mean_below(zs, (f, big_f), mog, counts),
                                      expected)
        np.testing.assert_array_equal(counts, fallback.sum(axis=(2, 3)))
        assert counts[0, 0] > 0
        for got, want in zip(inputs, before):
            np.testing.assert_array_equal(got, want)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), t=st.integers(1, 4), b=st.integers(1, 3), m=st.integers(1, 4),
           k=st.integers(1, 6))
    def test_matches_log_domain(self, data, t, b, m, k):
        """Outside the fallback the f / F form agrees with the log-domain
        form exp(log f - log F), kept here as an oracle, to 1e-12 relative
        on the Mills term sigma f / F.  The term is read back as
        (mu - result) / sigma, which adds the rounding of mu - result; the
        absolute slack covers that, and only that."""
        mog, zs = self._model_and_frames(data, t, b, m, k)
        got = truncated(zs, mog)

        z = zs[..., np.newaxis, :]
        a = (z - mog.means) / mog.stds
        log_cdf = log_ndtr(a)
        outside = log_cdf >= np.log(DENSITY_FLOOR)
        mills = np.exp(-0.5 * a * a - 0.5 * np.log(2.0 * np.pi) - log_cdf)
        read_back = (mog.means - got) / mog.stds
        slack = 4 * np.spacing(np.maximum(np.abs(mog.means), np.abs(got))) / mog.stds
        err = np.abs(read_back - mills)
        assert np.all((err <= 1e-12 * mills + slack)[outside])
        assert outside.sum() < outside.size  # the deep-tail bin falls back


# ---------------------------------------------------------------------------
# MMSE estimator
# ---------------------------------------------------------------------------


class TestMmse:
    def test_negligible_noise_passes_observation(self):
        mog = single_mog([0.0, 1.0], [1.0, 1.0])
        noise = noise_of([-40.0, -40.0], [0.5, 0.5])
        z = np.array([0.3, 0.8])
        out = mmse_at(z, np.array([1.0]), mog, noise)
        np.testing.assert_allclose(out, z, atol=1e-6)

    def test_one_hot_posterior_reduces_to_single_component(self):
        rng = np.random.default_rng(14)
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=rng.normal(0, 1, (2, 5)),
                         stds=rng.uniform(0.5, 1.5, (2, 5)))
        noise = noise_of(rng.normal(0, 1, 5), rng.uniform(0.5, 1.5, 5))
        z = rng.normal(0, 2, 5)
        rho, _ = dominance(z, mog, noise)
        below = truncated(z, mog)
        expected = rho[1] * z + (1 - rho[1]) * below[1]
        out = weighted_mmse(z, np.array([0.0, 1.0]), rho, below)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_never_exceeds_observation(self):
        rng = np.random.default_rng(15)
        mog = PhonemeMog(weights=np.array([0.4, 0.6]),
                         means=rng.normal(0, 2, (2, 7)),
                         stds=rng.uniform(0.3, 2, (2, 7)))
        noise = noise_of(rng.normal(0, 2, 7), rng.uniform(0.3, 2, 7))
        for _ in range(25):
            z = rng.normal(0, 5, 7)
            p = rng.dirichlet([1, 1])
            out = mmse_at(z, p, mog, noise)
            assert np.all(out <= z + 1e-9)

    def test_scalar_monte_carlo_oracle(self):
        """Windowed rejection sampling of E[X | max(X,Y) near z], m=1."""
        rng = np.random.default_rng(16)
        mog = single_mog([0.0], [1.0])
        noise = noise_of([0.5], [0.8])
        for z in [0.2, 1.0, 2.0]:
            est = mc_max_window(rng, 400_000, 0.0, 1.0, 0.5, 0.8, z, 0.02)
            closed = mmse_at(np.array([z]), np.array([1.0]), mog, noise)[0]
            assert abs(closed - est["mean_x"]) < 3 * est["mean_x_se"], f"z={z}"

    def test_bad_posterior_rejected(self):
        mog = single_mog([0.0], [1.0])
        noise = noise_of([0.0], [1.0])
        with pytest.raises(ValueError, match="probability"):
            mmse_at(np.zeros(1), np.array([0.4]), mog, noise)


# ---------------------------------------------------------------------------
# Hybrid SPP and soft subtraction
# ---------------------------------------------------------------------------


class TestHybridSpp:
    def test_all_dominant_gives_one(self):
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=np.zeros((2, 3)), stds=np.ones((2, 3)))
        noise = noise_of(np.full(3, -35.0), np.ones(3))
        rho, _ = dominance(np.zeros(3), mog, noise)
        spp = spp_of(np.array([0.3, 0.7]), rho)
        np.testing.assert_allclose(spp, 1.0, atol=1e-12)

    def test_one_hot_selects_component_row(self):
        rng = np.random.default_rng(17)
        mog = PhonemeMog(weights=np.array([0.5, 0.5]),
                         means=rng.normal(0, 1, (2, 4)),
                         stds=rng.uniform(0.5, 1.5, (2, 4)))
        noise = noise_of(rng.normal(0, 1, 4), rng.uniform(0.5, 1.5, 4))
        z = rng.normal(0, 2, 4)
        rho, _ = dominance(z, mog, noise)
        np.testing.assert_allclose(spp_of(np.array([1.0, 0.0]), rho), rho[0], rtol=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(18)
        m, k = 4, 6
        mog = PhonemeMog(weights=np.full(m, 1 / m),
                         means=rng.normal(0, 1, (m, k)),
                         stds=rng.uniform(0.5, 1.5, (m, k)))
        noise = noise_of(rng.normal(0, 1, k), rng.uniform(0.5, 1.5, k))
        z = rng.normal(0, 2, k)
        p = rng.dirichlet(np.ones(m))

        rho, _ = dominance(z, mog, noise)
        naive = np.zeros(k)
        for kk in range(k):
            for i in range(m):
                naive[kk] += p[i] * rho[i, kk]
        np.testing.assert_allclose(spp_of(p, rho), naive, rtol=1e-12)

    def test_bad_posterior_rejected(self):
        """A posterior that sums to more than 1 is refused.  (A posterior of
        the wrong length is refused by the enhancer: see
        ``tests/test_enhancer.py::TestContracts::test_mismatched_classifier_rejected``.)"""
        rho = np.full((2, 3), 0.5)
        with pytest.raises(ValueError, match="probability"):
            spp_of(np.array([0.7, 0.7]), rho)

    def test_nan_posterior_rejected(self):
        """NaN compares False both ways, so it must fail the check, not pass
        it and turn every SPP bin into NaN."""
        rho = np.full((3, 4), 0.5)
        with pytest.raises(ValueError, match="probability"):
            spp_of(np.array([np.nan, 0.5, 0.5]), rho)


class TestSoftSubtract:
    def test_full_presence_passes(self):
        z = np.array([1.0, -2.0])
        np.testing.assert_allclose(soft_subtract(z, np.ones(2), 2.5), z)

    def test_full_absence_subtracts_beta(self):
        z = np.array([1.0, -2.0])
        np.testing.assert_allclose(soft_subtract(z, np.zeros(2), 2.5), z - 2.5)

    def test_halfway(self):
        np.testing.assert_allclose(soft_subtract(np.array([3.0]), np.array([0.5]), 2.0), [2.0])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(19)
        z = rng.normal(0, 2, 8)
        rho = rng.uniform(0, 1, 8)
        a = soft_subtract(z + 1.7, rho, 2.5)
        b = soft_subtract(z, rho, 2.5) + 1.7
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            soft_subtract(np.zeros(2), np.zeros(2), -1.0)


# ---------------------------------------------------------------------------
# Per-frame invariants over random models
# ---------------------------------------------------------------------------


@st.composite
def frame_cases(draw):
    """A random mixture, noise model (sigma >= SIGMA_FLOOR), observation z,
    and an external component posterior."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))

    def vec(shape, lo, hi):
        return draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

    weights = vec(m, 0.01, 1.0)
    mog = PhonemeMog(weights=weights / weights.sum(),
                     means=vec((m, k), -10.0, 10.0),
                     stds=vec((m, k), SIGMA_FLOOR, 5.0))
    noise = NoiseModel(mu=vec(k, -10.0, 10.0), sigma=vec(k, SIGMA_FLOOR, 5.0))
    p = vec(m, 0.01, 1.0)
    return mog, noise, vec(k, -30.0, 30.0), p / p.sum()


class TestKernelProperties:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(frame_cases())
    def test_per_frame_invariants(self, case):
        mog, noise, z, p_ext = case
        counts = np.zeros((), np.int64)
        rho, h = dominance(z, mog, noise, counts)
        assert np.all((rho >= 0) & (rho <= 1))
        np.testing.assert_allclose(h, textbook_density(z, mog, noise), rtol=1e-12)

        p_gen = generative_posterior(h, mog)
        assert np.all(p_gen >= 0)
        assert abs(p_gen.sum() - 1.0) < 1e-9

        below = truncated(z, mog, counts)
        for p in (p_gen, p_ext):
            spp = spp_of(p, rho)
            assert np.all((spp >= 0) & (spp <= 1))
            xhat = weighted_mmse(z, p, rho, below)
            assert np.all(xhat <= z + 1e-9)


# ---------------------------------------------------------------------------
# Fallback counts
# ---------------------------------------------------------------------------


class TestFallbackCounts:
    @pytest.mark.parametrize("lead", [(), (2,), (3, 2)], ids=["frame", "batch", "block"])
    def test_counts_take_the_leading_axes(self, lead):
        """The counts of speech_dominance and conditional_mean_below have
        the leading axes of their (..., m, K) result: () for one frame,
        (B,) for a batch and (T, B) for a block under one noise model.
        Each entry is what that frame alone counts, and a second call adds
        to it."""
        rng = np.random.default_rng(21)
        m, k = 3, 6
        mog = PhonemeMog(weights=np.array([0.2, 0.3, 0.5]), means=rng.normal(0, 1, (m, k)),
                         stds=rng.uniform(0.5, 1.5, (m, k)))
        z = rng.normal(0, 2, lead + (k,))
        z[rng.random(z.shape) < 0.3] = 1e3  # h underflows
        z[rng.random(z.shape) < 0.2] = -1e3  # h and F underflow
        rows = lead[-1:]
        noise = NoiseModel(mu=rng.normal(0, 1, rows + (1,) * len(rows) + (k,)),
                           sigma=rng.uniform(0.5, 1.5, rows + (1,) * len(rows) + (k,)))
        frames = z if not lead else z[..., np.newaxis, :]
        speech = speech_terms(z, mog)

        undecidable, tail = np.zeros(lead, np.int64), np.zeros(lead, np.int64)
        for _ in range(2):
            speech_dominance(frames, speech, noise, undecidable)
            conditional_mean_below(z, speech, mog, tail)

        want_undecidable, want_tail = np.zeros(lead, np.int64), np.zeros(lead, np.int64)
        for at in np.ndindex(*lead):
            row = noise if not lead else NoiseModel(mu=noise.mu[at[-1], 0],
                                                    sigma=noise.sigma[at[-1], 0])
            frame_speech = speech_terms(z[at], mog)
            speech_dominance(z[at], frame_speech, row, want_undecidable[at + (...,)])
            conditional_mean_below(z[at], frame_speech, mog, want_tail[at + (...,)])
        assert undecidable.shape == tail.shape == lead
        np.testing.assert_array_equal(undecidable, 2 * want_undecidable)
        np.testing.assert_array_equal(tail, 2 * want_tail)
        assert want_tail.min() < want_tail.max() or not lead  # entries differ
        assert want_undecidable.min() > 0 and want_tail.sum() > 0
        with pytest.raises(TypeError):  # a scalar entry would drop the count
            speech_dominance(z[at], frame_speech, row, want_undecidable[at])


# ---------------------------------------------------------------------------
# In-place kernels against their plain expressions
# ---------------------------------------------------------------------------


class TestInPlaceKernels:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(data=st.data(), layout=st.sampled_from(["frame", "batch", "block"]),
           m=st.integers(1, 4), k=st.integers(1, 6))
    def test_equal_to_plain_expressions(self, data, layout, m, k):
        """speech_dominance, weighted_spp and weighted_mmse, formed in
        place, give the plain expressions' results bit for bit, with one
        fallback count per underflowing bin, at one frame (K,), a batch
        (B, 1, K) and a block (T, B, 1, K); every example has a bin whose
        density underflows, and the inputs come back unmodified."""
        def vec(shape, lo, hi):
            return data.draw(arrays(np.float64, shape, elements=st.floats(lo, hi)))

        b = data.draw(st.integers(1, 3))
        frame = {"frame": (k,), "batch": (b, 1, k),
                 "block": (data.draw(st.integers(1, 3)), b, 1, k)}[layout]
        weights = vec(m, 0.01, 1.0)
        mog = PhonemeMog(weights=weights / weights.sum(), means=vec((m, k), -10.0, 10.0),
                         stds=vec((m, k), SIGMA_FLOOR, 3.0))
        noise = NoiseModel(mu=vec(frame[-3:], -10.0, 10.0),
                           sigma=vec(frame[-3:], SIGMA_FLOOR, 3.0))
        z = vec(frame, -30.0, 30.0)
        z.flat[0] = 1e3  # far above both sides: h underflows in that bin
        f, big_f = speech_terms(z if layout == "frame" else z[..., 0, :], mog)
        p = vec(frame[:-1] + (m,), 0.01, 1.0)
        p /= p.sum(axis=-1, keepdims=True)
        below = conditional_mean_below(z if layout == "frame" else z[..., 0, :], (f, big_f), mog)
        inputs = [z, f, big_f, noise.mu, noise.sigma, p, below]
        before = [a.copy() for a in inputs]

        # the plain expressions
        a = (z - noise.mu) / noise.sigma
        g, big_g = np.exp(-0.5 * a * a) / (np.sqrt(2.0 * np.pi) * noise.sigma), ndtr(a)
        want_h = big_f * g + f * big_g
        undecidable = want_h < DENSITY_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):  # read only where decidable
            want_rho = np.where(undecidable, 0.5, f * big_g / want_h)
        want_spp = np.minimum(p @ want_rho, 1.0)
        want_xhat = p @ (want_rho * z + (1.0 - want_rho) * below)

        counts = np.zeros(frame[:-2], np.int64)  # (), (B,) or (T, B)
        rho, h = speech_dominance(z, (f, big_f), noise, counts)
        np.testing.assert_array_equal(rho, want_rho)
        np.testing.assert_array_equal(h, want_h)
        np.testing.assert_array_equal(counts, undecidable.sum(axis=(-2, -1)))
        assert counts.flat[0] > 0
        np.testing.assert_array_equal(weighted_spp(p, rho), want_spp)
        np.testing.assert_array_equal(weighted_mmse(z, p, rho, below), want_xhat)
        for got, want in zip(inputs, before):
            np.testing.assert_array_equal(got, want)
