"""End-to-end acceptance checks.

Each test is one release criterion; `pytest -v` prints one pass/fail line
per criterion.  Tolerances and runtime budgets are asserted inside the
tests, and the Monte-Carlo references use their own sampling code (see
oracles.py), not the closed forms under test.
"""

import time

import numpy as np
import pytest
from oracles import density_integral, mc_mixture_max_window

from nnmm.corpus import (
    SyntheticCorpusSpec,
    assemble_frames,
    default_envelopes,
    mix_at_snr,
    step_white_noise,
    synthesize_corpus,
    white_noise,
)
from nnmm.dsp import Waveform, edge_padding, istft, stft
from nnmm.enhancer import EnhancerConfig, enhance_mixmax_original, enhance_utterance
from nnmm.metrics import segmental_snr
from nnmm.mixmax import (
    check_posteriors,
    conditional_mean_below,
    generative_posterior,
    speech_dominance,
    speech_terms,
    weighted_mmse,
    weighted_spp,
)
from nnmm.mog import PhonemeMog, classify_frames, train_supervised
from nnmm.nn import (
    _gradient_arrays,
    _log_likelihood_arrays,
    classify_accuracy,
    init_classifier,
    train,
)
from nnmm.noise import NoiseModel, adapt
from nnmm.serialize import ModelBundle, load_bundle, save_bundle


def clean_utterance(seed, seconds=(1.2, 1.8), silence=6000):
    """One fresh clean utterance with a silent lead-in for noise estimation."""
    w = synthesize_corpus(
        SyntheticCorpusSpec(envelopes=default_envelopes(5),
                            utterance_seconds=seconds, seed=seed),
        1,
    )[0].waveform
    return Waveform(samples=np.concatenate([np.zeros(silence), w.samples]),
                    sample_rate=w.sample_rate)


@pytest.fixture(scope="module")
def trained():
    """Seeded 5-class corpus split by utterance, with both models trained.

    The training split is capped at 2000 frames; the classifier is a
    32-hidden-unit net.  Shared by the training-sanity, enhancement, and
    determinism criteria.
    """
    spec = SyntheticCorpusSpec(envelopes=default_envelopes(5),
                               utterance_seconds=(1.2, 2.0), seed=42)
    utts = synthesize_corpus(spec, 14)
    tr_logs, tr_feats, tr_labels = assemble_frames(utts[:10], 512)
    te_logs, te_feats, te_labels = assemble_frames(utts[10:], 512)
    tr_logs, tr_feats, tr_labels = tr_logs[:2000], tr_feats[:2000], tr_labels[:2000]

    t0 = time.monotonic()
    mog = train_supervised(tr_logs, tr_labels, 5)
    net, _ = train(tr_feats, tr_labels, 5, n_hidden=32, epochs=15, seed=7)
    train_time = time.monotonic() - t0
    return {
        "mog": mog, "net": net, "train_time": train_time,
        "test": (te_logs, te_feats, te_labels),
    }


@pytest.fixture(scope="module")
def scalar_mc():
    """Windowed Monte-Carlo reference for a two-component scalar model.

    For 20 observation points z, draws 10^6 (X, Y) pairs and keeps those
    with max(X, Y) within z +/- 0.01, recording the conditional mean of X
    and the empirical speech-dominance probability with standard errors.
    """
    weights = np.array([0.6, 0.4])
    mus = np.array([-1.0, 1.5])
    sigmas = np.array([0.8, 1.2])
    mu_y, sigma_y = 0.3, 1.0

    mog = PhonemeMog(weights=weights, means=mus[:, None], stds=sigmas[:, None])
    noise = NoiseModel(mu=np.array([mu_y]), sigma=np.array([sigma_y]))

    rng = np.random.default_rng(20260816)
    t0 = time.monotonic()
    records = []
    for z in np.linspace(-1.0, 3.5, 20):
        mc = mc_mixture_max_window(rng, 10**6, weights, mus, sigmas,
                                   mu_y, sigma_y, z, delta=0.01)
        records.append((float(z), mc))
    elapsed = time.monotonic() - t0
    return {"mog": mog, "noise": noise, "records": records, "mc_time": elapsed}


# ---------------------------------------------------------------------------
# 1-3: closed-form max-model math against independent numerics
# ---------------------------------------------------------------------------


def test_c01_max_model_density_integrates_to_one():
    """100 random scalar configurations: quadrature of the density is 1+/-1e-5.

    The density is the ``h`` that ``speech_dominance`` forms for the
    enhancer, here for a one-component mixture against the noise, with each
    quadrature point one bin."""
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0

    def density(g, mu_x, sigma_x, mu_y, sigma_y):
        mog = PhonemeMog(weights=np.ones(1), means=np.full((1, len(g)), mu_x),
                         stds=np.full((1, len(g)), sigma_x))
        noise = NoiseModel(mu=np.full(len(g), mu_y), sigma=np.full(len(g), sigma_y))
        return speech_dominance(g, speech_terms(g, mog), noise)[1][0]

    for _ in range(100):
        mu_x, mu_y = rng.uniform(-5, 5, 2)
        sigma_x, sigma_y = rng.uniform(0.1, 3.0, 2)
        span = 12 * max(sigma_x, sigma_y)
        total = density_integral(
            lambda g: density(g, mu_x, sigma_x, mu_y, sigma_y),
            min(mu_x, mu_y) - span,
            max(mu_x, mu_y) + span,
        )
        worst = max(worst, abs(total - 1.0))
        assert abs(total - 1.0) < 1e-5
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"
    print(f"worst |integral - 1| = {worst:.2e}, {elapsed:.2f} s")


def test_c02_weighted_mmse_matches_monte_carlo(scalar_mc):
    """Closed-form E[X | Z=z] within 3 SE of the windowed MC estimate."""
    mog, noise = scalar_mc["mog"], scalar_mc["noise"]
    assert scalar_mc["mc_time"] < 60.0
    for z, mc in scalar_mc["records"]:
        zv = np.array([z])
        speech = speech_terms(zv, mog)
        rho, h = speech_dominance(zv, speech, noise)
        posterior = generative_posterior(h, mog)
        check_posteriors(posterior)
        xhat = weighted_mmse(zv, posterior, rho, conditional_mean_below(zv, speech, mog))
        closed = xhat[0]
        assert mc["n"] > 500, f"window at z={z} too empty for a meaningful SE"
        assert abs(closed - mc["mean_x"]) < 3 * mc["mean_x_se"], (
            f"z={z}: closed {closed:.4f}, mc {mc['mean_x']:.4f} "
            f"+/- {mc['mean_x_se']:.4f}"
        )


def test_c03_speech_dominance_matches_monte_carlo(scalar_mc):
    """Posterior-weighted dominance within 3 SE of empirical P(Y < X | window)."""
    mog, noise = scalar_mc["mog"], scalar_mc["noise"]
    assert scalar_mc["mc_time"] < 60.0
    for z, mc in scalar_mc["records"]:
        zv = np.array([z])
        rho, h = speech_dominance(zv, speech_terms(zv, mog), noise)
        posterior = generative_posterior(h, mog)
        check_posteriors(posterior)
        closed = float(weighted_spp(posterior, rho)[0])
        assert abs(closed - mc["p_dominance"]) < 3 * mc["p_se"], (
            f"z={z}: closed {closed:.4f}, mc {mc['p_dominance']:.4f} "
            f"+/- {mc['p_se']:.4f}"
        )


# ---------------------------------------------------------------------------
# 4-5: classifier training
# ---------------------------------------------------------------------------


def test_c04_gradient_matches_central_differences():
    """50 random weight coordinates on a 16-sample batch, rel. error < 1e-4.

    Checks the gradient and log-likelihood functions that ``train`` runs."""
    rng = np.random.default_rng(4)
    net = init_classifier(20, 4, n_hidden=12, seed=11)
    inputs = rng.normal(size=(16, 20))
    targets = rng.integers(0, 4, size=16)
    g1, g2 = _gradient_arrays(net.w1, net.w2, inputs, targets)
    eps = 1e-5

    def ll(w1, w2):
        return _log_likelihood_arrays(w1, w2, inputs, targets)

    for _ in range(50):
        which = rng.integers(0, 2)
        w = (net.w1 if which == 0 else net.w2).copy()
        idx = (rng.integers(0, w.shape[0]), rng.integers(0, w.shape[1]))
        analytic = (g1 if which == 0 else g2)[idx]

        w_hi, w_lo = w.copy(), w.copy()
        w_hi[idx] += eps
        w_lo[idx] -= eps
        if which == 0:
            fd = (ll(w_hi, net.w2) - ll(w_lo, net.w2)) / (2 * eps)
        else:
            fd = (ll(net.w1, w_hi) - ll(net.w1, w_lo)) / (2 * eps)
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)
        assert rel < 1e-4, f"coordinate {which}:{idx}: rel error {rel:.2e}"


def test_c05_classifier_beats_generative_baseline(trained):
    """Held-out accuracy >= 90% and at least the per-frame generative model."""
    te_logs, te_feats, te_labels = trained["test"]
    assert trained["train_time"] < 120.0

    nn_acc = classify_accuracy(trained["net"], te_feats, te_labels)
    mog_acc = float(np.mean(classify_frames(trained["mog"], te_logs) == te_labels))
    print(f"held-out accuracy: classifier {nn_acc:.3f}, generative {mog_acc:.3f}")
    assert nn_acc >= 0.90, f"classifier accuracy {nn_acc:.3f} < 0.90"
    assert mog_acc <= nn_acc, (
        f"generative baseline {mog_acc:.3f} beat the classifier {nn_acc:.3f}"
    )


# ---------------------------------------------------------------------------
# 6-8: enhancement behaviour
# ---------------------------------------------------------------------------


def test_c06_white_noise_gain_and_beta_zero_noop(trained):
    """5 dB white noise, 20 utterances: mean segmental-SNR gain >= 3 dB,
    and the beta=0 configuration returns the noisy input unchanged."""
    mog, net = trained["mog"], trained["net"]
    cfg = EnhancerConfig()
    t0 = time.monotonic()
    gains = []
    first_noisy = None
    for run in range(20):
        clean = clean_utterance(seed=700 + run)
        noisy = mix_at_snr(clean, white_noise(len(clean), 16000, seed=800 + run), 5.0)
        if first_noisy is None:
            first_noisy = noisy
        out, _ = enhance_utterance(noisy, mog, net, cfg)
        gains.append(segmental_snr(clean, out) - segmental_snr(clean, noisy))
    gains = np.array(gains)

    passthrough, _ = enhance_utterance(first_noisy, mog, net, EnhancerConfig(beta=0.0))
    interior = slice(512, len(first_noisy) - 512)
    rms = np.sqrt(np.mean((passthrough.samples[interior]
                           - first_noisy.samples[interior]) ** 2))
    elapsed = time.monotonic() - t0

    print(f"mean gain {gains.mean():.2f} dB over 20 utterances; "
          f"beta=0 RMS {rms:.2e}; {elapsed:.1f} s")
    assert gains.mean() >= 3.0, f"mean gain {gains.mean():.2f} dB < 3 dB"
    assert rms < 1e-6, f"beta=0 is not a no-op (RMS {rms:.2e})"
    assert elapsed < 120.0


def test_c07_noise_mean_step_tracked_within_29_frames():
    """+1.0 log-unit step at alpha=0.1: within 5% of the step in <= 29 frames."""
    rng = np.random.default_rng(77)
    n_bins, sigma = 64, 0.05
    mu_old = np.full(n_bins, -2.0)
    mu_new = mu_old + 1.0
    model = NoiseModel(mu=mu_old.copy(), sigma=np.full(n_bins, sigma))
    certain_noise = np.zeros(n_bins)

    first_within = None
    for frame in range(1, 40):
        z = rng.normal(mu_new, sigma)
        model = adapt(model, z, certain_noise, alpha=0.1)
        if np.mean(np.abs(model.mu - mu_new)) <= 0.05:
            first_within = frame
            break
    print(f"converged to 5% of the step in {first_within} frames")
    assert first_within is not None and first_within <= 29


def test_c08_adaptive_beats_fixed_noise_on_step_noise(trained):
    """Nonstationary noise, 10 seeded runs: adaptive mean segSNR strictly higher."""
    mog, net = trained["mog"], trained["net"]
    cfg = EnhancerConfig()
    adaptive, fixed = [], []
    for run in range(10):
        clean = clean_utterance(seed=500 + run, seconds=(1.4, 1.8))
        noise = step_white_noise(len(clean), 16000, seed=900 + run, step_db=8.0)
        noisy = mix_at_snr(clean, noise, 5.0)
        out, _ = enhance_utterance(noisy, mog, net, cfg)
        ref = enhance_mixmax_original(noisy, mog, cfg)
        adaptive.append(segmental_snr(clean, out))
        fixed.append(segmental_snr(clean, ref))
    mean_a, mean_f = float(np.mean(adaptive)), float(np.mean(fixed))
    print(f"adaptive {mean_a:.2f} dB vs fixed-noise {mean_f:.2f} dB")
    assert mean_a > mean_f


# ---------------------------------------------------------------------------
# 9-10: reproducibility and reconstruction
# ---------------------------------------------------------------------------


def test_c09_determinism_and_serialization(trained, tmp_path):
    """Same seeds give bit-identical corpora, models, and audio; the bundle
    file round-trips bit-exactly."""
    spec = SyntheticCorpusSpec(envelopes=default_envelopes(5),
                               utterance_seconds=(1.2, 2.0), seed=42)
    utts_a = synthesize_corpus(spec, 14)
    utts_b = synthesize_corpus(spec, 14)
    for a, b in zip(utts_a, utts_b):
        assert np.array_equal(a.waveform.samples, b.waveform.samples)
        assert np.array_equal(a.frame_labels, b.frame_labels)

    logs, feats, labels = assemble_frames(utts_a[:10], 512)
    logs, feats, labels = logs[:2000], feats[:2000], labels[:2000]
    mog2 = train_supervised(logs, labels, 5)
    net2, _ = train(feats, labels, 5, n_hidden=32, epochs=15, seed=7)
    assert np.array_equal(mog2.means, trained["mog"].means)
    assert np.array_equal(mog2.stds, trained["mog"].stds)
    assert np.array_equal(net2.w1, trained["net"].w1)
    assert np.array_equal(net2.w2, trained["net"].w2)

    clean = clean_utterance(seed=777)
    noisy = mix_at_snr(clean, white_noise(len(clean), 16000, seed=888), 5.0)
    out_a, _ = enhance_utterance(noisy, mog2, net2, EnhancerConfig())
    out_b, _ = enhance_utterance(noisy, mog2, net2, EnhancerConfig())
    assert np.array_equal(out_a.samples, out_b.samples)

    bundle = ModelBundle(mog=mog2, net=net2, sample_rate=16000, frame_length=512,
                         config_hash=123456789)
    save_bundle(bundle, tmp_path / "model.nnmm")
    back = load_bundle(tmp_path / "model.nnmm")
    assert np.array_equal(back.mog.weights, mog2.weights)
    assert np.array_equal(back.mog.means, mog2.means)
    assert np.array_equal(back.mog.stds, mog2.stds)
    assert np.array_equal(back.net.w1, net2.w1)
    assert np.array_equal(back.net.w2, net2.w2)
    assert back.config_hash == 123456789


def test_c10_stft_round_trip_interior():
    """Random 1 s signals: analysis/synthesis interior RMS error < 1e-6."""
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(16000)
        w = Waveform(samples=x, sample_rate=16000)
        spec = stft(w, 512)
        y = istft(spec)
        pad = edge_padding(512)
        back = y[pad:pad + len(x)]
        interior = slice(512, len(x) - 512)
        rms = np.sqrt(np.mean((back[interior] - x[interior]) ** 2))
        worst = max(worst, rms)
        assert rms < 1e-6
    print(f"worst interior round-trip RMS {worst:.2e}")
