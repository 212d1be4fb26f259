"""Independent reference computations used to verify closed forms, and the
plain frame-by-frame pipeline the batched code paths must reproduce.

The closed-form references import none of the library's math under test:
integration goes through scipy's Simpson rule and the conditional
expectations come from plain rejection sampling, so agreement is meaningful
evidence.  The pipeline references (:func:`stft_by_gather`,
:func:`istft_by_frame`, :func:`enhance_by_frame`) do the same work one frame
at a time, in the order a per-frame loop does it, so a batched path that
keeps the arithmetic must agree with them bit for bit.  So must the
classifier trainer, against :func:`train_serial`: the plain serial loop
with allocating updates and the objective computed in line.
"""

import numpy as np
from scipy.integrate import simpson

from nnmm.dsp import (
    ComplexSpectrogram,
    analysis_window,
    edge_padding,
    log_spectra,
    reconstruct_frame,
)
from nnmm.enhancer import NOISE_STEP, EnhancementReport, noise_prefix_frames
from nnmm.features import feature_matrix
from nnmm.mixmax import (
    MixmaxDiagnostics,
    check_posteriors,
    conditional_mean_below,
    generative_posterior,
    soft_subtract,
    speech_dominance,
    speech_terms,
    weighted_mmse,
    weighted_spp,
)
from nnmm.errors import NumericError
from nnmm.nn import (
    MOMENTUM,
    NnClassifier,
    _forward_arrays,
    _log_likelihood_arrays,
    forward,
    init_classifier,
)
from nnmm.noise import adapt, init_from_prefix


def density_integral(fn, lo, hi, n_points=8193):
    """Simpson-rule integral of a 1-D density over [lo, hi]."""
    grid = np.linspace(lo, hi, n_points)
    return float(simpson(fn(grid), x=grid))


def mc_max_window(rng, n_samples, mu_x, sigma_x, mu_y, sigma_y, z, delta):
    """Sample (X, Y) and keep pairs whose max lands in (z-delta, z+delta).

    Returns a dict with the accepted count, the empirical P(Y < X), its
    Laplace-smoothed standard error, the empirical E[X], and its standard
    error.  X may be drawn from a mixture by passing arrays mu_x/sigma_x
    plus ``weights``.
    """
    x = rng.normal(mu_x, sigma_x, n_samples)
    y = rng.normal(mu_y, sigma_y, n_samples)
    keep = np.abs(np.maximum(x, y) - z) < delta
    xk = x[keep]
    yk = y[keep]
    n = len(xk)
    if n == 0:
        raise RuntimeError(f"no samples accepted near z={z}; widen delta")

    wins = int(np.sum(yk < xk))
    p_smooth = (wins + 1) / (n + 2)
    return {
        "n": n,
        "p_dominance": wins / n,
        "p_se": float(np.sqrt(p_smooth * (1 - p_smooth) / (n + 2))),
        "mean_x": float(np.mean(xk)),
        "mean_x_se": float(np.std(xk, ddof=1) / np.sqrt(n)) if n > 1 else np.inf,
    }


def mc_mixture_max_window(rng, n_samples, weights, mus_x, sigmas_x, mu_y, sigma_y, z, delta):
    """Same windowed sampling with X drawn from a Gaussian mixture."""
    comp = rng.choice(len(weights), size=n_samples, p=weights)
    x = rng.normal(np.asarray(mus_x)[comp], np.asarray(sigmas_x)[comp])
    y = rng.normal(mu_y, sigma_y, n_samples)
    keep = np.abs(np.maximum(x, y) - z) < delta
    xk = x[keep]
    yk = y[keep]
    n = len(xk)
    if n < 2:
        raise RuntimeError(f"too few samples accepted near z={z}; widen delta")
    wins = int(np.sum(yk < xk))
    p_smooth = (wins + 1) / (n + 2)
    return {
        "n": n,
        "mean_x": float(np.mean(xk)),
        "mean_x_se": float(np.std(xk, ddof=1) / np.sqrt(n)),
        "p_dominance": wins / n,
        "p_se": float(np.sqrt(p_smooth * (1 - p_smooth) / (n + 2))),
    }


def mc_truncated_mean(rng, n_samples, mu, sigma, z):
    """Empirical E[X | X < z] for X ~ N(mu, sigma)."""
    x = rng.normal(mu, sigma, n_samples)
    xk = x[x < z]
    if len(xk) < 2:
        raise RuntimeError("truncation kept too few samples")
    return float(np.mean(xk)), float(np.std(xk, ddof=1) / np.sqrt(len(xk)))


def stft_by_gather(w, frame_length=512):
    """``dsp.stft`` with the frames gathered by an explicit index array."""
    x = w.samples
    hop = frame_length // 4
    pad = edge_padding(frame_length)
    tail = pad + (-(len(x) + 2 * pad - frame_length)) % hop
    xp = np.concatenate([np.zeros(pad), x, np.zeros(tail)])

    n = (len(xp) - frame_length) // hop + 1
    win = analysis_window(frame_length)
    idx = np.arange(frame_length)[None, :] + hop * np.arange(n)[:, None]
    frames = np.fft.rfft(xp[idx] * win, axis=1)
    return ComplexSpectrogram(frames=frames, frame_length=frame_length)


def istft_by_frame(s):
    """``dsp.istft`` with the overlap-add done one frame at a time."""
    L, hop = s.frame_length, s.hop
    win = analysis_window(L)
    out = np.zeros((s.n_frames - 1) * hop + L)
    wsum = np.zeros_like(out)
    segs = np.fft.irfft(s.frames, n=L, axis=1) * win
    for i in range(s.n_frames):
        out[i * hop : i * hop + L] += segs[i]
        wsum[i * hop : i * hop + L] += win * win
    good = wsum > 1e-10
    out[good] /= wsum[good]
    return out


def enhance_by_frame(w, mog, net, cfg, step=NOISE_STEP):
    """The enhancer with every step inside one frame loop: per-frame NN
    forward, speech and noise sides, posterior check, SPP, estimate,
    adaptation and reconstruction.  Every frame adapts the noise, at
    ``cfg.alpha = 0`` too, where the update returns the model it was given.
    Frame t's dominance reads the model held at frame ``step * (t // step)``,
    so ``step = 1`` reads the model the frame before it updated.
    Returns ``(samples, EnhancementReport)``."""
    spec = stft_by_gather(w, cfg.frame_length)
    logspecs = log_spectra(spec)
    noise = init_from_prefix(noise_prefix_frames(logspecs, w.sample_rate, cfg))
    feats = feature_matrix(spec, w.sample_rate) if cfg.posterior_source == "nn" else None

    undecidable, tail = np.zeros((), np.int64), np.zeros((), np.int64)
    out = np.empty_like(spec.frames)
    frame_mean_spp = np.empty(spec.n_frames)
    posteriors = np.empty((spec.n_frames, mog.n_components))

    for t in range(spec.n_frames):
        z = logspecs[t]
        speech = speech_terms(z, mog)
        if t % step == 0:
            held = noise
        rho, h = speech_dominance(z, speech, held, undecidable)
        if cfg.posterior_source == "nn":
            p = forward(net, feats[t])
        else:
            p = generative_posterior(h, mog)
        posteriors[t] = p

        check_posteriors(p)
        spp = weighted_spp(p, rho)
        frame_mean_spp[t] = spp.mean()

        if cfg.estimator == "soft-subtraction":
            xhat = soft_subtract(z, spp, cfg.beta)
        else:
            xhat = weighted_mmse(z, p, rho, conditional_mean_below(z, speech, mog, tail))

        noise = adapt(noise, z, spp, cfg.alpha)
        out[t] = reconstruct_frame(xhat, spec.frames[t])

    y = istft_by_frame(ComplexSpectrogram(frames=out, frame_length=cfg.frame_length))
    pad = edge_padding(cfg.frame_length)
    report = EnhancementReport(
        frame_mean_spp=frame_mean_spp,
        posteriors=posteriors,
        diagnostics=MixmaxDiagnostics(undecidable_bins=int(undecidable),
                                      tail_fallbacks=int(tail)),
        noise=noise,
    )
    return y[pad:pad + len(w)], report


def gradient_stacked(w1, w2, inputs, targets):
    """The classifier gradient with each bias column stacked on a fresh copy."""
    p, h = _forward_arrays(w1, w2, inputs)
    delta2 = -p
    delta2[np.arange(len(targets)), targets] += 1.0
    delta1 = (delta2 @ w2[:, :-1]) * h * (1.0 - h)
    g2 = np.column_stack([delta2.T @ h, delta2.sum(axis=0)])
    g1 = np.column_stack([delta1.T @ inputs, delta1.sum(axis=0)])
    return g1, g2


def train_serial(inputs, targets, n_classes, n_hidden, epochs, learning_rate, batch_size, seed):
    """``nn.train`` as one serial loop: allocating momentum updates, and each
    epoch's objective computed before the next epoch starts."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.intp)
    n = inputs.shape[0]
    rng = np.random.default_rng(seed)
    net0 = init_classifier(inputs.shape[1], n_classes, n_hidden, seed=rng.integers(2**32))
    w1 = net0.w1.copy()
    w2 = net0.w2.copy()
    vel1 = np.zeros_like(w1)
    vel2 = np.zeros_like(w2)

    history = [_log_likelihood_arrays(w1, w2, inputs, targets) / n]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            g1, g2 = gradient_stacked(w1, w2, inputs[idx], targets[idx])
            vel1 = MOMENTUM * vel1 + g1 / len(idx)
            vel2 = MOMENTUM * vel2 + g2 / len(idx)
            w1 += learning_rate * vel1
            w2 += learning_rate * vel2
        mean_ll = _log_likelihood_arrays(w1, w2, inputs, targets) / n
        if not np.isfinite(mean_ll):
            raise NumericError("training diverged: log-likelihood is not finite")
        history.append(mean_ll)
    return NnClassifier(w1=w1, w2=w2), history
