"""Watch the noise model follow a level change.

First part: feed the adaptation recursion a noise-only stream whose mean
jumps by +1.0 log units halfway through and print how the estimated mean
closes the gap (about 10% of the remaining distance per frame at
alpha=0.1).

Second part: enhance speech in noise whose level steps up mid-utterance,
comparing the adaptive enhancer against the fixed-noise reference mode that
keeps the initial noise estimate for the whole utterance.
"""

from dataclasses import replace

import numpy as np

from nnmm import (
    EnhancerConfig,
    NoiseModel,
    SyntheticCorpusSpec,
    Waveform,
    adapt,
    assemble_frames,
    default_envelopes,
    enhance_utterance,
    mix_at_snr,
    segmental_snr,
    step_white_noise,
    synthesize_corpus,
    train,
    train_supervised,
)
from nnmm.enhancer import REFERENCE_MODE


def recursion_demo():
    rng = np.random.default_rng(0)
    n_bins = 64
    mu_old = np.full(n_bins, -2.0)
    mu_new = mu_old + 1.0
    model = NoiseModel(mu=mu_old.copy(), sigma=np.full(n_bins, 0.05))
    surely_noise = np.zeros(n_bins)

    print("frames after the step -> mean |gap| to the new level:")
    for frame in range(1, 41):
        z = rng.normal(mu_new, 0.05)
        model = adapt(model, z, surely_noise, alpha=0.1)
        if frame in (1, 5, 10, 20, 29, 40):
            gap = float(np.mean(np.abs(model.mu - mu_new)))
            print(f"  {frame:3d}: {gap:.4f}")


def enhancement_demo():
    spec = SyntheticCorpusSpec(envelopes=default_envelopes(5),
                               utterance_seconds=(1.2, 2.0), seed=42)
    logs, feats, labels = assemble_frames(synthesize_corpus(spec, 10), 512)
    mog = train_supervised(logs, labels, 5)
    net, _ = train(feats, labels, 5, n_hidden=32, epochs=15, seed=7)

    clean = synthesize_corpus(SyntheticCorpusSpec(
        envelopes=default_envelopes(5), utterance_seconds=(1.6, 1.8), seed=123), 1,
    )[0].waveform
    clean = Waveform(samples=np.concatenate([np.zeros(8000), clean.samples]),
                     sample_rate=16000)
    noise = step_white_noise(len(clean), 16000, seed=9, step_db=8.0)
    noisy = mix_at_snr(clean, noise, 5.0)

    cfg = EnhancerConfig()
    out, _ = enhance_utterance(noisy, mog, net, cfg)
    ref, _ = enhance_utterance(noisy, mog, None, replace(cfg, **REFERENCE_MODE))

    print("\nnoise level steps +8 dB mid-utterance:")
    print(f"  noisy         : {segmental_snr(clean, noisy):6.2f} dB segmental SNR")
    print(f"  fixed noise   : {segmental_snr(clean, ref):6.2f} dB")
    print(f"  adaptive      : {segmental_snr(clean, out):6.2f} dB")


def main():
    recursion_demo()
    enhancement_demo()


if __name__ == "__main__":
    main()
