"""Command-line front end: corpus synthesis, training, enhancement, evaluation.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable/invalid
files), 3 numeric failure (diverged training or non-finite results).
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import fields, replace

import numpy as np

from .corpus import (
    SyntheticCorpusSpec,
    assemble_frames,
    default_envelopes,
    load_corpus,
    mix_at_snr,
    save_corpus,
    step_white_noise,
    synthesize_corpus,
    white_noise,
)
from .dsp import log_spectra, read_wav, stft, write_wav
from .enhancer import (
    ESTIMATORS,
    POSTERIOR_SOURCES,
    EnhancerConfig,
    enhance_batch,
    enhance_mixmax_original,  # not called here: perfbench's layer_wraps patches this name
    enhance_utterance,
)
from .errors import BundleFormatError, NumericError
from .features import feature_matrix
from .metrics import log_spectral_distance, segmental_snr
from .mog import classify_frames, train_em, train_supervised
from .nn import classify_accuracy, train as train_net
from .serialize import ModelBundle, config_fingerprint, load_bundle, save_bundle


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

# Every enhancer setting but the frame length, which the model bundle fixes,
# with the type of its default.  Flags and config-file keys use these names.
CONFIG_TYPES = {
    f.name: type(f.default) for f in fields(EnhancerConfig) if f.name != "frame_length"
}


def parse_config_file(path: str) -> dict:
    """Flat key=value file mirroring the enhancer configuration fields."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected <key>=<value>")
        if key not in CONFIG_TYPES:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r} (expected one of {tuple(CONFIG_TYPES)})"
            )
        values[key] = value
    return values


def _enhancement_job(args) -> tuple[EnhancerConfig, ModelBundle]:
    """The enhancer config and the model bundle of an enhance or evaluate run.

    The config file's settings, overridden by the flags, are typed and built
    into the config before any file is read, so a bad setting is a usage
    error whatever state the files are in.  The bundle then fixes the frame
    length, and must hold a classifier if the config's posterior source
    needs one.
    """
    settings = parse_config_file(args.config) if args.config else {}
    settings.update({key: getattr(args, key) for key in CONFIG_TYPES
                     if getattr(args, key) is not None})
    try:
        settings = {key: CONFIG_TYPES[key](value) for key, value in settings.items()}
        cfg = EnhancerConfig(**settings)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    bundle = load_bundle(args.bundle)
    if cfg.posterior_source == "nn" and bundle.net is None:
        raise ValueError("bundle has no classifier; run train-nn or use --posterior generative")
    return replace(cfg, frame_length=bundle.frame_length), bundle


def _add_enhancer_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--beta", type=float, help="noise-reduction level, natural-log units")
    sub.add_argument("--alpha", type=float, help="noise smoothing in [0,1); 0 keeps the prefix noise")
    sub.add_argument("--noise-prefix", type=float, dest="noise_prefix",
                     help="leading noise-only seconds")
    sub.add_argument("--estimator", choices=ESTIMATORS)
    sub.add_argument("--posterior", choices=POSTERIOR_SOURCES, dest="posterior_source",
                     help="component posterior source")


def _load_compatible_corpus(args, bundle: ModelBundle):
    utterances, meta = load_corpus(args.corpus)
    if meta["sample_rate"] != bundle.sample_rate:
        raise ValueError("corpus sample rate does not match the model bundle")
    if meta["frame_length"] != bundle.frame_length:
        raise ValueError("corpus frame length does not match the model bundle")
    return utterances, meta


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth_corpus(args) -> int:
    try:
        spec = SyntheticCorpusSpec(
            envelopes=default_envelopes(args.classes, args.sample_rate),
            sample_rate=args.sample_rate,
            frame_length=args.frame_length,
            seed=args.seed,
        )
        utterances = synthesize_corpus(spec, args.utterances)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    save_corpus(args.out, utterances, spec.frame_length, spec.n_classes)
    frames = sum(len(u.frame_labels) for u in utterances)
    print(f"wrote {len(utterances)} utterances ({frames} frames, "
          f"{spec.n_classes} classes) to {args.out}")
    return 0


def _train_mog_common(args, meta: dict, trained_mog, mode: str) -> int:
    bundle = ModelBundle(
        mog=trained_mog,
        net=None,
        sample_rate=meta["sample_rate"],
        frame_length=meta["frame_length"],
        config_hash=config_fingerprint({
            "mode": mode,
            "frame_length": meta["frame_length"],
            "sample_rate": meta["sample_rate"],
            "components": trained_mog.n_components,
        }),
    )
    save_bundle(bundle, args.out)
    print(f"wrote {trained_mog.n_components}-component mixture to {args.out}")
    return 0


def cmd_train_mog(args) -> int:
    utterances, meta = load_corpus(args.corpus)
    logspecs, _, labels = assemble_frames(utterances, meta["frame_length"])
    trained = train_supervised(logspecs, labels, meta["n_classes"])
    return _train_mog_common(args, meta, trained, "supervised")


def cmd_train_mog_em(args) -> int:
    utterances, meta = load_corpus(args.corpus)
    logspecs, _, _ = assemble_frames(utterances, meta["frame_length"])
    trained = train_em(logspecs, args.components, iterations=args.iterations, seed=args.seed)
    return _train_mog_common(args, meta, trained, "em")


def cmd_train_nn(args) -> int:
    bundle = load_bundle(args.bundle)
    utterances, meta = _load_compatible_corpus(args, bundle)
    if meta["n_classes"] != bundle.mog.n_components:
        raise ValueError("corpus class count does not match the mixture")
    _, features, labels = assemble_frames(utterances, meta["frame_length"])
    net, history = train_net(
        features, labels,
        n_classes=bundle.mog.n_components,
        n_hidden=args.hidden,
        epochs=args.epochs,
        learning_rate=args.rate,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    for epoch, mean_ll in enumerate(history):
        print(f"epoch {epoch:3d}  mean log-likelihood {mean_ll:+.4f}")
    out = args.out or args.bundle
    save_bundle(replace(bundle, net=net), out)
    accuracy = classify_accuracy(net, features, labels)
    print(f"training accuracy {accuracy:.3f}; wrote classifier to {out}")
    return 0


def cmd_enhance(args) -> int:
    cfg, bundle = _enhancement_job(args)
    wav = read_wav(args.infile, expected_rate=bundle.sample_rate)
    out, report = enhance_utterance(wav, bundle.mog, bundle.net, cfg)
    print(f"enhanced {args.infile}: {report.frames_processed} frames, "
          f"mean SPP {report.mean_spp:.3f}, "
          f"numerical fallbacks {report.diagnostics.total}")
    write_wav(args.out, out)
    return 0


def cmd_classify(args) -> int:
    bundle = load_bundle(args.bundle)
    wav = read_wav(args.infile, expected_rate=bundle.sample_rate)
    labels = np.loadtxt(args.labels, dtype=np.intp, ndmin=1)
    spec = stft(wav, bundle.frame_length)
    if len(labels) != spec.n_frames:
        raise ValueError(
            f"{args.labels}: {len(labels)} labels for {spec.n_frames} frames"
        )
    generative = classify_frames(bundle.mog, log_spectra(spec))
    print(f"generative accuracy {float(np.mean(generative == labels)):.3f}")
    if bundle.net is not None:
        features = feature_matrix(spec, wav.sample_rate)
        print(f"classifier accuracy {classify_accuracy(bundle.net, features, labels):.3f}")
    return 0


def cmd_evaluate(args) -> int:
    # The grid and the settings are checked before any file is read, so a
    # mistyped flag costs no corpus read and exits 1 whatever state the files
    # are in.
    noise_types = [t.strip() for t in args.noise.split(",") if t.strip()]
    for t in noise_types:
        if t not in ("white", "step"):
            raise UsageError(f"unknown noise type {t!r} (choose from white, step)")
    try:
        snrs = [float(s) for s in args.snr.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--snr {args.snr!r}: not a comma-separated list of numbers") from None
    if not np.isfinite(snrs).all():
        raise UsageError(f"--snr {args.snr!r}: every SNR must be finite")
    if not snrs or not noise_types:
        raise UsageError("need at least one SNR and one noise type")
    cfg, bundle = _enhancement_job(args)
    utterances, _ = _load_compatible_corpus(args, bundle)

    rows = []
    run = 0
    for u, utt in enumerate(utterances):
        clean = utt.waveform
        grid = [(noise_type, snr) for noise_type in noise_types for snr in snrs]
        noisy = []
        for noise_type, snr in grid:
            maker = white_noise if noise_type == "white" else step_white_noise
            noisy.append(mix_at_snr(
                clean, maker(len(clean), clean.sample_rate, seed=args.seed + run), snr
            ))
            run += 1
        # Every row of the grid has the clean signal's length, so all of
        # them share one recursion.
        enhanced = enhance_batch(noisy, bundle.mog, bundle.net, cfg)
        for (noise_type, snr), mixed, (out, report) in zip(grid, noisy, enhanced):
            predicted = report.posteriors.argmax(axis=1)
            rows.append({
                "utterance": f"utt_{u:04d}",
                "noise": noise_type,
                "snr_db": snr,
                "segsnr_in": round(segmental_snr(clean, mixed), 4),
                "segsnr_out": round(segmental_snr(clean, out), 4),
                "lsd": round(log_spectral_distance(clean, out, bundle.frame_length), 4),
                "mean_spp": round(report.mean_spp, 4),
                "accuracy": round(float(np.mean(predicted == utt.frame_labels)), 4),
            })

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    gain = np.mean([r["segsnr_out"] - r["segsnr_in"] for r in rows])
    print(f"{len(rows)} runs; mean segmental SNR gain {gain:+.2f} dB; wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nnmm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--utterances", type=int, default=20)
    p.add_argument("--sample-rate", type=int, default=16000, dest="sample_rate")
    p.add_argument("--frame-length", type=int, default=512, dest="frame_length")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("train-mog", help="supervised per-class Gaussian fit")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output model bundle")
    p.set_defaults(func=cmd_train_mog)

    p = sub.add_parser("train-mog-em", help="unsupervised EM mixture fit")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_mog_em)

    p = sub.add_parser("train-nn", help="train the phoneme classifier into a bundle")
    p.add_argument("--corpus", required=True)
    p.add_argument("--bundle", required=True, help="bundle holding the mixture")
    p.add_argument("--out", help="output bundle (default: overwrite --bundle)")
    p.add_argument("--hidden", type=int, default=500)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--rate", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=128, dest="batch_size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_nn)

    p = sub.add_parser("enhance", help="enhance one WAV file")
    p.add_argument("--bundle", required=True)
    p.add_argument("--in", required=True, dest="infile", metavar="WAV")
    p.add_argument("--out", required=True, metavar="WAV")
    _add_enhancer_flags(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("classify", help="frame classification accuracy on a labeled WAV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--in", required=True, dest="infile", metavar="WAV")
    p.add_argument("--labels", required=True, help="one class index per frame")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="mix, enhance, and score a whole corpus")
    p.add_argument("--bundle", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="CSV results path")
    p.add_argument("--snr", default="-5,0,5,10,15", help="comma-separated SNRs in dB")
    p.add_argument("--noise", default="white", help="comma-separated: white, step")
    p.add_argument("--seed", type=int, default=0)
    _add_enhancer_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def _attach_negative_snr(argv: list[str]) -> list[str]:
    """argparse takes a value such as ``-5,0`` for an option, not for the
    value of ``--snr``; join the two as ``--snr=-5,0``."""
    out = []
    for arg in argv:
        if out and out[-1] == "--snr" and re.match(r"-\.?\d", arg):
            out[-1] = f"--snr={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_snr(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (BundleFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
