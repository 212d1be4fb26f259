"""Benchmark set-up: synthesize a labeled corpus and train the model bundle.

``run.py`` runs this file as a child process, so the peak resident memory
it reports for a workload excludes training.  Usage:

    python3 perfbench/prepare.py --seed N --out DIR [--tiny]

Set-up runs ``Sizes.setup_repeats`` times; each repeat writes
``DIR/setup_<i>/`` (training corpus plus ``model.nnmm``).  The last stdout line is JSON: the seconds each repeat took, normalized to the
nominal machine speed (see calibrate.py) and as measured, and whether every
repeat wrote a byte-identical bundle.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import time
from dataclasses import dataclass

import bootstrap

bootstrap.limit_threads()  # before anything imports numpy

import calibrate  # noqa: E402

N_CLASSES = 5
N_HIDDEN = 500  # the CLI default


@dataclass(frozen=True)
class Sizes:
    """Input sizes; TINY keeps the benchmark's own smoke tests fast."""

    train_utterances: int = 12
    epochs: int = 10
    setup_repeats: int = 3
    long_seconds: float = 12.0
    mmse_seconds: float = 5.0
    grid_quality_utterances: int = 8


FULL = Sizes()
TINY = Sizes(train_utterances=3, epochs=2, setup_repeats=2, long_seconds=2.0,
             mmse_seconds=1.5, grid_quality_utterances=1)


def build_model(seed: int, out_dir: str, sizes: Sizes, tracer=None) -> str:
    """Corpus -> frames -> mixture + classifier -> bundle; returns its path.

    With a tracer, each call into the program gets its own span.
    """
    import nnmm

    span = tracer.span if tracer is not None else contextlib.nullcontext
    spec = nnmm.SyntheticCorpusSpec(envelopes=nnmm.default_envelopes(N_CLASSES), seed=seed)
    with span("corpus.synthesize"):
        utterances = nnmm.synthesize_corpus(spec, sizes.train_utterances)
    with span("corpus.save_corpus"):
        nnmm.save_corpus(os.path.join(out_dir, "train"), utterances, spec.frame_length, N_CLASSES)
    with span("corpus.assemble_frames"):
        logspecs, features, labels = nnmm.assemble_frames(utterances, spec.frame_length)
    with span("mog.train_supervised"):
        mog = nnmm.train_supervised(logspecs, labels, N_CLASSES)
    with span("nn.train"):
        net, _ = nnmm.train(features, labels, N_CLASSES, n_hidden=N_HIDDEN,
                            epochs=sizes.epochs, seed=seed)
    path = os.path.join(out_dir, "model.nnmm")
    with span("serialize.save_bundle"):
        nnmm.save_bundle(
            nnmm.ModelBundle(mog=mog, net=net, sample_rate=spec.sample_rate,
                             frame_length=spec.frame_length),
            path,
        )
    return path


def repeated_setup(seed: int, out_dir: str, sizes: Sizes) -> dict:
    """Per-repeat seconds, normalized (``setup_s``) and as measured
    (``raw_s``), and whether every repeat wrote the same bundle bytes."""
    ref = calibrate.Reference()
    raw, seconds, blobs = [], [], []
    before = ref.seconds()
    for i in range(sizes.setup_repeats):
        t0 = time.perf_counter()
        path = build_model(seed, os.path.join(out_dir, f"setup_{i}"), sizes)
        raw.append(time.perf_counter() - t0)
        after = ref.seconds()
        seconds.append(calibrate.normalize(raw[-1], before, after))
        before = after
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return {"setup_s": seconds, "raw_s": raw, "identical": all(b == blobs[0] for b in blobs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    bootstrap.import_nnmm()
    print(json.dumps(repeated_setup(args.seed, args.out, TINY if args.tiny else FULL)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
