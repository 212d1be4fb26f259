"""nnmm benchmark: one workload, one closed-loop client, one BLAS thread.

    python3 perfbench/run.py --workload long_white --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``; the metric names and units come
from ``BENCHMARK.json`` at the root of the checkout.

``--trace 0`` sets up the model ``Sizes.setup_repeats`` times in a child
process (median -> ``setup_s``), runs one untimed warm-up, times operations
back to back for ``--seconds``, reads the peak RSS, then runs every quality
input once untimed and prints the end-to-end metrics.  Each operation is
followed by one pass of the reference kernel in ``calibrate.py``; every
reported time is normalized by the kernel times on either side of it (the
text lines above the JSON also give the unnormalized values).

``--trace 1`` sets up once in-process under the tracer, then alternates an
untraced and a traced operation on the same input for ``--seconds`` (the
first untraced output of each input is the reference) and prints the
per-layer metrics plus ``trace.overhead_pct``.  The spans are written to
``.perfbench/traces/`` when the run ends.

Every operation is checked: it must not raise, its output must pass the
workload's checks, and a repeated (or traced) input must reproduce the
reference output bit for bit.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

bootstrap.limit_threads()  # before anything imports numpy

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(bootstrap.ROOT, ".perfbench")
SETUP_TIMEOUT_S = 150

# Set-up spans come from the one traced set-up, not from the operations.
SETUP_LAYERS = ("corpus.synthesize", "serialize.save_bundle", "mog.train_supervised")


def load_spec() -> dict:
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail(values):
    """(value, percentile, n) at the highest percentile with >= 10 samples above.

    With 10 or fewer samples no percentile qualifies and the maximum is used.
    """
    s = sorted(values)
    n = len(s)
    if not n:
        return math.nan, math.nan, 0
    k = n - 11 if n > 10 else n - 1
    return s[k], 100.0 * (k + 1) / n, n


class Ledger:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(problem)


def attempt(wl, case, reference: dict, ledger: Ledger, around=contextlib.nullcontext):
    """Run and check one operation; returns (result, seconds, ok).

    The first output seen for an input becomes its reference; every later
    output for it must have the same digest.
    """
    t0 = time.perf_counter()
    try:
        with around():
            result = wl.run(case)
    except Exception as exc:  # a raising operation is a failed operation
        ledger.record(f"{case.key}: {type(exc).__name__}: {exc}")
        return None, time.perf_counter() - t0, False
    seconds = time.perf_counter() - t0
    problem = wl.check(case, result)
    if problem is None and reference.setdefault(case.key, wl.digest(result)) != wl.digest(result):
        problem = "output differs from the first output for the same input"
    ledger.record(None if problem is None else f"{case.key}: {problem}")
    return result, seconds, problem is None


def run_setup(seed: int, work: str, tiny: bool) -> dict:
    """Repeated set-up in a child process; see prepare.repeated_setup."""
    cmd = [sys.executable, os.path.join(HERE, "prepare.py"), "--seed", str(seed), "--out", work]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(wl, ledger: Ledger, reference: dict) -> dict:
    """Run every distinct input once, untimed; returns key -> result."""
    results = {}
    for case in wl.probes:
        result, _, ok = attempt(wl, case, reference, ledger)
        if ok:
            results[case.key] = result
    return results


def plain_run(args, sizes, work: str, ledger: Ledger, lines: list[str]) -> dict:
    import nnmm
    import workloads

    setup = run_setup(args.seed, work, args.tiny)
    if not setup["identical"]:
        ledger.record("set-up: repeated set-up wrote different bundles")
    bundle_path = os.path.join(work, "setup_0", "model.nnmm")
    wl = workloads.WORKLOADS[args.workload](
        nnmm.load_bundle(bundle_path), bundle_path, args.seed, sizes, work)

    # One untimed warm-up; its output is the reference for the timed input.
    reference: dict = {}
    attempt(wl, wl.timed[0], reference, ledger)

    ref = calibrate.Reference()
    raw, times, audio = [], [], []
    before = ref.seconds()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        case = wl.timed[i % len(wl.timed)]
        i += 1
        _, seconds, ok = attempt(wl, case, reference, ledger)
        after = ref.seconds()
        if ok:
            raw.append(seconds)
            times.append(calibrate.normalize(seconds, before, after))
            audio.append(case.audio_s)
        before = after

    def timing(times):
        rtfs = [t / a for t, a in zip(times, audio)]
        rtf_tail, pct, n = tail(rtfs)
        return {"audio_s_per_s": sum(audio) / sum(times) if times else math.nan,
                "rtf_p50": statistics.median(rtfs) if rtfs else math.nan,
                "rtf_tail": rtf_tail}, pct, n

    # Read before the quality pass, whose inputs and metric temporaries are
    # the benchmark's, not the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = probe(wl, ledger, reference)
    quality = wl.quality(results) if len(results) == len(wl.probes) else {}

    norm, pct, n = timing(times)
    measured, _, _ = timing(raw)
    lines.append("unnormalized: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items())
                 + f", setup_s {statistics.median(setup['raw_s']):.6g}")
    lines.append(f"rtf_tail is p{pct:.1f} of {n} timed operations")
    lines.append(f"set-up repeats, normalized (s): {', '.join(f'{s:.3f}' for s in setup['setup_s'])}")
    return {
        **norm,
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        **quality,
    }


def traced_run(args, sizes, work: str, ledger: Ledger, lines: list[str]) -> dict:
    import nnmm
    import prepare
    import workloads
    from tracer import Tracer, median_over_ops, per_op_layers

    tracer = Tracer()
    setup_op = tracer.begin_op()
    bundle_path = prepare.build_model(args.seed, os.path.join(work, "setup_0"), sizes, tracer)
    wl = workloads.WORKLOADS[args.workload](
        nnmm.load_bundle(bundle_path), bundle_path, args.seed, sizes, work)
    reference: dict = {}
    wraps = workloads.layer_wraps(tracer)

    @contextlib.contextmanager
    def traced():
        with tracer.installed(wraps), tracer.span(wl.top_span):
            yield

    plain, timed, ops = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        case = wl.timed[i % len(wl.timed)]
        i += 1
        _, seconds, ok_plain = attempt(wl, case, reference, ledger)
        op = tracer.begin_op()
        _, traced_seconds, ok = attempt(wl, case, reference, ledger, around=traced)
        if ok and ok_plain:
            plain.append(seconds)
            timed.append(traced_seconds)
            ops.append(op)

    layers = per_op_layers(tracer.spans)

    def per_op(values_of_op):
        return statistics.median(values_of_op(op) for op in ops) if ops else 0.0

    def calls_per_enhancement(op, layer):
        got = layers.get(op, {})
        enhancements = got.get("enhancer.enhance", (0.0, 0))[1]
        if "cli.evaluate" not in got or not enhancements:
            return 0.0
        return got.get(layer, (0.0, 0))[1] / enhancements

    metrics = {
        "enhancer.self_ms": median_over_ops(layers, ops, "enhancer.enhance")[0],
        "cli.evaluate_self_ms": median_over_ops(layers, ops, "cli.evaluate")[0],
        "enhancer.frames": per_op(lambda op: sum(tracer.notes[op]["enhancer.frames"])),
        "enhancer.fallbacks": per_op(
            lambda op: sum(d.total for d in tracer.notes[op]["enhancer.diagnostics"])),
        "cli.stft_per_enhancement": per_op(lambda op: calls_per_enhancement(op, "dsp.stft")),
        "cli.features_per_enhancement": per_op(
            lambda op: calls_per_enhancement(op, "features.feature_matrix")),
        "nn.train_epoch_ms": 1e3 * layers[setup_op]["nn.train"][0] / sizes.epochs,
        "noise.track_frames": workloads.track_frames(),
        "trace.overhead_pct": (100.0 * (statistics.median(timed) / statistics.median(plain) - 1.0)
                               if ops else math.nan),
    }
    for layer in SETUP_LAYERS:
        metrics[f"{layer}_ms"] = 1e3 * layers[setup_op][layer][0]
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        if name in metrics:
            continue
        layer, _, kind = name.rpartition("_")
        ms, calls = median_over_ops(layers, ops, layer)
        metrics[name] = {"ms": ms, "calls": calls}[kind]

    os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK_ROOT, "traces", f"{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(trace_path)
    lines.append(f"{len(ops)} traced operations; {len(tracer.spans)} spans written to {trace_path}")
    if tracer.missing:
        lines.append(f"names no longer present, reported as 0 calls: {', '.join(tracer.missing)}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("long_white", "short_grid", "mmse_reference"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.import_nnmm()
        spec = load_spec()
    except (bootstrap.MissingSources, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import prepare

    sizes = prepare.TINY if args.tiny else prepare.FULL
    names = spec["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ledger = Ledger()
    lines = [f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
             f"BLAS threads {bootstrap.blas_threads()}"]
    try:
        run = traced_run if args.trace else plain_run
        values = run(args, sizes, work, ledger, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    correct = ledger.failed == 0
    for m in names:
        value = float(values.get(m["name"], math.nan))
        if not math.isfinite(value):
            correct, value = False, 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']} {value:.6g} {m['unit']}")
    lines.append(f"failed_ratio {ledger.failed / ledger.attempted:.6g} ratio "
                 f"({ledger.failed} of {ledger.attempted} operations)")
    lines += [f"failure: {r}" for r in ledger.reasons]
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
