"""Tests for the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import bootstrap  # noqa: E402

bootstrap.import_nnmm()

import nnmm.enhancer  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, Wrap, covered_length, per_op_layers, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("long_white", "short_grid", "mmse_reference")


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "b", 3.0, 6.0),        # overlaps a: union is [1, 6]
        Span(3, 1, 0, "c", 2.0, 3.0),        # grandchild counts against a only
        Span(4, 0, 0, "d", 9.0, 12.0),       # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.5, 2.0), (-1.0, 0.25), (0.6, 0.7)], 0.0, 1.0) == pytest.approx(0.75)


def test_tracer_nesting_and_per_op_totals():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.5, 4.0, 10.0, 11.0, 12.0))
    tracer.begin_op()
    with tracer.span("top"):          # 0.0 .. 10.0
        with tracer.span("x"):        # 1.0 .. 2.0
            pass
        with tracer.span("x"):        # 3.5 .. 4.0
            pass
    tracer.begin_op()
    with tracer.span("top"):          # 11.0 .. 12.0
        pass
    by_op = {s.name: s for s in tracer.spans if s.op == 0 and s.name == "top"}
    assert by_op["top"].parent is None
    children = [s for s in tracer.spans if s.name == "x"]
    assert all(c.parent == by_op["top"].id for c in children)
    layers = per_op_layers(tracer.spans)
    assert layers[0]["x"] == (pytest.approx(1.0 + 0.5), 2)
    assert layers[0]["top"][0] == pytest.approx(10.0 - 1.5)
    assert layers[1]["top"] == (pytest.approx(1.0), 1)


def test_missing_names_are_skipped_and_originals_restored():
    tracer = Tracer()
    original = nnmm.enhancer.stft
    wraps = [
        Wrap("nnmm.enhancer", "no_such_kernel", "mixmax.kernel"),
        Wrap("nnmm.no_such_module", "stft", "dsp.stft"),
        Wrap("nnmm.enhancer", "stft", "dsp.stft"),
    ]
    tracer.begin_op()
    with pytest.raises(RuntimeError):
        with tracer.installed(wraps):
            assert nnmm.enhancer.stft is not original
            raise RuntimeError("operation failed")
    assert nnmm.enhancer.stft is original
    assert not hasattr(nnmm.enhancer, "no_such_kernel")
    assert tracer.missing == ["nnmm.enhancer.no_such_kernel", "nnmm.no_such_module.stft"]
    layers = per_op_layers(tracer.spans)
    assert layers.get(0, {}).get("mixmax.kernel", (0.0, 0))[1] == 0


def test_layer_wraps_name_real_attributes():
    """Every wrapped name exists today, so no layer reads 0 by accident."""
    tracer = Tracer()
    with tracer.installed(workloads.layer_wraps(tracer)):
        pass
    assert tracer.missing == []


def test_tail_has_ten_samples_beyond_it():
    values = list(range(30, 0, -1))
    value, pct, n = run.tail(values)
    assert n == 30 and value == 20 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_benchmark_json_names_and_units():
    spec = run.load_spec()
    names = [m["name"] for m in itertools.chain(spec["end_to_end"], spec["per_layer"])]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def bench(*args, cwd=bootstrap.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    spec = run.load_spec()["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] != 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "long_white", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
