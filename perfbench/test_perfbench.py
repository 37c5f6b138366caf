"""Self-test of the benchmark harness.

    python3 -m pytest perfbench

It checks that failures are counted without ending a run, that the seed
changes the inputs but not the metric names, that BENCHMARK.json matches
the metric catalogue, and that the run refuses to measure code it cannot
find or code from elsewhere.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import metrics  # noqa: E402
import runner  # noqa: E402
import wl_certify  # noqa: E402
import wl_cli  # noqa: E402
import wl_evolve  # noqa: E402
import wl_spectral  # noqa: E402
from harness import LoopResult, Op, Tracer, closed_loop, require, run_pass  # noqa: E402


def _ops(log: list) -> list[Op]:
    def boom(t):
        raise RuntimeError("operation raised")

    def wrong(value):
        require(value == 2, f"expected 2, got {value}")
        return {}

    return [
        Op("raises", boom, lambda v: {}),
        Op("wrong_value", lambda t: 1, wrong),
        Op("fine", lambda t: log.append("ran") or 2, wrong),
    ]


def test_failures_are_counted_and_the_loop_goes_on():
    log: list = []
    (result,) = closed_loop(_ops(log), 0.0, Tracer(False))
    result2 = LoopResult()
    run_pass(_ops(log), Tracer(False), 1, result2)
    for r in (result, result2):
        assert r.attempted == 3
        assert r.failed == 2
        assert [o.op for o in r.outcomes if o.ok] == ["fine"]
    assert log == ["ran", "ran"]


class _FaultyWorkload:
    """A workload whose pass has one raising, one wrong and one correct operation."""

    NAME = "faulty"

    @staticmethod
    def build(seed, tracer):
        return seed

    @staticmethod
    def make_ops(inputs):
        return _ops([]), 1.0


def test_faulty_operations_show_in_the_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(runner.MODULES, "faulty", _FaultyWorkload)
    monkeypatch.setattr(runner, "OUT", tmp_path)
    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)
    assert runner.main("faulty", seed=1, seconds=0.0, traced=False) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is False
    # a warm-up pass and one timed pass, three operations each
    assert result["attempted"] == 6 and result["failed"] == 4
    assert record["failed_frac"] == pytest.approx(4 / 6)
    assert record["failed_ops"] == ["raises", "wrong_value"]
    assert set(result["metrics"]) == {m.name for m in metrics.END_TO_END}


def _span_fingerprint(mod, seed, tmp_path):
    tracer = Tracer(True)
    if mod is wl_cli:
        inputs = mod.build(seed, tracer, work=tmp_path / f"cli{seed}", env={})
        fingerprint = (tmp_path / f"cli{seed}" / "in" / "spec.json").read_bytes()
    else:
        inputs = mod.build(seed, tracer)
        fingerprint = {
            wl_certify: lambda i: np.array([(e.z, e.tau) for e in i[0].events]).tobytes(),
            wl_evolve: lambda i: i.cn_3d.state.field.tobytes(),
            wl_spectral: lambda i: i.signal.samples.tobytes(),
        }[mod](inputs)
    ops, _ = mod.make_ops(inputs)
    return fingerprint, [o.name for o in ops]


@pytest.mark.parametrize("mod", [wl_certify, wl_evolve, wl_spectral, wl_cli])
def test_seed_changes_inputs_not_operations(mod, tmp_path):
    fp1, ops1 = _span_fingerprint(mod, 1, tmp_path)
    fp2, ops2 = _span_fingerprint(mod, 2, tmp_path)
    assert fp1 != fp2
    assert ops1 == ops2


def test_seed_does_not_change_metric_names(monkeypatch):
    monkeypatch.setattr(wl_certify, "EVENTS", 40)
    monkeypatch.setattr(wl_certify, "ARRAY_POINTS", 1000)
    names = []
    for seed in (1, 2):
        tracer = Tracer(True)
        ops, _ = wl_certify.make_ops(wl_certify.build(seed, tracer))
        loop = LoopResult()
        run_pass(ops, tracer, 0, loop)
        assert loop.failed == 0
        extras = {"trace.overhead_s": 0.0, "trace.overhead_frac": 0.0}
        values = metrics.per_layer_values(metrics.SpanIndex(tracer.finished(), 1), loop.diagnostics, extras)
        assert values["kinematics.boost_event.us_per_event"] > 0
        names.append(list(values))
    assert names[0] == names[1] == [m.name for m in metrics.PER_LAYER]


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert bench["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(runner.MODULES)
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_self_time_subtracts_children():
    spans = [
        harness.Span("pde.evolve_kgf", 0.0, 10.0, -1, 0, 1, None),
        harness.Span("bench.monitor", 1.0, 4.0, 0, 0, 1, None),
        harness.Span("pde.measure_observables", 2.0, 3.0, 1, 0, 1, None),
    ]
    assert harness.self_times(spans) == [7.0, 2.0, 1.0]


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([float(i) for i in range(8)]) == (7.0, 100.0, 8)
    assert harness.tail([float(i) for i in range(1, 31)]) == (15.0, 50.0, 30)
    assert harness.tail([float(i) for i in range(1, 201)]) == (190.0, 95.0, 200)


def test_importtime_counts_outermost_scipy_modules():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |       scipy._lib",
            "import time:        20 |         30 |     scipy",
            "import time:         5 |          5 |       scipy.sparse._base",
            "import time:        40 |         45 |     scipy.sparse",
            "import time:         7 |          7 |     boostfield.kinematics",
            "import time:       100 |        182 |   boostfield",
        ]
    )
    got = runner.parse_importtime(text)
    assert got["cli.import.boostfield_s"] == pytest.approx(182e-6)
    assert got["cli.import.scipy_s"] == pytest.approx(75e-6)


def test_refuses_boostfield_from_elsewhere(tmp_path):
    fake = tmp_path / "boostfield" / "__init__.py"
    fake.parent.mkdir()
    fake.write_text("")
    with pytest.raises(runner.WrongCode):
        runner.check_origin(str(fake))
    assert runner.check_origin(runner.boostfield.__file__) == "src/boostfield/__init__.py"


def test_without_the_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_pass_time_is_taken_at_nominal_speed():
    ref = harness.REFERENCE_NOMINAL_S
    loop = LoopResult()
    loop.outcomes = [
        harness.Outcome("a", 0, 2.0, 2.0 * ref),  # machine at half speed: counts as 1 s
        harness.Outcome("b", 0, 1.0, ref),
        harness.Outcome("a", 1, 1.5, ref),
    ]
    assert loop.pass_busy() == pytest.approx([2.0, 1.5])
    assert loop.pass_busy(nominal=False) == pytest.approx([3.0, 1.5])
    assert harness.per_op_medians(loop.outcomes) == pytest.approx({"a": 1.25, "b": 1.0})
