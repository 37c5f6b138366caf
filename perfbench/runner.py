"""One benchmark run: set-up, warm-up, the timed closed loop, and the result line.

Untraced runs give the end-to-end metrics.  A traced run alternates
untraced and traced passes, reports the per-layer metrics from the traced
passes' spans, and the difference of the two kinds' median pass times as
the tracing overhead.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import boostfield

import wl_certify
import wl_cli
import wl_evolve
import wl_spectral
from harness import (
    LoopResult,
    Tracer,
    at_nominal_speed,
    closed_loop,
    log,
    per_op_medians,
    reference_seconds,
    run_pass,
    tail,
)
from metrics import END_TO_END, PER_LAYER, SpanIndex, per_layer_values
from run import BLAS_VARS, ROOT, SRC

OUT = Path(__file__).resolve().parent / "_out"
MODULES = {m.NAME: m for m in (wl_certify, wl_evolve, wl_spectral, wl_cli)}
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 120


def child_env() -> dict:
    """This environment, with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class WrongCode(Exception):
    """boostfield would not come from this checkout's src/."""


def check_origin(module_file: str) -> str:
    """Abort unless boostfield was imported from this checkout's src/."""
    want = (SRC / "boostfield" / "__init__.py").resolve()
    if Path(module_file).resolve() != want:
        raise WrongCode(f"boostfield imported from {module_file}, not {want}")
    return str(Path(module_file).resolve().relative_to(ROOT))


def fresh_import_seconds(env: dict) -> float:
    """Wall time of ``import boostfield`` in a new interpreter, which must load this checkout."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import boostfield; print(boostfield.__file__)"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        timeout=IMPORT_TIMEOUT_S,
        check=False,
    )
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise WrongCode(f"a fresh interpreter cannot import boostfield: {proc.stderr.decode()[-500:]}")
    check_origin(proc.stdout.decode().strip())
    return seconds


def parse_importtime(text: str) -> dict[str, float]:
    """boostfield's and scipy's cumulative seconds from ``python -X importtime`` output.

    importtime prints a module after the modules it imports, one indent
    level deeper per nesting.  scipy's share is the sum over scipy modules
    that no other scipy module imported.
    """
    entries = []  # (depth, name, cumulative us)
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1))))
    parent = [None] * len(entries)
    waiting: list[int] = []
    for j, (depth, _, _) in enumerate(entries):
        while waiting and entries[waiting[-1]][0] > depth:
            parent[waiting.pop()] = j
        waiting.append(j)

    def is_scipy(i):
        return entries[i][1].split(".")[0] == "scipy"

    def outermost_scipy(i):
        p = parent[i]
        while p is not None:
            if is_scipy(p):
                return False
            p = parent[p]
        return True

    boostfield_us = sum(c for _, name, c in entries if name == "boostfield")
    scipy_us = sum(entries[i][2] for i in range(len(entries)) if is_scipy(i) and outermost_scipy(i))
    return {"cli.import.boostfield_s": boostfield_us * 1e-6, "cli.import.scipy_s": scipy_us * 1e-6}


def import_times(env: dict) -> dict[str, float]:
    """Cumulative import time of boostfield, and of the scipy modules it pulls in."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import boostfield"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        timeout=IMPORT_TIMEOUT_S,
        check=True,
    )
    return parse_importtime(proc.stderr.decode())


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(origin: str) -> dict:
    import numpy
    import scipy

    return {
        "boostfield_file": origin,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def _inputs_factory(workload: str, env: dict, work: Path):
    mod = MODULES[workload]
    return functools.partial(mod.build, work=work, env=env) if mod is wl_cli else mod.build


def _at_nominal(workload: str) -> bool:
    """Whether the workload's times are rescaled to nominal speed.

    cli reports wall clock: its children run on whichever CPU is free, so
    reference work in this process does not gauge them.
    """
    return workload != "cli"


def _setup_seconds(workload: str, seed: int, env: dict, build) -> tuple[float, object]:
    """Median of repeated set-ups.

    Library workloads: ``import boostfield`` in a fresh interpreter plus
    building the inputs, at nominal speed.  This thread and the fresh
    interpreter stay on one CPU meanwhile, so the reference work gauges the
    CPU the import runs on.  cli: wall time of ``boostfield --help``, which
    is start-up alone.
    """
    samples = []
    if workload == "cli":
        fresh_import_seconds(env)  # checks where the children import boostfield from
        inputs = build(seed, Tracer(False))
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            proc = wl_cli.run_cli(["--help"], env, ROOT)
            samples.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"boostfield --help exited {proc.returncode}")
        return statistics.median(samples), inputs

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        ref_before = reference_seconds()
        for _ in range(SETUP_REPEATS):
            seconds = fresh_import_seconds(env)
            t0 = perf_counter()
            inputs = build(seed, Tracer(False))
            seconds += perf_counter() - t0
            ref_after = reference_seconds()
            samples.append(at_nominal_speed(seconds, 0.5 * (ref_before + ref_after)))
            ref_before = ref_after
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(samples), inputs


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _calls(workload: str, loop: LoopResult, nominal: bool) -> list[float]:
    """What one user waits for: a command in cli (its median over passes), a whole batch pass otherwise."""
    if workload == "cli":
        return list(per_op_medians(loop.outcomes, nominal).values())
    return loop.pass_busy(nominal)


def _untraced(workload: str, seed: int, seconds: float, env: dict, build) -> tuple[dict, dict, LoopResult]:
    setup_s, inputs = _setup_seconds(workload, seed, env, build)
    ops, work_per_pass = MODULES[workload].make_ops(inputs)
    tracer = Tracer(False)
    warm = LoopResult()
    if workload != "cli":  # cli calls pay start-up every time, as a user's do
        run_pass(ops, tracer, -1, warm)
    (loop,) = closed_loop(ops, seconds, tracer)
    nominal = _at_nominal(workload)

    def metrics(nominal: bool) -> dict:
        busy = loop.pass_busy(nominal)
        calls = _calls(workload, loop, nominal)
        return {
            "work_per_s": len(busy) * work_per_pass / sum(busy),
            "call_p50_s": statistics.median(calls),
            "call_tail_s": tail(calls)[0],
        }

    _, tail_p, tail_n = tail(_calls(workload, loop, nominal))
    values = {"setup_s": setup_s, **metrics(nominal), "peak_rss_mb": _peak_rss_mb(workload)}
    stats = {
        "wall_clock": metrics(nominal=False),
        "at_nominal_speed": nominal,
        "reference_s": statistics.median(o.reference for o in loop.outcomes),
        "passes": len(loop.pass_seconds),
        "work_per_pass": work_per_pass,
        "ops_per_pass": len(ops),
        "call": "command (median over passes)" if workload == "cli" else "batch pass",
        "call_tail": {"percentile": tail_p, "samples": tail_n},
        "warmup_pass": workload != "cli",
    }
    return values, stats, _join(warm, loop)


def _join(*loops: LoopResult) -> LoopResult:
    out = LoopResult()
    for lp in loops:
        out.extend(lp)
    return out


def _traced(workload: str, seed: int, seconds: float, env: dict, build):
    fresh_import_seconds(env)
    tracer = Tracer(True)
    inputs = build(seed, tracer)
    ops, _ = MODULES[workload].make_ops(inputs)
    plain_tracer = Tracer(False)
    warm = LoopResult()
    if workload != "cli":
        run_pass(ops, plain_tracer, -1, warm)
    # untraced and traced passes alternate, so both see the same machine
    plain, traced = closed_loop(ops, seconds, plain_tracer, tracer)
    nominal = _at_nominal(workload)
    untraced_pass = statistics.median(plain.pass_busy(nominal))
    overhead = statistics.median(traced.pass_busy(nominal)) - untraced_pass
    extras = {"trace.overhead_s": overhead, "trace.overhead_frac": overhead / untraced_pass}
    if workload == "cli":
        samples = [import_times(env) for _ in range(SETUP_REPEATS)]
        for key in samples[0]:
            extras[key] = statistics.median(s[key] for s in samples)
    everything = _join(warm, plain, traced)
    spans = tracer.finished()
    values = per_layer_values(SpanIndex(spans, len(traced.pass_seconds)), everything.diagnostics, extras)
    stats = {
        "untraced_passes": len(plain.pass_seconds),
        "traced_passes": len(traced.pass_seconds),
        "untraced_pass_s": untraced_pass,
        "spans": len(spans),
    }
    return values, stats, everything, spans


def _write_spans(path: Path, run_id: str, spans) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"run": run_id, "fields": ["name", "start", "end", "parent", "pass", "work", "tag"]}) + "\n")
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.pass_id, s.work, s.tag]) + "\n")


def main(workload: str, seed: int, seconds: float, traced: bool) -> int:
    try:
        return _main(workload, seed, seconds, traced)
    except WrongCode as exc:
        log(f"refusing to measure: {exc}")
        return 3


def _main(workload: str, seed: int, seconds: float, traced: bool) -> int:
    origin = check_origin(boostfield.__file__)
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}_seed{seed}_trace{int(traced)}"
    run_id = f"{tag}_pid{os.getpid()}"
    work = OUT / f"work_{tag}"
    build = _inputs_factory(workload, env, work)
    try:
        if traced:
            values, stats, loop, spans = _traced(workload, seed, seconds, env, build)
            _write_spans(OUT / f"spans_{tag}.jsonl", run_id, spans)
            catalogue = PER_LAYER
        else:
            values, stats, loop = _untraced(workload, seed, seconds, env, build)
            catalogue = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_ops = sorted({o.op for o in loop.outcomes if not o.ok})
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "run": run_id,
        "failed_frac": loop.failed / loop.attempted,
        "failed_ops": failed_ops,
        "diagnostics": loop.diagnostics,
        **stats,
        "environment": environment(origin),
    }
    (OUT / f"run_{tag}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0
