"""Metric catalogue: end-to-end metrics of untraced runs, per-layer metrics of traced runs.

BENCHMARK.json lists the same names, units and directions; the self-test
holds the two together.  Every workload reports every metric.  A per-layer
metric of a layer that does no work in a workload reads 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from harness import LAYERS, Span, self_times
from wl_certify import KINDS
from wl_spectral import SAMPLES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("call_p50_s", "s", "lower", 0.25),
    Metric("call_tail_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_COMMANDS = (
    "boost",
    "field_axis",
    "spectrum_csv",
    "verify_envelope",
    "verify_derivatives",
    "evolve_kgf_1d",
    "evolve_schrodinger_3d",
    "config_replay",
)

# bytes one periodic_laplacian call must move at the least: read f, write out
LAPLACIAN_BYTES_PER_CELL = 2 * 16


class SpanIndex:
    """Spans of one traced run with their self times, selectable by name, layer and tag."""

    def __init__(self, spans: list[Span], passes: int) -> None:
        self.passes = max(passes, 1)
        self.all = list(zip(spans, self_times(spans)))
        self.by_name: dict[str, list] = {}
        self.by_layer: dict[str, list] = {}
        for pair in self.all:
            self.by_name.setdefault(pair[0].name, []).append(pair)
            self.by_layer.setdefault(pair[0].layer, []).append(pair)

    def pick(self, name=None, layer=None, tag=None, timed_only=False):
        """(span, self seconds) pairs; timed_only leaves out spans made while building inputs."""
        if name is not None:
            pairs = self.by_name.get(name, [])
        elif layer is not None:
            pairs = self.by_layer.get(layer, [])
        else:
            pairs = self.all
        for s, own in pairs:
            if (tag is None or s.tag == tag) and not (timed_only and s.pass_id < 0):
                yield s, own

    def per_work(self, scale: float, **sel) -> float:
        """Self time per unit of work, times ``scale``; 0 without work."""
        picked = list(self.pick(**sel))
        work = sum(s.work for s, _ in picked)
        return scale * sum(own for _, own in picked) / work if work else 0.0

    def per_call(self, scale: float, **sel) -> float:
        picked = list(self.pick(**sel))
        return scale * sum(own for _, own in picked) / len(picked) if picked else 0.0

    def work_per_call(self, **sel) -> float:
        picked = list(self.pick(**sel))
        return sum(s.work for s, _ in picked) / len(picked) if picked else 0.0

    def rate(self, **sel) -> float:
        """Work per second of self time; 0 without spans."""
        picked = list(self.pick(**sel))
        busy = sum(own for _, own in picked)
        return sum(s.work for s, _ in picked) / busy if busy > 0 else 0.0

    def total(self, **sel) -> float:
        return sum(s.seconds for s, _ in self.pick(**sel))

    def median_call(self, **sel) -> float:
        durations = [s.seconds for s, _ in self.pick(**sel)]
        return statistics.median(durations) if durations else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer_catalogue() -> list[tuple[Metric, Callable]]:
    """(metric, value(index, diagnostics, extras)) pairs."""
    out: list[tuple[Metric, Callable]] = []

    def add(name, unit, better, fn):
        out.append((Metric(name, unit, better), fn))

    def diag(key):
        return lambda ix, d, x: float(d.get(key, 0.0))

    for fn in ("boost_event", "comoving_coords", "inverse_boost_event"):
        add(f"kinematics.{fn}.us_per_event", "us", "lower", lambda ix, d, x, fn=fn: ix.per_work(1e6, name=f"kinematics.{fn}"))
    for kind in KINDS:
        add(f"profiles.scalar.{kind}.us_per_call", "us", "lower", lambda ix, d, x, k=kind: ix.per_work(1e6, layer="profiles", tag=f"scalar.{k}"))
    for kind in KINDS:
        add(f"profiles.array.{kind}.ns_per_point", "ns", "lower", lambda ix, d, x, k=kind: ix.per_work(1e9, layer="profiles", tag=f"array.{k}"))

    def psi_lab(ix):
        return ix.per_work(1e6, name="fields.FieldSpec.psi_lab")

    def on_axis(ix):
        return ix.per_work(1e6, name="fields.FieldSpec.psi_lab_on_axis")

    add("fields.psi_lab.us_per_event", "us", "lower", lambda ix, d, x: psi_lab(ix))
    add("fields.envelope.us_per_event", "us", "lower", lambda ix, d, x: ix.per_work(1e6, name="fields.FieldSpec.envelope"))
    add("fields.psi_lab_on_axis.us_per_event", "us", "lower", lambda ix, d, x: on_axis(ix))
    add("fields.scalar_over_array_ratio", "ratio", "lower", lambda ix, d, x: _ratio(psi_lab(ix), on_axis(ix)))

    add("verify.sample_events.us_per_event", "us", "lower", lambda ix, d, x: ix.per_work(1e6, name="verify.sample_events"))
    for metric, fn, tag in (
        ("envelope_residual", "envelope_equation_residual", "analytic"),
        ("envelope_residual_fd", "envelope_equation_residual", "fd"),
        ("klein_gordon_residual", "klein_gordon_residual", None),
        ("schrodinger_residual", "schrodinger_residual", None),
        ("scalar_invariance_check", "scalar_invariance_check", None),
    ):
        add(f"verify.{metric}.us_per_event", "us", "lower", lambda ix, d, x, fn=fn, tag=tag: ix.per_work(1e6, name=f"verify.{fn}", tag=tag))
    add("verify.derivative_slopes.ms_per_event", "ms", "lower", lambda ix, d, x: ix.per_work(1e3, name="verify.derivative_slopes"))
    add("verify.max_normalized_residual", "ratio", "lower", diag("verify.max_normalized_residual"))
    add("verify.max_fd_residual", "ratio", "lower", diag("verify.max_fd_residual"))
    add("verify.max_slope_deviation", "ratio", "lower", diag("verify.max_slope_deviation"))

    add("spectral.sample_rest_signal.ns_per_sample", "ns", "lower", lambda ix, d, x: ix.per_work(1e9, name="spectral.sample_rest_signal"))
    for window in ("full", "narrow"):
        add(
            f"spectral.extract_harmonic.{window}.ms_per_probe",
            "ms",
            "lower",
            lambda ix, d, x, w=window: ix.per_call(1e3, name="spectral.extract_harmonic", tag=w),
        )
    add("spectral.scan_spectrum.ms_per_probe", "ms", "lower", lambda ix, d, x: ix.per_work(1e3 * SAMPLES, name="spectral.scan_spectrum", tag="full"))
    add("spectral.scan_spectrum.wide.ms_per_probe", "ms", "lower", lambda ix, d, x: ix.per_work(1e3 * SAMPLES, name="spectral.scan_spectrum", tag="wide"))
    add("spectral.time_average.ms_per_call", "ms", "lower", lambda ix, d, x: ix.per_call(1e3, name="spectral.time_average"))
    add("spectral.reconstruct.ns_per_sample_probe", "ns", "lower", lambda ix, d, x: ix.per_work(1e9, name="spectral.reconstruct"))
    add("spectral.max_error_over_bound", "ratio", "lower", diag("spectral.max_error_over_bound"))

    for fn, tag in (
        ("evolve_schrodinger", "3d"),
        ("evolve_schrodinger", "3d_potential"),
        ("evolve_schrodinger", "1d"),
        ("evolve_kgf", "3d"),
        ("evolve_kgf", "1d_monitored"),
    ):
        add(f"pde.{fn}.{tag}.cell_steps_per_s", "1/s", "higher", lambda ix, d, x, fn=fn, tag=tag: ix.rate(name=f"pde.{fn}", tag=tag))
    add("pde.periodic_laplacian.ms_per_call", "ms", "lower", lambda ix, d, x: ix.per_call(1e3, name="pde.periodic_laplacian"))
    add(
        "pde.periodic_laplacian.computed_bytes_per_call",
        "bytes",
        "lower",
        lambda ix, d, x: LAPLACIAN_BYTES_PER_CELL * ix.work_per_call(name="pde.periodic_laplacian"),
    )
    add(
        "pde.periodic_laplacian.computed_gb_per_s",
        "GB/s",
        "higher",
        lambda ix, d, x: LAPLACIAN_BYTES_PER_CELL * 1e-9 * ix.rate(name="pde.periodic_laplacian"),
    )
    for tag, unit, scale in (
        ("crank_nicolson_3d", "ms", 1e3),
        ("leapfrog_3d", "ms", 1e3),
        ("leapfrog_1d", "us", 1e6),
    ):
        add(f"pde.measure_observables.{tag}.{unit}_per_call", unit, "lower", lambda ix, d, x, tag=tag, s=scale: ix.per_call(s, name="pde.measure_observables", tag=tag))
    add("pde.measure_dispersion.ms_per_call", "ms", "lower", lambda ix, d, x: ix.per_call(1e3, name="pde.measure_dispersion"))
    add(
        "pde.monitor_share",
        "ratio",
        "lower",
        lambda ix, d, x: _ratio(ix.total(name="bench.monitor"), ix.total(name="pde.evolve_kgf", tag="1d_monitored")),
    )
    for key in (
        "pde.evolve_schrodinger.3d.norm_drift",
        "pde.evolve_schrodinger.1d.norm_drift",
        "pde.evolve_kgf.energy_band_rel",
        "pde.dispersion.rel_err",
    ):
        add(key, "ratio", "lower", diag(key))

    add("cli.import.boostfield_s", "s", "lower", lambda ix, d, x: float(x.get("cli.import.boostfield_s", 0.0)))
    add("cli.import.scipy_s", "s", "lower", lambda ix, d, x: float(x.get("cli.import.scipy_s", 0.0)))
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}.s", "s", "lower", lambda ix, d, x, c=cmd: ix.median_call(name="cli.main", tag=c))
    add(
        "cli.output_bytes",
        "bytes",
        "lower",
        lambda ix, d, x: sum(v for k, v in d.items() if k.startswith("cli.output_bytes.")),
    )

    for layer in LAYERS:
        add(f"{layer}.calls_per_pass", "count", "lower", lambda ix, d, x, L=layer: len(list(ix.pick(layer=L, timed_only=True))) / ix.passes)
        add(f"{layer}.work_per_pass", "count", "higher", lambda ix, d, x, L=layer: sum(s.work for s, _ in ix.pick(layer=L, timed_only=True)) / ix.passes)
        add(f"{layer}.busy_s_per_pass", "s", "lower", lambda ix, d, x, L=layer: sum(own for _, own in ix.pick(layer=L, timed_only=True)) / ix.passes)

    add("trace.overhead_s", "s", "lower", lambda ix, d, x: float(x["trace.overhead_s"]))
    add("trace.overhead_frac", "ratio", "lower", lambda ix, d, x: float(x["trace.overhead_frac"]))
    add("trace.spans_per_pass", "count", "lower", lambda ix, d, x: len(list(ix.pick(timed_only=True))) / ix.passes)
    return out


PER_LAYER_CATALOGUE = _per_layer_catalogue()
PER_LAYER = tuple(m for m, _ in PER_LAYER_CATALOGUE)


def per_layer_values(index: SpanIndex, diagnostics: dict, extras: dict) -> dict[str, float]:
    return {m.name: float(fn(index, diagnostics, extras)) for m, fn in PER_LAYER_CATALOGUE}
