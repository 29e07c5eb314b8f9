"""Names, units and intent of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats the end-to-end and
per-layer lists; ``run.py --self-check`` fails when the two disagree.
Each per-layer entry also names the end-to-end metric and workload it is
expected to move, so a later change can state its prediction up front.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("circuit-deep", "readout-wide", "oneway-xcheck", "anneal-gc")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None   # end-to-end only: allowed worsening, as a share of the median
    moves: str = ""              # per-layer only: end-to-end metric and workload it should move


END_TO_END = (
    Metric("jobs_per_s", "1/s", "higher", 0.25),
    Metric("job_p50_ms", "ms", "lower", 0.25),
    Metric("job_tail_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
)

_DEEP = "jobs_per_s, job_p50_ms on circuit-deep"
_WIDE = "jobs_per_s, job_tail_ms, peak_rss_mb on readout-wide; jobs_per_s on oneway-xcheck"
_ONEWAY = "jobs_per_s, job_tail_ms on oneway-xcheck"
_ANNEAL = "jobs_per_s, job_tail_ms on anneal-gc"
_GC = "jobs_per_s on anneal-gc"

PER_LAYER = (
    Metric("program_ir.parse_ms", "ms", "lower",
           moves="jobs_per_s on circuit-deep and readout-wide (predicted: no change, share < 1 %)"),
    Metric("program_ir.gates", "count", "lower",
           moves="jobs_per_s on circuit-deep and readout-wide (predicted: no change)"),
    Metric("program_ir.self_ms", "ms", "lower", moves="jobs_per_s on circuit-deep and readout-wide"),
    Metric("statevec.run_program_ms", "ms", "lower", moves=_DEEP),
    Metric("statevec.gates", "count", "lower", moves=_DEEP),
    Metric("statevec.ms_per_gate", "ms", "lower", moves=_DEEP),
    Metric("statevec.kernel_ms_per_gate", "ms", "lower", moves=_DEEP),
    Metric("statevec.wrap_ratio", "ratio", "lower", moves=_DEEP),
    Metric("statevec.bytes_computed", "B", "lower", moves=_DEEP),
    Metric("statevec.gbps_computed", "GB/s", "higher", moves=_DEEP),
    Metric("statevec.readout_ms", "ms", "lower", moves=_WIDE),
    Metric("statevec.outcomes", "count", "lower", moves=_WIDE),
    Metric("statevec.to_json_ms", "ms", "lower", moves=_WIDE),
    Metric("statevec.json_bytes", "count", "lower", moves=_WIDE),
    Metric("statevec.sample_ms", "ms", "lower", moves=_WIDE),
    Metric("statevec.tvd_ms", "ms", "lower", moves="jobs_per_s on oneway-xcheck"),
    Metric("statevec.self_ms", "ms", "lower", moves=_DEEP + "; " + _WIDE),
    Metric("oneway.compile_ms", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.json_ms", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.enumerate_ms", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.enumerate_ms.w2", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.enumerate_ms.w3", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.enumerate_ms.w4", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.enumerate_ms.w5", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.single_ms", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.determinism_ms", "ms", "lower", moves=_ONEWAY),
    Metric("oneway.measurements", "count", "lower", moves=_ONEWAY),
    Metric("oneway.vertices", "count", "lower", moves=_ONEWAY),
    Metric("oneway.self_ms", "ms", "lower", moves=_ONEWAY),
    Metric("adiabatic.search_ms.linear", "ms", "lower", moves=_ANNEAL),
    Metric("adiabatic.search_ms.local", "ms", "lower", moves=_ANNEAL),
    Metric("adiabatic.evolve_ms", "ms", "lower", moves=_ANNEAL),
    Metric("adiabatic.steps", "count", "lower", moves=_ANNEAL),
    Metric("adiabatic.us_per_step", "us", "lower", moves=_ANNEAL),
    Metric("adiabatic.self_ms", "ms", "lower", moves=_ANNEAL),
    Metric("global_control.script_ms", "ms", "lower", moves=_GC),
    Metric("global_control.transport_ms", "ms", "lower", moves=_GC),
    Metric("global_control.pulses", "count", "lower", moves=_GC),
    Metric("global_control.self_ms", "ms", "lower", moves=_GC),
    Metric("glue.self_ms", "ms", "lower", moves="jobs_per_s on every workload (predicted: no change)"),
    Metric("machine.copy_gbps", "GB/s", "higher", moves="none: the machine's own copy bandwidth"),
    Metric("trace.overhead_frac", "frac", "lower", moves="none: cost of the traced run itself"),
)

COUNT_UNITS = ("count", "B")
