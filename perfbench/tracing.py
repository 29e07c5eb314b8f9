"""Spans and counts recorded from the benchmark's side of qpc's public API.

``instrumented`` swaps each listed public function for a wrapper, in every
qpc module that binds it, for the duration of a ``with`` block; the package
itself carries no tracing code.  A span records its name, start, end,
parent span and the job it belongs to; counts are taken at the same call
boundaries from the arguments and results.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, job id, attrs].
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.job, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    @contextmanager
    def job_span(self, job_id: int, key: str):
        self.job = job_id
        idx = self.open("job", {"key": key})
        try:
            yield
        finally:
            self.close(idx)
            self.job = -1

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job", "attrs"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


# ---------------------------------------------------------------------------
# what gets wrapped: (module, attribute, span-name function, count function)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _targets(qpc):
    sv, ow, ad, gc, ir = qpc.statevec, qpc.oneway, qpc.adiabatic, qpc.global_control, qpc.program_ir

    def fixed(name):
        return lambda args, kwargs: (name, None)

    def parse_counts(args, kwargs, result):
        return {"program_ir.gates": len(result.gates)}

    def run_span(args, kwargs):
        program, s_in = args[0], _arg(args, kwargs, 1, "s_in")
        return "statevec.run_program", {"n": len(s_in), "gates": len(program.gates)}

    def run_counts(args, kwargs, result):
        gates = len(args[0].gates)
        return {"statevec.gates": gates, "statevec.bytes_computed": gates * 2 * result.amplitudes.nbytes}

    def readout_counts(args, kwargs, result):
        return {"statevec.outcomes": len(result.entries)}

    def json_counts(args, kwargs, result):
        return {"statevec.json_bytes": len(result)}

    def simulate_span(args, kwargs):
        policy = kwargs.get("policy", "enumerate-all")
        name = "oneway.enumerate" if policy == "enumerate-all" else "oneway.single"
        return name, {"wires": args[0].wires}

    def compile_counts(args, kwargs, result):
        return {"oneway.vertices": len(result.vertices), "oneway.measurements": len(result.steps)}

    def search_span(args, kwargs):
        return "adiabatic.search." + _arg(args, kwargs, 1, "kind"), {"n": args[0].n}

    def evolve_counts(args, kwargs, result):
        return {"adiabatic.steps": args[1].steps}

    def pulse_counts(args, kwargs, result):
        return {"global_control.pulses": 1}

    return [
        (ir, "parse_program", fixed("program_ir.parse"), parse_counts),
        (sv, "exact_distribution", fixed("statevec.exact_distribution"), None),
        (sv, "run_program", run_span, run_counts),
        (sv, "state_distribution", fixed("statevec.readout"), readout_counts),
        (sv.Distribution, "to_json", fixed("statevec.to_json"), json_counts),
        (sv, "sample", fixed("statevec.sample"), None),
        (sv, "total_variation_distance", fixed("statevec.tvd"), None),
        (sv, "apply_single_qubit", fixed("statevec.kernel"), None),
        (sv, "apply_two_qubit", fixed("statevec.kernel"), None),
        (sv, "apply_cz", fixed("statevec.kernel"), None),
        (ow, "compile_to_pattern", fixed("oneway.compile"), compile_counts),
        (ow, "pattern_to_json", fixed("oneway.json"), None),
        (ow, "pattern_from_json", fixed("oneway.json"), None),
        (ow, "simulate_pattern", simulate_span, None),
        (ow, "branch_determinism_check", fixed("oneway.determinism"), None),
        (ad, "runtime_to_target", search_span, None),
        (ad, "evolve", fixed("adiabatic.evolve"), evolve_counts),
        (gc, "run_script", fixed("global_control.script"), None),
        (gc, "transport_demo", fixed("global_control.transport"), None),
        (gc, "apply_pulse", fixed("global_control.pulse"), pulse_counts),
    ]


def _wrap(tracer: Tracer, func, span_of, counts_of):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        name, attrs = span_of(args, kwargs)
        idx = tracer.open(name, attrs)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts_of is not None:
            for key, value in counts_of(args, kwargs, result).items():
                tracer.counts[key] += value
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer, qpc):
    """Route every call of the listed qpc functions through span wrappers."""
    modules = [m for name, m in sys.modules.items() if name == "qpc" or name.startswith("qpc.")]
    undo = []
    try:
        for owner, attr, span_of, counts_of in _targets(qpc):
            original = owner.__dict__[attr]
            wrapper = _wrap(tracer, original, span_of, counts_of)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        undo.append((holder, name, original))
        yield tracer
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)
