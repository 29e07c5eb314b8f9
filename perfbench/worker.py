"""One workload in one process: set up, run the timed phase, check, report.

``run.py`` starts this file; it prints a single JSON record as the last line
of its standard output.  Modes:

* ``--setup-only``: set up (imports, inputs, input files, warm-up), print
  the moment the first timed job would start, exit;
* default: set up, then run the timed phase untraced (``--trace 0``) or as
  interleaved untraced/traced pairs (``--trace 1``), then check every job;
* ``--copy-bandwidth``: the machine's sustained copy bandwidth only.

Every workload is a closed loop with one client: the next job starts when
the previous one has returned.  The timed phase is a fixed number of whole
passes over the job list (``workloads.passes``); its wall time is the sum of
the job intervals.  Turning each output into a small summary and comparing
it runs between jobs with the clock stopped, and the reference checks run
after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import machine  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TVD_TOL = 1e-9
NORM_TOL = 1e-10
SEARCH_TARGET = 0.9


def import_qpc():
    """qpc from this checkout's ``src``; never an installed copy."""
    src = ROOT / "src"
    if not (src / "qpc" / "__init__.py").is_file():
        raise SystemExit(f"error: no qpc sources under {src}")
    sys.path.insert(0, str(src))
    import qpc

    if Path(qpc.__file__).resolve().parent != (src / "qpc").resolve():
        raise SystemExit(f"error: imported qpc from {qpc.__file__}, not from {src}")
    return qpc


# ---------------------------------------------------------------------------
# jobs: each runner does what one CLI subcommand or the README example does,
# through qpc's public functions (looked up at call time, so tracing sees them)


class Runner:
    def __init__(self, qpc, workdir: Path) -> None:
        self.qpc = qpc
        self.workdir = workdir

    def write_inputs(self, jobs) -> None:
        for job in jobs:
            for name, text in job.files.items():
                (self.workdir / name).write_text(text, encoding="utf-8")

    def __call__(self, job):
        return getattr(self, "_" + job.kind)(job.params)

    def _program(self, name: str):
        with open(self.workdir / name, "r", encoding="utf-8") as fh:
            return self.qpc.parse_program(fh.read())

    def _run(self, p):
        qpc = self.qpc
        program = self._program(p["program"])
        s_in = p["input"]
        qubits = tuple(range(len(s_in))) if p["readout"] is None else tuple(p["readout"])
        dist = qpc.exact_distribution(program, s_in, qpc.ReadoutSpec(qubits))
        counts = qpc.sample(dist, p["shots"], p["sample_seed"])
        text = dist.to_json() if p["json"] else json.dumps(counts, sort_keys=True)
        return {"dist": dist, "counts": counts, "text": text}

    def _xcheck(self, p):
        qpc = self.qpc
        program = self._program(p["program"])
        s_in = p["input"]
        pattern = qpc.compile_to_pattern(program)
        pattern = qpc.pattern_from_json(qpc.pattern_to_json(pattern))
        enum = qpc.simulate_pattern(pattern, s_in)
        single = qpc.simulate_pattern(pattern, s_in, policy="seeded-random", seed=p["seed"])
        det = qpc.branch_determinism_check(pattern, s_in)
        exact = qpc.exact_distribution(program, s_in, qpc.ReadoutSpec(tuple(range(len(s_in)))))
        return {
            "det": det,
            "tvd_enum": qpc.total_variation_distance(exact, enum),
            "tvd_single": qpc.total_variation_distance(exact, single),
            "exact": exact,
        }

    def _search(self, p):
        qpc = self.qpc
        return {"T": qpc.runtime_to_target(qpc.GroverInstance(p["marked"]), p["kind"], SEARCH_TARGET)}

    @staticmethod
    def grover_steps(total_time: float) -> int:
        return int(np.clip(math.ceil(total_time / 0.05), 200, 500_000))

    def _grover(self, p):
        qpc = self.qpc
        schedule = qpc.Schedule(p["kind"], p["time"], self.grover_steps(p["time"]))
        report = qpc.evolve(qpc.GroverInstance(p["marked"]), schedule)
        text = json.dumps({"overlap": report.final_overlap, "min_gap": report.min_gap_seen,
                           "T": p["time"]}, sort_keys=True)
        return {"report": report, "text": text}

    def _gc(self, p):
        qpc = self.qpc
        chain = qpc.chain_from_bits(p["pattern"], p["bits"])
        with open(self.workdir / p["script"], "r", encoding="utf-8") as fh:
            script = fh.read()
        final, events = qpc.run_script(chain, script, seed=p["seed"])
        probs = final.state.probabilities().reshape((2,) * final.length)
        excitation = [float(np.sum(np.take(probs, 1, axis=c))) for c in range(final.length)]
        text = json.dumps({"pattern": p["pattern"], "length": p["length"], "events": events,
                           "cell_excitation": excitation}, sort_keys=True)
        return {"final": final, "events": events, "excitation": excitation, "text": text}

    def _transport(self, p):
        qpc = self.qpc
        chain = qpc.chain_from_bits(p["pattern"], "0" * p["length"])
        payload = reference.payload_state(*p["payload"])
        return {"chain": qpc.transport_demo(chain, payload, p["rounds"])}


# ---------------------------------------------------------------------------
# outputs -> compact summaries (between jobs) -> reference checks (after)


def summarize(job, out) -> dict:
    """Small, comparable form of a job's output; repeats must match exactly."""
    if job.kind == "run":
        dist = out["dist"]
        m = len(next(iter(dist.entries)))
        keys = sorted(dist.entries)
        summary = {
            "probs": reference.entries_to_array(dist.entries, m),
            "counts": np.array([out["counts"].get(k, -1) for k in keys]),
            "counts_keys_ok": set(out["counts"]) == set(keys),
            "text": hash(out["text"]),
        }
        if job.params["json"]:
            parsed = json.loads(out["text"])
            summary["json_ok"] = list(parsed) == keys and parsed == dict(dist.entries)
        return summary
    if job.kind == "xcheck":
        exact = out["exact"]
        return {"det": out["det"], "tvd_enum": out["tvd_enum"], "tvd_single": out["tvd_single"],
                "probs": reference.entries_to_array(exact.entries, len(job.params["input"]))}
    if job.kind == "search":
        return {"T": out["T"]}
    if job.kind == "grover":
        r = out["report"]
        return {"overlap": r.final_overlap, "min_gap": r.min_gap_seen, "norm": r.final_norm,
                "text": out["text"]}
    if job.kind == "gc":
        return {"norm": float(np.linalg.norm(out["final"].state.amplitudes)),
                "events": out["events"], "excitation": out["excitation"], "text": out["text"]}
    if job.kind == "transport":
        p = job.params
        amps = out["chain"].state.amplitudes
        site = len(p["pattern"]) * p["rounds"]
        expect = reference.transported(reference.payload_state(*p["payload"]), p["length"], site)
        return {"fidelity": float(abs(np.vdot(expect, amps)) ** 2),
                "norm": float(np.linalg.norm(amps))}
    raise ValueError(f"unknown job kind {job.kind!r}")


def same(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def check(job, s: dict, qpc) -> list[str]:
    """Problems found against the benchmark's independent references."""
    p = job.params
    bad = []
    if job.kind in ("run", "xcheck"):
        n = len(p["input"])
        qubits = list(range(n)) if job.kind == "xcheck" or p["readout"] is None else p["readout"]
        ref = reference.marginal(reference.statevector(job.gates, n, p["input"]), n, qubits)
        if reference.tvd(s["probs"], ref) > TVD_TOL:
            bad.append(f"TVD {reference.tvd(s['probs'], ref):.3e} against the reference")
        if abs(float(s["probs"].sum()) - 1.0) > NORM_TOL:
            bad.append(f"probabilities sum to {s['probs'].sum()!r}")
    if job.kind == "run":
        want = reference.multinomial_counts(ref, p["shots"], p["sample_seed"])
        if not s["counts_keys_ok"] or not np.array_equal(s["counts"], want):
            bad.append("sampled counts differ from the seeded multinomial draw")
        if not s.get("json_ok", True):
            bad.append("to_json text does not round-trip to the distribution")
    elif job.kind == "xcheck":
        if s["det"] is not True:
            bad.append("branch_determinism_check returned False")
        if max(s["tvd_enum"], s["tvd_single"]) > TVD_TOL:
            bad.append(f"one-way TVD {max(s['tvd_enum'], s['tvd_single']):.3e}")
    elif job.kind == "search":
        T = s["T"]
        steps = Runner.grover_steps(T)
        report = qpc.evolve(qpc.GroverInstance(p["marked"]), qpc.Schedule(p["kind"], T, steps))
        if not (math.isfinite(T) and T > 0 and report.final_overlap >= SEARCH_TARGET):
            bad.append(f"evolve at T = {T} reaches overlap {report.final_overlap}")
    elif job.kind == "grover":
        n = len(p["marked"])
        if abs(s["norm"] - 1.0) > NORM_TOL or not 0.0 <= s["overlap"] <= 1.0:
            bad.append(f"norm {s['norm']!r}, overlap {s['overlap']!r}")
        if s["min_gap"] < 2.0 ** (-n / 2) * (1 - 1e-9):
            bad.append(f"min gap {s['min_gap']} below 2^(-n/2)")
        if p["kind"] == "linear":
            steps = Runner.grover_steps(p["time"])
            dt = p["time"] / steps
            overlap, _ = reference.anneal_overlap(n, (np.arange(steps) + 0.5) * dt / p["time"], dt)
            if abs(overlap - s["overlap"]) > TVD_TOL:
                bad.append(f"overlap {s['overlap']} vs reference {overlap}")
    elif job.kind == "gc":
        cells = p["length"]
        lines = [ln for ln in (job.files[p["script"]].splitlines()) if ln.strip()]
        if abs(s["norm"] - 1.0) > NORM_TOL or len(s["events"]) != len(lines):
            bad.append(f"norm {s['norm']!r}, {len(s['events'])} events for {len(lines)} lines")
        if any(not -1e-12 <= x <= 1 + 1e-12 for x in s["excitation"]):
            bad.append("cell excitation outside [0, 1]")
        if any(not 0 <= ev.get("weight", 0) <= cells for ev in s["events"]):
            bad.append("bulk weight outside [0, cells]")
    elif job.kind == "transport":
        if abs(s["fidelity"] - 1.0) > NORM_TOL or abs(s["norm"] - 1.0) > NORM_TOL:
            bad.append(f"fidelity {s['fidelity']!r}, norm {s['norm']!r}")
    return bad


# ---------------------------------------------------------------------------
# timed phase


class Ledger:
    """Latencies, summaries and failures of every executed job."""

    def __init__(self) -> None:
        self.first: dict[str, dict] = {}
        self.executions: list[tuple[str, float, bool]] = []   # (key, seconds, ok so far)
        self.errors: dict[str, str] = {}

    def record(self, job, seconds: float, out, error: str | None) -> None:
        ok = error is None
        if ok:
            summary = summarize(job, out)
            first = self.first.setdefault(job.key, summary)
            if first is not summary and not same(first, summary):
                ok, error = False, "output differs from the job's first run"
        if error:
            self.errors.setdefault(job.key, error)
        self.executions.append((job.key, seconds, ok))


def execute(runner, job):
    t0 = time.perf_counter()
    try:
        out, error = runner(job), None
    except Exception as exc:   # a failing job is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, error


def untraced_phase(runner, jobs, passes: int, ledger: Ledger) -> None:
    """Whole passes over the job list."""
    for _ in range(passes):
        for job in jobs:
            dt, out, error = execute(runner, job)
            ledger.record(job, dt, out, error)
            out = None


def traced_phase(qpc, runner, jobs, passes: int, ledger: Ledger, tracer) -> dict:
    """Whole passes of untraced/traced pairs of each job, in alternating order.

    Whole passes keep the per-pass counts exact; the pair order alternates so
    neither side always runs on the warmer cache.
    """
    plain = traced = 0.0
    job_id = 0
    for p in range(passes):
        for i, job in enumerate(jobs):
            for traced_turn in ((False, True) if (i + p) % 2 == 0 else (True, False)):
                if traced_turn:
                    with tracing.instrumented(tracer, qpc), tracer.job_span(job_id, job.key):
                        dt, out, error = execute(runner, job)
                    job_id += 1
                    traced += dt
                else:
                    dt, out, error = execute(runner, job)
                    plain += dt
                ledger.record(job, dt, out, error)
                out = None
    return {"passes": passes, "plain_s": plain, "traced_s": traced, "jobs": job_id}


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(ledger: Ledger, failed_keys: set[str]) -> dict:
    """Latency statistics over every job, and throughput from per-job medians.

    Every pass runs the same job list, so jobs_per_s is the inverse of the
    list's time-to-solution per job, taking each job's median latency over
    the passes: a slow stretch of the machine that hits a minority of a
    job's runs does not move it.
    """
    oks = [(dt if ok and key not in failed_keys else math.inf) for key, dt, ok in ledger.executions]
    done = sum(1 for x in oks if math.isfinite(x))
    per_job: dict[str, list[float]] = {}
    for key, dt, _ in ledger.executions:
        per_job.setdefault(key, []).append(dt)
    typical = sum(statistics.median(xs) for xs in per_job.values())
    value, pct, n = tail(oks)
    return {
        "jobs_per_s": len(per_job) / typical * done / len(oks),
        "timed_s": sum(dt for _, dt, _ in ledger.executions),
        "job_median_ms": {key: 1e3 * statistics.median(xs) for key, xs in per_job.items()},
        "job_p50_ms": 1e3 * statistics.median(oks),
        "job_tail_ms": 1e3 * value,
        "tail_percentile": pct,
        "samples": n,
        "attempted": len(oks),
        "failed": len(oks) - done,
        "failed_frac": (len(oks) - done) / len(oks),
    }


def _mean(xs):
    return sum(xs) / len(xs)


def layer_metrics(tracer, passes: int, jobs: int) -> tuple[dict, dict]:
    """Per-layer metrics from one tracer's spans, plus per-size breakdowns."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    by_name: dict[str, list] = {}
    layer_self: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        name, start, end, _, _, attrs = span
        by_name.setdefault(name, []).append((end - start, attrs))
        layer = "glue" if name == "job" else name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def ms(name, where=lambda a: True):
        xs = [d for d, a in by_name.get(name, ()) if where(a)]
        return 1e3 * _mean(xs) if xs else None

    out: dict[str, float] = {}
    detail: dict = {}

    def put(name, value):
        if value is not None:
            out[name] = value

    put("program_ir.parse_ms", ms("program_ir.parse"))
    put("statevec.run_program_ms", ms("statevec.run_program"))
    runs = by_name.get("statevec.run_program", ())
    gates = sum(a["gates"] for _, a in runs)
    if gates:
        busy = sum(d for d, _ in runs)
        put("statevec.ms_per_gate", 1e3 * busy / gates)
        put("statevec.gbps_computed", tracer.counts["statevec.bytes_computed"] / busy / 1e9)
        per_n: dict[int, list] = {}
        for d, a in runs:
            per_n.setdefault(a["n"], [0.0, 0])
            per_n[a["n"]][0] += d
            per_n[a["n"]][1] += a["gates"]
        detail["ms_per_gate_by_n"] = {str(n): 1e3 * t / g for n, (t, g) in sorted(per_n.items())}
    put("statevec.readout_ms", ms("statevec.readout"))
    put("statevec.to_json_ms", ms("statevec.to_json"))
    put("statevec.sample_ms", ms("statevec.sample"))
    put("statevec.tvd_ms", ms("statevec.tvd"))
    put("oneway.compile_ms", ms("oneway.compile"))
    put("oneway.json_ms", ms("oneway.json"))
    put("oneway.enumerate_ms", ms("oneway.enumerate"))
    for w in (2, 3, 4, 5):
        put(f"oneway.enumerate_ms.w{w}", ms("oneway.enumerate", lambda a, w=w: a["wires"] == w))
    put("oneway.single_ms", ms("oneway.single"))
    put("oneway.determinism_ms", ms("oneway.determinism"))
    for kind in ("linear", "local"):
        put(f"adiabatic.search_ms.{kind}", ms(f"adiabatic.search.{kind}"))
    put("adiabatic.evolve_ms", ms("adiabatic.evolve"))
    if tracer.counts.get("adiabatic.steps"):
        evolve_s = sum(d for d, _ in by_name["adiabatic.evolve"])
        put("adiabatic.us_per_step", 1e6 * evolve_s / tracer.counts["adiabatic.steps"])
    put("global_control.script_ms", ms("global_control.script"))
    put("global_control.transport_ms", ms("global_control.transport"))
    for layer in ("program_ir", "statevec", "oneway", "adiabatic", "global_control", "glue"):
        if layer in layer_self:
            out[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / jobs
    for key, total in tracer.counts.items():
        if total % passes:
            raise RuntimeError(f"count {key} = {total} is not a whole multiple of {passes} passes")
        out[key] = total // passes
    return out, detail


def kernel_probe(qpc, jobs) -> tuple[float, dict] | None:
    """ms per gate of each distinct program's gates on one bare vector."""
    sv = qpc.statevec
    per_n: dict[int, list] = {}
    for job in jobs:
        if not job.gates:
            continue
        n = len(job.params["input"])
        gates = [(g.target, g.matrix()) if isinstance(g, qpc.RotationGate) else (g.control, g.target)
                 for g in qpc.parse_program(workloads.render(job.gates)).gates]
        vec = np.zeros(1 << n, dtype=complex)
        vec[int(job.params["input"], 2)] = 1.0
        t0 = time.perf_counter()
        for a, b in gates:
            vec = sv.apply_single_qubit(vec, n, a, b) if isinstance(b, np.ndarray) else sv.apply_cz(vec, n, a, b)
        acc = per_n.setdefault(n, [0.0, 0])
        acc[0] += time.perf_counter() - t0
        acc[1] += len(gates)
    if not per_n:
        return None
    total = sum(t for t, _ in per_n.values()) / sum(g for _, g in per_n.values())
    return 1e3 * total, {str(n): 1e3 * t / g for n, (t, g) in sorted(per_n.items())}


def traced_metrics(qpc, runner, jobs, tracer, phase, workload, seed) -> tuple[dict, dict]:
    metrics, detail = layer_metrics(tracer, phase["passes"], phase["jobs"])
    detail["metrics_from_workload"] = sorted(metrics)
    probe = kernel_probe(qpc, jobs)
    if probe is not None:
        metrics["statevec.kernel_ms_per_gate"], detail["kernel_ms_per_gate_by_n"] = probe
    # Layers this workload never calls are measured on the tiny job lists of
    # the other workloads, so every per-layer metric is a measurement.
    derived = {"machine.copy_gbps", "trace.overhead_frac", "statevec.wrap_ratio"}
    wanted = {m.name for m in catalog.PER_LAYER} - derived
    if wanted - set(metrics):
        cover = [job for other in catalog.WORKLOADS if other != workload
                 for job in workloads.build(other, seed, tiny=True)]
        cover_runner = Runner(qpc, runner.workdir / "coverage")
        cover_runner.workdir.mkdir()
        cover_runner.write_inputs(cover)
        cover_tracer = tracing.Tracer()
        with tracing.instrumented(cover_tracer, qpc):
            for i, job in enumerate(cover):
                with cover_tracer.job_span(i, job.key):
                    cover_runner(job)
        cover_metrics, _ = layer_metrics(cover_tracer, 1, len(cover))
        if "statevec.kernel_ms_per_gate" not in metrics:
            cover_metrics["statevec.kernel_ms_per_gate"] = kernel_probe(qpc, cover)[0]
        missing = sorted(wanted - set(metrics))
        metrics.update({k: cover_metrics[k] for k in missing if k in cover_metrics})
        detail["metrics_from_tiny_coverage"] = missing
    if "statevec.ms_per_gate" in metrics and "statevec.kernel_ms_per_gate" in metrics:
        metrics["statevec.wrap_ratio"] = metrics["statevec.ms_per_gate"] / metrics["statevec.kernel_ms_per_gate"]
    metrics["trace.overhead_frac"] = (phase["traced_s"] - phase["plain_s"]) / phase["plain_s"]
    return metrics, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check sizes")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--copy-bandwidth", action="store_true")
    args = ap.parse_args(argv)

    if args.copy_bandwidth:
        print(json.dumps(machine.copy_bandwidth(np)))
        return 0

    qpc = import_qpc()
    jobs = workloads.build(args.workload, args.seed, tiny=args.tiny)
    warm = workloads.build(args.workload, args.seed + 1, tiny=True)
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(qpc, workdir)
        runner.write_inputs(jobs)
        (workdir / "warm").mkdir()
        warm_runner = Runner(qpc, workdir / "warm")
        warm_runner.write_inputs(warm)
        for job in warm:
            warm_runner(job)
        t_ready = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"t_ready": t_ready}))
            return 0

        ledger = Ledger()
        tracer = tracing.Tracer()
        count = workloads.passes(args.workload, args.seconds, args.tiny)
        if args.trace:
            phase = traced_phase(qpc, runner, jobs, max(1, count // 2), ledger, tracer)
        else:
            phase = None
            untraced_phase(runner, jobs, count, ledger)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed_keys = set(ledger.errors)
        for job in jobs:
            if job.key in ledger.first:
                problems = check(job, ledger.first[job.key], qpc)
                if problems:
                    failed_keys.add(job.key)
                    ledger.errors.setdefault(job.key, "; ".join(problems))
        record = {
            "t_ready": t_ready,
            "peak_rss_mb": peak_rss_mb,
            "distinct_jobs": len(jobs),
            "errors": ledger.errors,
            **end_to_end(ledger, failed_keys),
        }
        if args.trace:
            metrics, detail = traced_metrics(qpc, runner, jobs, tracer, phase, args.workload, args.seed)
            record.update(trace_phase=phase, per_layer=metrics, per_layer_detail=detail)
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            spans_path = results / f"{args.workload}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps(tracer.to_json()))
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["machine"] = machine.record(np)
        record["inputs"] = workloads.input_shares(jobs)
        record["state_bytes"] = 16 << max(
            [len(j.params["input"]) for j in jobs if "input" in j.params]
            + [j.params["length"] for j in jobs if "length" in j.params] + [1])
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
