"""qpc benchmark: one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary and a fuller record, which is also written under
``perfbench/results/``.  The exit code is 0 only when a result was printed.

Each workload runs in its own process (``worker.py``), with BLAS pinned to
one thread, so ``peak_rss_mb`` belongs to that workload alone and the
process never uses more threads than the machine has cores.  ``setup_s``
is the median over several processes of the time from process start to
the first timed job.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7         # processes timed for setup_s, the measured run included
CHILD_TIMEOUT_S = 170.0   # the whole call must end within 180 s
TINY_SECONDS = 0.5


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``worker.py`` to completion; (its JSON record, its start time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), t0


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload and return the full record, metrics included."""
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    run_args = base + ["--seconds", str(seconds), "--trace", str(trace)]
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                    "why": workloads.WHY[workload]}
    if trace:
        main, _ = worker(run_args, deadline)
        bandwidth, _ = worker(["--copy-bandwidth"], deadline)
        metrics = dict(main.pop("per_layer"))
        metrics["machine.copy_gbps"] = bandwidth["gbps"]
        record["copy_bandwidth"] = bandwidth
        wanted = catalog.PER_LAYER
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            ready, t0 = worker(base + ["--setup-only"], deadline)
            setups.append(ready["t_ready"] - t0)
        main, t0 = worker(run_args, deadline)
        setups.append(main["t_ready"] - t0)
        metrics = {name: main[name] for name in ("jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
        wanted = catalog.END_TO_END
    record.update(main)
    record["metrics"] = {m.name: {"value": metrics[m.name], "unit": m.unit} for m in wanted}
    return record


def report(record: dict) -> None:
    """Summary lines and the record file; the caller prints the result line last."""
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}: {record['why']}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        print(f"failed_frac {record['failed_frac']:.6g} frac")
        print(f"# job_tail_ms is p{record['tail_percentile']:.1f} of {record['samples']} jobs")
    for key, error in record["errors"].items():
        print(f"# FAILED {key}: {error}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def self_check() -> int:
    """Tiny sizes: every metric emitted with its unit, nothing fails, counts repeat."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, metrics in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        listed = [{k: e[k] for k in ("name", "unit", "better")} for e in spec[section]]
        ours = [{"name": m.name, "unit": m.unit, "better": m.better} for m in metrics]
        if listed != ours:
            problems.append(f"BENCHMARK.json {section} differs from catalog.py")
    if [w["name"] for w in spec["workloads"]] != list(catalog.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from catalog.py")
    for e, m in zip(spec["end_to_end"], catalog.END_TO_END):
        if e.get("bound") != m.bound:
            problems.append(f"bound of {m.name} differs from catalog.py")
    for workload in catalog.WORKLOADS:
        before = len(problems)
        runs = [measure(workload, 7, TINY_SECONDS, trace, tiny=True) for trace in (0, 1, 1)]
        for rec, wanted in zip(runs, (catalog.END_TO_END, catalog.PER_LAYER)):
            for m in wanted:
                got = rec["metrics"].get(m.name)
                if got is None or got["unit"] != m.unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload}: {m.name} missing or without unit {m.unit}")
        for rec in runs:
            if rec["failed"] or rec["failed_frac"] != 0:
                problems.append(f"{workload}: failed jobs {rec['errors']}")
        counts = [{m.name: r["metrics"][m.name]["value"] for m in catalog.PER_LAYER
                   if m.unit in catalog.COUNT_UNITS} for r in runs[1:]]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ between two traced runs: {counts}")
        print(f"self-check {workload}: {'ok' if len(problems) == before else 'FAIL'}")
    for p in problems:
        print(f"self-check: {p}")
    print("self-check: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qpc benchmark")
    ap.add_argument("--workload", choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
