"""Seeded workload inputs: the fixed job list each workload runs.

A workload is a list of jobs, each one user-level call of qpc (what one
CLI subcommand or the README library example does).  The *shape* of every
list is fixed: register sizes, depths, wire counts, which gate slots are
rotations or CZs and on which wires, readout subsets and their order,
script instruction sequences and schedule kinds.  Runs with different
seeds therefore do the same amount of work (the one-way branch ensemble,
for one, grows with the gate pattern, not with the angles); the seed draws
the contents: rotation angles, input bitstrings, marked strings, species
and gates of script instructions, and sampling seeds.

This module imports neither numpy nor qpc: inputs are plain data, and qpc
sees only the ``.qprog`` and ``.gcs`` text written from them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WHY = {
    "circuit-deep": (
        "`qpc run --readout 0,1,2 --shots 10000` on deep brickwork programs over 18-20 "
        "qubits (a 4-16 MiB state, at and above the per-core L2).  Each layer is one "
        "dyadic rotation per qubit, about half of them Z-only, then CZs on alternating "
        "neighbour pairs.  Gate passes over the state (the statevec kernel plus the "
        "per-gate PureState copy and renormalization) do almost all the work and the "
        "8-outcome readout is negligible, so gate fusion, diagonal folding and a lean "
        "run path show here."
    ),
    "readout-wide": (
        "default `qpc run --json` (every qubit read out) plus 10,000-shot sampling on "
        "shallow programs of about n gates over 14-18 qubits: one random rotation on "
        "every qubit in shuffled order with n/4 CZs among them, so every output is "
        "dense.  Some readouts are wide subsets in a permuted order, to exercise the "
        "transpose.  "
        "Distribution key strings, validation, to_json and sample dominate and gates "
        "take about a tenth, so an array-native Distribution shows here while a kernel "
        "change barely moves it."
    ),
    "oneway-xcheck": (
        "the README library example and acceptance criterion 3 as one job: "
        "compile_to_pattern, pattern JSON round trip, simulate_pattern (enumerate-all "
        "and seeded-random), branch_determinism_check, exact_distribution and the TVD "
        "check, on 2-5 wire programs of up to 20 gates.  The one-way engine does nearly "
        "all the work; the branch ensemble grows about 4^wires so 5-wire jobs set the "
        "tail; jobs sit on both sides of the determinism check's k <= 8 exhaustive "
        "switch; statevec sees thousands of tiny distributions instead of a few huge ones."
    ),
    "anneal-gc": (
        "runtime_to_target searches for n = 4..12 with both schedule kinds, `qpc grover` "
        "style evolve runs, `qpc gc` scripts on ABC/AB chains of 12-18 cells mixing "
        "PULSE, PAIR, MEASURE and COOL, and transport_demo runs.  Without it the "
        "adiabatic and global_control modules go unmeasured; the linear n = 12 search "
        "sets the tail, and gc pulses reach the statevec kernels through many small "
        "per-cell applications."
    ),
}


@dataclass
class Job:
    """One job: ``kind`` selects the runner, ``params`` its plain-data inputs."""

    key: str
    kind: str
    params: dict
    files: dict = field(default_factory=dict)   # file name -> text written before the run
    gates: tuple = ()                           # generated gate list, for the reference


# ---------------------------------------------------------------------------
# program generation (gates are ("R", target, (kx, ky, kz), m) or ("CZ", a, b))


def _rotation(rng: random.Random, target: int, z_only: bool) -> tuple:
    m = rng.randint(3, 8)
    if z_only:
        return ("R", target, (0, 0, rng.randrange(1, 1 << m)), m)
    k = (0, 0, 0)
    while k[0] == k[1] == 0:   # a rotation that leaves the Z axis
        k = tuple(rng.randrange(1 << m) for _ in range(3))
    return ("R", target, k, m)


def brickwork(rng: random.Random, shape_rng: random.Random, n: int, layers: int) -> list[tuple]:
    """One rotation per qubit (about half Z-only), then CZs on alternating pairs."""
    gates: list[tuple] = []
    for layer in range(layers):
        for q in range(n):
            gates.append(_rotation(rng, q, shape_rng.random() < 0.5))
        for q in range(layer % 2, n - 1, 2):
            gates.append(("CZ", q, q + 1))
    return gates


def uniform_shape(shape_rng: random.Random, n: int, n_gates: int, max_rotations: int | None = None) -> list[tuple]:
    """Gate slots in the style of the tests' ``random_program``.

    About 60 % rotation slots on uniform wires, the rest CZs on random
    pairs.  The first slot is a rotation on the highest wire so the width is
    exactly ``n``; ``max_rotations`` caps the rotation count.
    """
    slots = [("R", n - 1)]
    rotations = 1
    while len(slots) < n_gates:
        if shape_rng.random() < 0.6 and (max_rotations is None or rotations < max_rotations):
            slots.append(("R", shape_rng.randrange(n)))
            rotations += 1
        else:
            slots.append(("CZ", *shape_rng.sample(range(n), 2)))
    return slots


def spread_shape(shape_rng: random.Random, n: int) -> list[tuple]:
    """One rotation on every wire, in shuffled order, with n/4 CZs among them.

    Every wire leaves its basis state, so the readout distribution is dense
    whatever the seed; a dense output is what makes the readout path costly.
    """
    slots = [("R", q) for q in range(n)]
    shape_rng.shuffle(slots)
    for _ in range(n // 4):
        slots.insert(shape_rng.randrange(1, len(slots) + 1), ("CZ", *shape_rng.sample(range(n), 2)))
    return slots


def fill(rng: random.Random, slots: list[tuple]) -> list[tuple]:
    """Gates for the given slots, with seeded rotation angles."""
    return [_rotation(rng, s[1], False) if s[0] == "R" else s for s in slots]


def render(gates: list[tuple]) -> str:
    lines = []
    for g in gates:
        if g[0] == "R":
            _, t, (kx, ky, kz), m = g
            lines.append(f"R {t} {kx} {ky} {kz} {m}")
        else:
            lines.append(f"CZ {g[1]} {g[2]}")
    return "\n".join(lines) + "\n"


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _run_job(key: str, rng: random.Random, gates: list[tuple], n: int, readout, want_json: bool) -> Job:
    name = f"{key}.qprog"
    return Job(
        key=key,
        kind="run",
        params={
            "program": name,
            "input": _bits(rng, n),
            "readout": readout,
            "json": want_json,
            "shots": 10_000,
            "sample_seed": rng.randrange(1 << 31),
        },
        files={name: render(gates)},
        gates=tuple(gates),
    )


# ---------------------------------------------------------------------------
# workload structures: (full, tiny); tiny is used for warm-up, the self-check
# and for the traced run's coverage of layers a workload does not call


def _circuit_deep(rng: random.Random, shape: random.Random, tiny: bool) -> list[Job]:
    # Layers per register size keep the jobs near the same work (18 and 20
    # qubits a little above 19), and the list length is odd, so the median
    # and the tail rank fall inside groups of similar jobs, not between them.
    slots = [(6, 2), (7, 2), (8, 2)] if tiny else [(18, 6), (19, 2), (20, 1), (18, 6), (20, 1), (19, 2), (18, 6)]
    return [
        _run_job(f"cd{i:02d}", rng, brickwork(rng, shape, n, layers), n, [0, 1, 2], False)
        for i, (n, layers) in enumerate(slots)
    ]


def _readout_wide(rng: random.Random, shape: random.Random, tiny: bool) -> list[Job]:
    # (n, m, full): seven of nine readouts are 16 wide, so the median and
    # the tail rank both fall inside that band and not on the edge between
    # jobs of different widths; permuted readouts exercise the transpose.
    if tiny:
        slots = [(5, 5, True), (6, 5, False), (7, 7, False)]
    else:
        slots = [(16, 16, True), (17, 16, False), (18, 16, False), (14, 14, True), (16, 16, False),
                 (17, 16, False), (18, 16, False), (15, 15, True), (16, 16, True)]
    jobs = []
    for i, (n, m, full) in enumerate(slots):
        readout = None if full else shape.sample(range(n), m)   # None: every qubit, in order
        gates = fill(rng, spread_shape(shape, n))
        jobs.append(_run_job(f"rw{i:02d}", rng, gates, n, readout, True))
    return jobs


def _oneway_xcheck(rng: random.Random, shape: random.Random, tiny: bool) -> list[Job]:
    if tiny:
        slots = [(2, 2, 1), (3, 3, None), (4, 3, None), (5, 3, None)]
    else:
        # (wires, gates, rotation cap); a cap of 2 keeps k <= 8 measurements,
        # where the determinism check is exhaustive.  The extra 3-wire slot
        # makes the list odd, so the median falls on one job's runs.
        slots = [(w, g, cap) for w in (2, 3, 4, 5)
                 for g, cap in ((3, 2), (4, 2), (8, None), (14, None), (20, None))] + [(3, 12, None)]
    jobs = []
    for i, (w, g, cap) in enumerate(slots):
        gates = fill(rng, uniform_shape(shape, w, g, cap))
        name = f"ox{i:02d}.qprog"
        jobs.append(Job(
            key=f"ox{i:02d}",
            kind="xcheck",
            params={"program": name, "input": _bits(rng, w), "seed": rng.randrange(1 << 31)},
            files={name: render(gates)},
            gates=tuple(gates),
        ))
    return jobs


_GC_SINGLE = ("X", "Y", "Z", "H")


_GC_OPS = ("PULSE", "PAIR", "PULSE", "MEASURE", "PULSE", "PAIR", "COOL", "PULSE", "PAIR", "MEASURE")


def _gc_script(rng: random.Random, pattern: str) -> str:
    lines = []
    for op in _GC_OPS:
        species = rng.choice(pattern)
        if op == "PULSE":
            if rng.random() < 0.5:
                gate = rng.choice(_GC_SINGLE)
            else:
                m = rng.randint(2, 6)
                gate = "R " + " ".join(str(rng.randrange(1 << m)) for _ in range(3)) + f" {m}"
            lines.append(f"PULSE {species} {gate}")
        elif op == "PAIR":
            first, second = rng.sample(pattern, 2)
            lines.append(f"PAIR {first} {second} {rng.choice(('CZ', 'SWAP'))}")
        else:
            lines.append(f"{op} {species}")
    return "\n".join(lines) + "\n"


def _anneal_gc(rng: random.Random, shape: random.Random, tiny: bool) -> list[Job]:
    # Two linear n = 12 searches per pass set the tail; six local n = 12
    # searches (equal work, different marked strings) form the band the
    # median falls in, so it does not sit between unlike jobs.
    if tiny:
        searches = [(4, "linear"), (4, "local")]
    else:
        searches = ([(n, kind) for n in (4, 6, 8, 10) for kind in ("linear", "local")]
                    + [(12, "linear")] * 2 + [(12, "local")] * 6)
    grovers = [(4, "linear", 20.0)] if tiny else [(6, "linear", 100.0), (9, "local", 60.0), (12, "local", 240.0)]
    scripts = [("ABC", 6), ("AB", 4)] if tiny else [("ABC", 12), ("ABC", 15), ("ABC", 18), ("AB", 12), ("AB", 14), ("AB", 16)]
    transports = [("ABC", 6, 1)] if tiny else [("ABC", 18, 5), ("AB", 16, 7)]
    jobs = []
    for i, (n, kind) in enumerate(searches):
        jobs.append(Job(f"as{i:02d}", "search", {"marked": _bits(rng, n), "kind": kind}))
    for i, (n, kind, total_time) in enumerate(grovers):
        jobs.append(Job(f"ag{i:02d}", "grover", {"marked": _bits(rng, n), "kind": kind, "time": total_time}))
    for i, (pattern, length) in enumerate(scripts):
        name = f"gc{i:02d}.gcs"
        jobs.append(Job(
            f"gc{i:02d}", "gc",
            {"pattern": pattern, "length": length, "script": name,
             "bits": _bits(rng, length), "seed": rng.randrange(1 << 31)},
            files={name: _gc_script(rng, pattern)},
        ))
    for i, (pattern, length, rounds) in enumerate(transports):
        theta = rng.random() * math.pi
        phi = rng.random() * 2.0 * math.pi
        jobs.append(Job(f"gt{i:02d}", "transport",
                        {"pattern": pattern, "length": length, "rounds": rounds,
                         "payload": [theta, phi]}))
    # A fixed shuffle interleaves the kinds, as in a mixed batch.
    order = list(range(len(jobs)))
    shape.shuffle(order)
    return [jobs[i] for i in order]


_BUILDERS = {
    "circuit-deep": _circuit_deep,
    "readout-wide": _readout_wide,
    "oneway-xcheck": _oneway_xcheck,
    "anneal-gc": _anneal_gc,
}


# Typical seconds one pass of each full list takes on the reference machine
# (2-core Xeon VM, 2 MiB L2 per core, 105 MiB L3, Python 3.11, numpy 2.4, one
# BLAS thread), rounded.  A run makes a fixed number of whole passes,
# round(seconds / PASS_SECONDS), so the job count -- and with it the rank
# that defines the tail -- does not depend on how fast a run happened to go.
PASS_SECONDS = {"circuit-deep": 4.0, "readout-wide": 5.0, "oneway-xcheck": 2.5, "anneal-gc": 3.4}
TINY_PASS_SECONDS = 0.25


def passes(workload: str, seconds: float, tiny: bool = False) -> int:
    """Whole passes of the job list that take about ``seconds`` here."""
    return max(1, round(seconds / (TINY_PASS_SECONDS if tiny else PASS_SECONDS[workload])))


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The job list of ``workload`` for ``seed``; same seed, same list."""
    size = "tiny" if tiny else "full"
    rng = random.Random(f"{workload}/{seed}/{size}")
    shape = random.Random(f"{workload}/shape/{size}")
    return _BUILDERS[workload](rng, shape, tiny)


# ---------------------------------------------------------------------------
# input-property shares, so a change that helps only some inputs can cite them


def _program_shares(programs: list[tuple]) -> dict:
    gates = [g for p in programs for g in p]
    rotations = [g for g in gates if g[0] == "R"]
    diagonal = sum(1 for g in gates if g[0] == "CZ" or (g[2][0] == 0 and g[2][1] == 0))
    pairs = 0
    for p in programs:
        last_on_wire: dict[int, str] = {}
        for g in p:
            if g[0] == "R":
                if last_on_wire.get(g[1]) == "R":
                    pairs += 1
                last_on_wire[g[1]] = "R"
            else:
                last_on_wire[g[1]] = last_on_wire[g[2]] = "CZ"
    return {
        "gates": len(gates),
        "diagonal_gate_share": diagonal / len(gates),
        "adjacent_same_wire_rotation_pairs": pairs,
        "adjacent_pair_share_of_rotations": pairs / len(rotations) if rotations else 0.0,
    }


def input_shares(jobs: list[Job]) -> dict:
    """Measured shares of the input properties a later optimization may target."""
    out: dict = {"jobs": len(jobs), "kinds": {}}
    for job in jobs:
        out["kinds"][job.kind] = out["kinds"].get(job.kind, 0) + 1
    programs = [job.gates for job in jobs if job.gates]
    if programs:
        out.update(_program_shares(programs))
    runs = [job for job in jobs if job.kind == "run"]
    if runs:
        widths = []
        for job in runs:
            n = len(job.params["input"])
            m = n if job.params["readout"] is None else len(job.params["readout"])
            widths.append({"n": n, "m": m})
        out["readout_m_vs_n"] = widths
        out["full_readout_share"] = sum(1 for w in widths if w["m"] == w["n"]) / len(widths)
        out["register_sizes"] = sorted({w["n"] for w in widths})
    xchecks = [job for job in jobs if job.kind == "xcheck"]
    if xchecks:
        per_wire: dict[str, int] = {}
        exhaustive = 0
        for job in xchecks:
            w = len(job.params["input"])
            per_wire[str(w)] = per_wire.get(str(w), 0) + 1
            measurements = 4 * sum(1 for g in job.gates if g[0] == "R")
            exhaustive += measurements <= 8
        out["jobs_per_wire_count"] = per_wire
        out["exhaustive_determinism_share"] = exhaustive / len(xchecks)
    schedules = [job.params["kind"] for job in jobs if job.kind in ("search", "grover")]
    if schedules:
        out["schedule_kinds"] = {k: schedules.count(k) / len(schedules) for k in sorted(set(schedules))}
    return out
