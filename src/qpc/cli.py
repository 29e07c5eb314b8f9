"""Command-line entry point: ``qpc <subcommand>``.

Subcommands: ``run`` (execute a program and print its readout
distribution or sampled counts), ``size`` (program size and gate census),
``compile`` (lower to a one-way measurement pattern), ``grover``
(adiabatic search run), ``gc`` (global-control script on a cell chain),
``select`` (paradigm decision questions), ``thresholds`` (reference
table).  ``--json`` switches machine-readable output with sorted keys.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import adiabatic, global_control, oneway, selector, statevec
from .program_ir import Program, RotationGate, parse_program, program_size


def _dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


def _load_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def _parse_readout(text: Optional[str], width: int) -> statevec.ReadoutSpec:
    if text is None:
        return statevec.ReadoutSpec(tuple(range(width)))
    # Each field is [0-9]+ in ASCII, as in .qprog gate fields: int() would
    # also take a sign, "_" separators and non-ASCII digits.
    fields = text.split(",")
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise ValueError(f"readout {text!r} must be comma-separated decimal integers")
    return statevec.ReadoutSpec(tuple(map(int, fields)))


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    s_in = args.input if args.input is not None else "0" * program.width
    readout = _parse_readout(args.readout, len(s_in))
    dist = statevec.exact_distribution(program, s_in, readout)
    if args.shots is None:
        if args.json:
            print(dist.to_json())
        else:
            for key, p in dist.entries.items():
                print(f"{key} {p:.12g}")
        return 0
    counts = statevec.sample(dist, args.shots, args.seed)
    if args.json:
        print(_dump(counts))
    else:
        for key in sorted(counts):
            print(f"{key} {counts[key]}")
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    rotations = sum(1 for g in program.gates if isinstance(g, RotationGate))
    cz = len(program.gates) - rotations
    info = {
        "size": program_size(program),
        "rotations": rotations,
        "cz": cz,
        "width": program.width,
    }
    if args.json:
        print(_dump(info))
    else:
        for key in ("size", "rotations", "cz", "width"):
            print(f"{key}: {info[key]}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    pattern = oneway.compile_to_pattern(program)
    text = oneway.pattern_to_json(pattern)
    if args.output is None or args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_grover(args: argparse.Namespace) -> int:
    if len(args.marked) != args.n:
        raise ValueError(
            f"--marked {args.marked!r} does not have the declared length {args.n}"
        )
    instance = adiabatic.GroverInstance(args.marked)
    steps = args.steps if args.steps is not None else adiabatic.default_steps(args.time)
    report = adiabatic.evolve(instance, adiabatic.Schedule(args.schedule, args.time, steps))
    payload = {
        "overlap": report.final_overlap,
        "min_gap": report.min_gap_seen,
        "T": args.time,
    }
    if args.json:
        print(_dump(payload))
    else:
        for key in ("overlap", "min_gap", "T"):
            print(f"{key}: {payload[key]:.12g}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    if args.length < 2:
        raise ValueError(f"--length {args.length} must be at least 2")
    bits = args.bits if args.bits is not None else "0" * args.length
    if len(bits) != args.length:
        raise ValueError(f"--bits {bits!r} does not match --length {args.length}")
    chain = global_control.chain_from_bits(args.pattern, bits, args.boundary)
    with open(args.script, "r", encoding="utf-8") as fh:
        script = fh.read()
    final, events = global_control.run_script(chain, script, seed=args.seed)
    probs = final.state.probabilities().reshape((2,) * final.length)
    excitation = [
        float(np.sum(np.take(probs, 1, axis=c))) for c in range(final.length)
    ]
    if args.json:
        print(
            _dump(
                {
                    "pattern": args.pattern,
                    "length": args.length,
                    "events": events,
                    "cell_excitation": excitation,
                }
            )
        )
    else:
        for ev in events:
            print(" ".join(f"{k}={ev[k]}" for k in sorted(ev)))
        print("cell_excitation: " + " ".join(f"{p:.6f}" for p in excitation))
    return 0


def _ask(question: str, choices: Sequence[str]) -> str:
    prompt = f"{question} [{'/'.join(choices)}]: "
    while True:
        answer = input(prompt).strip().lower()
        if answer in choices:
            return answer
        print(f"please answer one of: {', '.join(choices)}", file=sys.stderr)


def _cmd_select(args: argparse.Namespace) -> int:
    scalability = args.scalability
    addressability = args.addressability
    control = args.control
    if args.interactive:
        if scalability is None:
            scalability = _ask("Scalability", selector.SCALABILITY_CHOICES)
        if addressability is None:
            addressability = _ask("Addressability", selector.ADDRESSABILITY_CHOICES)
        if control is None:
            control = _ask("Control", selector.CONTROL_CHOICES)
    if None in (scalability, addressability, control):
        raise ValueError(
            "select needs --scalability, --addressability and --control "
            "(or --interactive)"
        )
    profile = selector.DeviceProfile(scalability, addressability, control)
    paradigm = selector.recommend(profile)
    note = (
        "real devices often straddle these categories; hybrid schemes "
        "combine paradigms, so treat this as a starting point"
        if args.hybrid_note
        else None
    )
    if args.json:
        payload = {
            "paradigm": paradigm.value,
            "scalability": scalability,
            "addressability": addressability,
            "control": control,
        }
        if note:
            payload["note"] = note
        print(_dump(payload))
    else:
        print(paradigm.value)
        if note:
            print(f"note: {note}")
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    table = selector.threshold_table()
    if args.json:
        print(
            _dump(
                [
                    {
                        "name": e.name,
                        "low": e.low,
                        "high": e.high,
                        "citation": e.citation,
                        "note": e.note,
                    }
                    for e in table
                ]
            )
        )
    else:
        for e in table:
            value = f"{e.low:g}" if not e.is_range else f"{e.low:g} to {e.high:g}"
            print(f"{e.name}: {value}  [{e.citation}]")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpc",
        description="Quantum program toolkit: run, measure, and cross-compile "
        "gate programs; explore alternative computing paradigms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program and read out")
    p_run.add_argument("--program", required=True, help=".qprog file")
    p_run.add_argument("--input", help="input bitstring (default: zeros)")
    p_run.add_argument("--readout", help="comma-separated qubit list (default: all)")
    mode = p_run.add_mutually_exclusive_group()
    mode.add_argument(
        "--exact", action="store_true", help="print the exact distribution (default)"
    )
    mode.add_argument("--shots", type=int, help="sample counts instead")
    p_run.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_size = sub.add_parser("size", help="program size and gate census")
    p_size.add_argument("program", help=".qprog file")
    p_size.add_argument("--json", action="store_true")
    p_size.set_defaults(func=_cmd_size)

    p_compile = sub.add_parser("compile", help="lower a program to another paradigm")
    p_compile.add_argument("--paradigm", required=True, choices=("oneway",))
    p_compile.add_argument("program", help=".qprog file")
    p_compile.add_argument("-o", "--output", help="pattern JSON path (default: stdout)")
    p_compile.set_defaults(func=_cmd_compile)

    p_grover = sub.add_parser("grover", help="adiabatic search run")
    p_grover.add_argument("--n", type=int, required=True)
    p_grover.add_argument("--marked", required=True, help="marked bitstring")
    p_grover.add_argument(
        "--schedule", required=True, choices=adiabatic.SCHEDULE_KINDS
    )
    p_grover.add_argument("--time", type=float, required=True, help="total time T")
    p_grover.add_argument("--steps", type=int, help="midpoint steps (default: T/0.05)")
    p_grover.add_argument("--json", action="store_true")
    p_grover.set_defaults(func=_cmd_grover)

    p_gc = sub.add_parser("gc", help="run a global-control script")
    p_gc.add_argument("--pattern", required=True, help="species motif, e.g. ABC")
    p_gc.add_argument("--length", type=int, required=True)
    p_gc.add_argument("--script", required=True, help="instruction file")
    p_gc.add_argument("--boundary", choices=global_control.BOUNDARIES, default="open")
    p_gc.add_argument("--bits", help="initial cell contents (default: zeros)")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--json", action="store_true")
    p_gc.set_defaults(func=_cmd_gc)

    p_select = sub.add_parser("select", help="answer three questions, get a paradigm")
    p_select.add_argument("--scalability", choices=selector.SCALABILITY_CHOICES)
    p_select.add_argument("--addressability", choices=selector.ADDRESSABILITY_CHOICES)
    p_select.add_argument("--control", choices=selector.CONTROL_CHOICES)
    p_select.add_argument("--interactive", action="store_true")
    p_select.add_argument("--hybrid-note", action="store_true")
    p_select.add_argument("--json", action="store_true")
    p_select.set_defaults(func=_cmd_select)

    p_thresholds = sub.add_parser("thresholds", help="published threshold table")
    p_thresholds.add_argument("--json", action="store_true")
    p_thresholds.set_defaults(func=_cmd_thresholds)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
