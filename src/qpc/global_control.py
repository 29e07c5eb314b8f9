"""Globally controlled 1D cell chains.

Cells are qubits arranged on a line and labeled by species from {A, B, C}
in a cyclic pattern of period 2 or 3 (``ABAB...`` or ``ABCABC...``).  No
cell is individually addressable: operations are species pulses (the same
2x2 unitary on every cell of one species), pair pulses (the same 4x4
unitary on every adjacent ordered species pair, disjoint by periodicity),
bulk Hamming-weight measurement of a species, and species cooling (reset
to |0>).  ``transport_demo`` shows the conveyor effect: a cycle of SWAP
pair pulses moves a payload one full period per round without ever
addressing a single cell.  A SWAP of two |0> cells does nothing, so that
result has a closed form, written directly; a periodic chain must then be
a whole number of periods long, as for translation.  ``run_script`` parses
a whole text script into these operations and checks it against the chain
(species in its pattern, gate names, ``R`` fields) before the first
instruction runs, then runs the list in one loop.

The state convention matches the rest of the package: cell i is qubit i,
most significant bit first.  Basis states, the unitary check of pulse
matrices, the in-place kernel and the measure-and-flip reset come from
``statevec`` and ``program_ir``; a pulse acts on one private copy of the
state.  This module adds only what is specific to species.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .program_ir import (
    ParseError,
    RotationGate,
    CZ_MATRIX,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _check_integer,
    checked_unitary,
    parse_gate_fields,
)
from .statevec import (
    PureState,
    _SWAP,
    _apply_in_place,
    init_from_bitstring,
    marginal_probabilities,
    measure_and_flip,
)

SPECIES_ALPHABET = "ABC"
BOUNDARIES = ("open", "periodic")

SWAP_MATRIX = _SWAP

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class CellChain:
    """A chain of qubit cells with a cyclic species pattern."""

    pattern: str
    state: PureState
    boundary: str = "open"

    def __post_init__(self) -> None:
        if len(self.pattern) not in (2, 3):
            raise ValueError(f"species pattern {self.pattern!r} must have period 2 or 3")
        if len(set(self.pattern)) != len(self.pattern) or any(
            ch not in SPECIES_ALPHABET for ch in self.pattern
        ):
            raise ValueError(
                f"pattern {self.pattern!r} must use distinct letters from {SPECIES_ALPHABET}"
            )
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if self.state.n < 2:
            raise ValueError("a chain needs at least 2 cells")

    @property
    def length(self) -> int:
        return self.state.n

    @property
    def period(self) -> int:
        return len(self.pattern)

    def species_of(self, cell: int) -> str:
        if not 0 <= cell < self.length:
            raise ValueError(f"cell {cell} outside chain of length {self.length}")
        return self.pattern[cell % self.period]

    def cells_of(self, species: str) -> tuple[int, ...]:
        if len(species) != 1 or species not in self.pattern:
            raise ValueError(f"species {species!r} not in pattern {self.pattern!r}")
        return tuple(i for i in range(self.length) if self.pattern[i % self.period] == species)


def chain_from_bits(pattern: str, bits: str, boundary: str = "open") -> CellChain:
    """Chain in a computational basis state, one character per cell."""
    return CellChain(pattern, init_from_bitstring(bits), boundary)


@dataclass(frozen=True, eq=False)
class SpeciesPulse:
    """One 2x2 unitary applied to every cell of a species."""

    species: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if len(self.species) != 1 or self.species not in SPECIES_ALPHABET:
            raise ValueError(f"unknown species {self.species!r}")
        object.__setattr__(self, "matrix", checked_unitary(self.matrix, 2, "species pulse"))


@dataclass(frozen=True, eq=False)
class PairPulse:
    """One 4x4 unitary applied to every adjacent (first, second) species pair."""

    first: str
    second: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        for s in (self.first, self.second):
            if len(s) != 1 or s not in SPECIES_ALPHABET:
                raise ValueError(f"unknown species {s!r}")
        if self.first == self.second:
            raise ValueError("pair pulse needs two distinct species")
        object.__setattr__(self, "matrix", checked_unitary(self.matrix, 4, "pair pulse"))


GlobalPulse = Union[SpeciesPulse, PairPulse]
# one script instruction: a pulse, or the species a MEASURE or COOL acts on
Operation = Union[GlobalPulse, str]


def adjacent_pairs(chain: CellChain, first: str, second: str) -> tuple[tuple[int, int], ...]:
    """All (i, i+1) cell pairs whose species are (first, second), in order.

    On a periodic chain the wrap-around pair is included.  Distinct species
    plus a cyclic pattern make the pairs disjoint; this is asserted.
    """
    if first == second:
        raise ValueError("pair pulse needs two distinct species")
    last = chain.length if chain.boundary == "periodic" else chain.length - 1
    pairs = []
    for i in range(last):
        j = (i + 1) % chain.length
        if chain.species_of(i) == first and chain.species_of(j) == second:
            pairs.append((i, j))
    flat = [c for pair in pairs for c in pair]
    assert len(flat) == len(set(flat)), "pair pulse pairs overlap"
    return tuple(pairs)


def apply_pulse(chain: CellChain, pulse: GlobalPulse) -> CellChain:
    """Apply one global pulse; every matching cell (or pair) gets the op."""
    if isinstance(pulse, SpeciesPulse):
        targets = [(c,) for c in chain.cells_of(pulse.species)]
    elif isinstance(pulse, PairPulse):
        if pulse.first not in chain.pattern or pulse.second not in chain.pattern:
            raise ValueError(
                f"species pair ({pulse.first}, {pulse.second}) not in pattern {chain.pattern!r}"
            )
        targets = adjacent_pairs(chain, pulse.first, pulse.second)
    else:
        raise ValueError(f"unknown pulse object {pulse!r}")
    vec = np.array(chain.state.amplitudes)
    for qubits in targets:
        _apply_in_place(vec, chain.length, qubits, pulse.matrix)
    return CellChain(chain.pattern, PureState._adopt(chain.length, vec), chain.boundary)


@dataclass(frozen=True, eq=False)
class BulkResult:
    """Outcome of a bulk Hamming-weight measurement."""

    species: str
    weight: int
    chain: CellChain

    def __post_init__(self) -> None:
        cells = self.chain.cells_of(self.species)
        if not 0 <= self.weight <= len(cells):
            raise ValueError(
                f"weight {self.weight} outside [0, {len(cells)}] for species {self.species!r}"
            )


def _weight_probabilities(chain: CellChain, species: str) -> tuple[np.ndarray, np.ndarray]:
    """Hamming weight of each configuration of the species' cells (index
    bits in cell order) and the probability of each weight, 0 to k."""
    cells = chain.cells_of(species)
    configs = np.arange(1 << len(cells))
    config_weight = np.zeros(len(configs), dtype=np.int64)
    for j in range(len(cells)):
        config_weight += (configs >> j) & 1
    marginal = marginal_probabilities(chain.state.probabilities(), chain.length, cells)
    return config_weight, np.bincount(config_weight, weights=marginal, minlength=len(cells) + 1)


def _bulk_measure_rng(
    chain: CellChain, species: str, rng: np.random.Generator
) -> BulkResult:
    config_weight, w_probs = _weight_probabilities(chain, species)
    draw = np.clip(w_probs, 0.0, None)
    w = int(rng.choice(len(w_probs), p=draw / draw.sum()))
    # collapse one private copy in place: a factor per configuration of the
    # species' cells, broadcast over the other cells
    scale = np.where(config_weight == w, 1.0 / math.sqrt(w_probs[w]), 0.0)
    n = chain.length
    cells = chain.cells_of(species)
    vec = np.array(chain.state.amplitudes)
    tensor = vec.reshape((2,) * n)
    tensor *= scale.reshape([2 if c in cells else 1 for c in range(n)])
    post = CellChain(chain.pattern, PureState._adopt(n, vec), chain.boundary)
    return BulkResult(species=species, weight=w, chain=post)


def bulk_measure(chain: CellChain, species: str, seed: int = 0) -> BulkResult:
    """Measure the total Hamming weight of a species' cells.

    Samples w with the Born probability ||P_w psi||^2 (deterministic given
    ``seed``) and collapses onto that weight eigenspace; individual cells
    are not resolved.
    """
    _check_integer(seed, "seed")
    return _bulk_measure_rng(chain, species, np.random.default_rng(seed))


def _cool_species_rng(
    chain: CellChain, species: str, rng: np.random.Generator
) -> CellChain:
    state = measure_and_flip(chain.state, chain.cells_of(species), rng)
    return CellChain(chain.pattern, state, chain.boundary)


def cool_species(chain: CellChain, species: str, seed: int = 0) -> CellChain:
    """Reset every cell of a species to |0> (measure-and-flip realization)."""
    _check_integer(seed, "seed")
    return _cool_species_rng(chain, species, np.random.default_rng(seed))


def _check_whole_periods(chain: CellChain) -> None:
    """Reject a periodic chain whose wrap-around pair breaks the species cycle."""
    if chain.boundary == "periodic" and chain.length % chain.period != 0:
        raise ValueError(f"length {chain.length} is not a multiple of the period {chain.period}")


def translate(chain: CellChain, offset: int) -> CellChain:
    """Cyclic shift of the state by ``offset`` cells (periodic chains only).

    The offset must be a multiple of the species period and the length a
    multiple of the period, so cell species are preserved.
    """
    if chain.boundary != "periodic":
        raise ValueError("translation is only defined on periodic chains")
    _check_integer(offset, "offset")
    _check_whole_periods(chain)
    if offset % chain.period != 0:
        raise ValueError(f"offset {offset} is not a multiple of the period {chain.period}")
    n = chain.length
    psi = chain.state.amplitudes.reshape((2,) * n)
    axes = [(k - offset) % n for k in range(n)]
    vec = np.transpose(psi, axes).reshape(-1)
    return CellChain(chain.pattern, PureState._adopt(n, vec), chain.boundary)


def transport_demo(chain: CellChain, payload: np.ndarray, rounds: int) -> CellChain:
    """The chain after ``rounds`` rounds of global SWAP pulses.

    The chain must be cooled to |00...0>; the payload (a normalized
    2-vector) is loaded into cell 0.  A round is SWAP pair pulses over the
    species cycle -- (A,B), (B,C), (C,A) for an ABC pattern -- each moving
    the payload one cell.  Every other cell holds |0>, and a SWAP of two
    |0> cells does nothing, so after k rounds the payload sits on cell
    period*k (mod length when periodic) and the rest stays |0>: that state
    is written directly.  A periodic chain must be a whole number of
    periods long, or its wrap-around pair breaks the cycle.
    """
    _check_integer(rounds, "rounds")
    if rounds < 0:
        raise ValueError(f"rounds = {rounds} must be non-negative")
    _check_whole_periods(chain)
    amp0 = chain.state.amplitudes[0]
    if abs(abs(amp0) - 1.0) > 1e-12:
        raise ValueError("transport needs a chain cooled to the all-zeros state")
    pay = np.array(payload, dtype=complex).reshape(-1)
    if pay.shape != (2,):
        raise ValueError("payload must be a single-qubit amplitude pair")
    norm = np.linalg.norm(pay)
    # written so that a NaN norm fails the check
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"payload norm {norm} deviates from 1")
    dest = chain.period * rounds
    if chain.boundary == "open" and dest > chain.length - 1:
        raise ValueError(f"payload would cross the open boundary: site {dest} > {chain.length - 1}")
    vec = np.zeros(1 << chain.length, dtype=complex)
    vec[0], vec[1 << (chain.length - 1 - dest % chain.length)] = pay
    return CellChain(chain.pattern, PureState._adopt(chain.length, vec), chain.boundary)


# ---------------------------------------------------------------------------
# script interface

_NAMED_SINGLE = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "H": HADAMARD}
_NAMED_PAIR = {"CZ": CZ_MATRIX, "SWAP": SWAP_MATRIX}
_OPERANDS = {"PULSE": "a species and a gate", "PAIR": "two species and CZ or SWAP",
             "MEASURE": "a species", "COOL": "a species"}


def _single_matrix(fields: list[str], line_no: int) -> np.ndarray:
    name = fields[0].upper()
    if name in _NAMED_SINGLE and len(fields) == 1:
        return _NAMED_SINGLE[name]
    if name != "R" or len(fields) != 5:
        raise ValueError(f"gate must be X, Y, Z, H or R kx ky kz m, got {' '.join(fields)!r}")
    kx, ky, kz, m = parse_gate_fields(fields[1:], line_no)
    return RotationGate(0, (kx, ky, kz), m).matrix()


def _parse_script(chain: CellChain, text: str) -> list[tuple[Operation, dict]]:
    """Each instruction line of a script as (operation, event record).

    The operation is a SpeciesPulse, a PairPulse, or the species that a
    MEASURE or COOL acts on.  Raises ParseError with the 1-based line number
    at the first malformed line: unknown instruction or gate, wrong field
    count, bad ``R`` field, or a species not in the chain's pattern.
    """
    script = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        op, *args = (field.upper() for field in fields)
        try:
            # species are checked against the chain before a pulse is built
            if op == "PULSE" and len(args) >= 2:
                matrix = _single_matrix(fields[2:], line_no)
                chain.cells_of(args[0])
                operation = SpeciesPulse(args[0], matrix)
                event = {"op": "pulse", "species": args[0], "gate": " ".join(args[1:])}
            elif op == "PAIR" and len(args) == 3 and args[2] in _NAMED_PAIR:
                chain.cells_of(args[0])
                chain.cells_of(args[1])
                operation = PairPulse(args[0], args[1], _NAMED_PAIR[args[2]])
                event = {"op": "pair", "first": args[0], "second": args[1], "gate": args[2]}
            elif op in ("MEASURE", "COOL") and len(args) == 1:
                chain.cells_of(args[0])
                operation, event = args[0], {"op": op.lower(), "species": args[0]}
            elif op in _OPERANDS:
                raise ValueError(f"{op} expects {_OPERANDS[op]}")
            else:
                raise ValueError(f"unknown instruction {fields[0]!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        script.append((operation, event))
    return script


def run_script(chain: CellChain, text: str, seed: int = 0) -> tuple[CellChain, list[dict]]:
    """Execute a pulse/measure/cool script against a chain.

    Instruction lines (``#`` comments and blanks ignored)::

        PULSE <species> <X|Y|Z|H | R kx ky kz m>
        PAIR <s1> <s2> <CZ|SWAP>
        MEASURE <species>
        COOL <species>

    ``R`` fields follow the ``.qprog`` rules (ASCII digits only).  The whole
    script is parsed and checked against the chain (species in its pattern,
    gate names, ``R`` fields) before the first instruction runs, so a
    malformed line raises ParseError with its line number and nothing runs.
    Returns the final chain and one event record per instruction (bulk
    measurement outcomes included).  All randomness comes from ``seed``.
    """
    _check_integer(seed, "seed")
    script = _parse_script(chain, text)
    rng = np.random.default_rng(seed)
    for operation, event in script:
        if event["op"] == "measure":
            result = _bulk_measure_rng(chain, operation, rng)
            chain, event["weight"] = result.chain, result.weight
        elif event["op"] == "cool":
            chain = _cool_species_rng(chain, operation, rng)
        else:
            chain = apply_pulse(chain, operation)
    return chain, [event for _, event in script]
