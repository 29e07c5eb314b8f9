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
most significant bit first.  A chain holds its state as a frame
(``_Frame``): a definite bit for every cell in a basis state, times one
amplitude vector over the other, *active*, cells in a recorded order.  A
chain from ``chain_from_bits`` starts with no active cell; a chain built
from a dense ``PureState`` has every cell active, in cell order, and its
pulses and measurements make the dense engine's kernel calls on the same
vector.  A monomial pulse (X, Y, Z, diagonal R; CZ, SWAP) keeps a definite
cell definite: it changes bits and one global phase, and a SWAP with an
active neighbour moves that cell's label, not its data.  Any other pulse
activates the cell (the vector becomes vector x U|b>).  Cooling a cell
takes it out of the vector, which halves it.  Every operation writes a new
compact vector and checks its norm as ``PureState`` does; ``state`` builds
the dense ``PureState`` on its first read and keeps it.  The unitary check
of pulse matrices, the in-place kernel and the basis-input checks come
from ``statevec`` and ``program_ir``.  This module adds only what is
specific to species.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    _NORM_TOL,
    _SWAP,
    _apply_in_place,
    _check_input,
    _is_monomial,
    _parts,
    marginal_probabilities,
)

SPECIES_ALPHABET = "ABC"
BOUNDARIES = ("open", "periodic")

SWAP_MATRIX = _SWAP

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


class _Frame:
    """A chain state: |vec> on the active cells times |bits[c]> on every
    other cell c.

    ``active`` lists the active cells in the vector's qubit order, first
    most significant; ``bits`` has one entry per cell, 0 for an active one;
    ``vec`` holds the 2**len(active) amplitudes, global phase included.  A
    frame is immutable: its vector is read-only, and was checked to have
    unit norm within ``statevec``'s tolerance.
    """

    __slots__ = ("bits", "active", "vec")

    def __init__(self, bits: Sequence[int], active: Sequence[int], vec: np.ndarray) -> None:
        norm = float(np.linalg.norm(vec))
        # written so that a NaN norm fails the check
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
        vec.setflags(write=False)
        self.bits, self.active, self.vec = tuple(bits), tuple(active), vec

    def dense(self) -> np.ndarray:
        """The 2**n amplitudes, n = len(bits); the vector itself when every
        cell is active in cell order."""
        n, k = len(self.bits), len(self.active)
        if self.active == tuple(range(n)):
            return self.vec
        full = np.zeros((2,) * n, dtype=complex)
        # the axes this index leaves are the active cells, ascending
        index = tuple(slice(None) if c in self.active else b for c, b in enumerate(self.bits))
        full[index] = self.vec.reshape((2,) * k).transpose(np.argsort(self.active))
        return full.reshape(-1)

    def apply(self, targets: Sequence[tuple[int, ...]], matrix: np.ndarray) -> "_Frame":
        """The frame after ``matrix`` on each target: one cell (2x2) or an
        ordered pair of cells (4x4, index order as listed), in turn."""
        bits, active, vec = list(self.bits), list(self.active), np.array(self.vec)
        monomial = _is_monomial(matrix)
        phase = 1.0
        for qubits in targets:
            live = [c for c in qubits if c in active]
            if len(live) == len(qubits):
                _apply_in_place(vec, len(active), [active.index(c) for c in qubits], matrix)
                continue
            col = 0
            for c in qubits:
                col = 2 * col + bits[c]
            if not live and monomial:
                row = int(np.flatnonzero(matrix[:, col])[0])
                phase *= matrix[row, col]
                for c in reversed(qubits):
                    bits[c], row = row & 1, row >> 1
                continue
            if live:  # a pair of one active cell s and one definite cell d
                s = live[0]
                d = qubits[0] if s == qubits[1] else qubits[1]
                op = matrix if d == qubits[0] else _swap_order(matrix)
                # the image of |bits[d]>_d (x) |s>, indexed [d', s', s]
                block = op[:, 2 * bits[d]:2 * bits[d] + 2].reshape(2, 2, 2)
                d_out = np.flatnonzero(np.abs(block).sum(axis=(1, 2)))
                s_out = np.flatnonzero(np.abs(block).sum(axis=(0, 2)))
                slot = active.index(s)
                if len(d_out) == 1:  # d stays definite (CZ): a 2x2 on s
                    bits[d] = int(d_out[0])
                    _apply_in_place(vec, len(active), (slot,), block[bits[d]])
                    continue
                if len(s_out) == 1:  # s turns definite (SWAP): d takes its slot
                    bits[s], bits[d], active[slot] = int(s_out[0]), 0, d
                    _apply_in_place(vec, len(active), (slot,), block[:, bits[s]])
                    continue
                vec = np.multiply.outer(vec, np.eye(2)[bits[d]]).reshape(-1)
                bits[d] = 0
                active.append(d)
                _apply_in_place(vec, len(active), [active.index(c) for c in qubits], matrix)
                continue
            # definite cells under a non-monomial gate: vec (x) matrix|bits>
            vec = np.multiply.outer(vec, matrix[:, col]).reshape(-1)
            for c in qubits:
                bits[c] = 0
                active.append(c)
        if phase != 1.0:
            vec *= phase
        return _Frame(bits, active, vec)


def _swap_order(matrix: np.ndarray) -> np.ndarray:
    """A 4x4 matrix with its two qubits' index order exchanged."""
    return matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


class CellChain:
    """A chain of qubit cells with a cyclic species pattern (immutable).

    ``CellChain(pattern, state, boundary)`` takes a dense ``PureState``;
    the operations of this module return chains that hold a frame and
    build ``state`` on its first read.
    """

    __slots__ = ("pattern", "boundary", "_frame", "_state")

    def __init__(self, pattern: str, state: PureState, boundary: str = "open") -> None:
        frame = _Frame((0,) * state.n, range(state.n), state.amplitudes)
        self._setup(pattern, frame, boundary, state)

    @classmethod
    def _of(cls, pattern: str, frame: _Frame, boundary: str) -> "CellChain":
        chain = cls.__new__(cls)
        chain._setup(pattern, frame, boundary, None)
        return chain

    def _setup(
        self, pattern: str, frame: _Frame, boundary: str, state: Optional[PureState]
    ) -> None:
        if len(pattern) not in (2, 3):
            raise ValueError(f"species pattern {pattern!r} must have period 2 or 3")
        if len(set(pattern)) != len(pattern) or any(ch not in SPECIES_ALPHABET for ch in pattern):
            raise ValueError(f"pattern {pattern!r} must use distinct letters from {SPECIES_ALPHABET}")
        if boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if len(frame.bits) < 2:
            raise ValueError("a chain needs at least 2 cells")
        for name, value in (("pattern", pattern), ("boundary", boundary),
                            ("_frame", frame), ("_state", state)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CellChain is immutable; cannot set {name!r}")

    def _with(self, frame: _Frame) -> "CellChain":
        return CellChain._of(self.pattern, frame, self.boundary)

    @property
    def state(self) -> PureState:
        """The dense state, built from the frame on the first read."""
        if self._state is None:
            object.__setattr__(self, "_state", PureState._adopt(self.length, self._frame.dense()))
        return self._state

    @property
    def length(self) -> int:
        return len(self._frame.bits)

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
        return tuple(range(self.pattern.index(species), self.length, self.period))


def chain_from_bits(pattern: str, bits: str, boundary: str = "open") -> CellChain:
    """Chain in a computational basis state, one character per cell; no
    2**L vector is allocated."""
    _check_input(bits, 1)
    frame = _Frame([int(b) for b in bits], (), np.ones(1, dtype=complex))
    return CellChain._of(pattern, frame, boundary)


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
    return chain._with(chain._frame.apply(targets, pulse.matrix))


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


def _species_slots(chain: CellChain, species: str) -> tuple[list[int], int]:
    """Vector positions of the species' active cells, ascending, and the
    summed bits of its definite cells."""
    frame = chain._frame
    cells = chain.cells_of(species)
    slots = sorted(frame.active.index(c) for c in cells if c in frame.active)
    return slots, sum(frame.bits[c] for c in cells)


def _weight_probabilities(chain: CellChain, species: str) -> tuple[np.ndarray, np.ndarray]:
    """Hamming weight of the species' cells in each configuration of its
    active cells (index bits in vector order) and the probability of each
    weight, 0 to k."""
    frame = chain._frame
    slots, fixed = _species_slots(chain, species)
    configs = np.arange(1 << len(slots))
    config_weight = np.full(len(configs), fixed, dtype=np.int64)
    for j in range(len(slots)):
        config_weight += (configs >> j) & 1
    marginal = marginal_probabilities(np.abs(frame.vec) ** 2, len(frame.active), slots)
    k = len(chain.cells_of(species))
    return config_weight, np.bincount(config_weight, weights=marginal, minlength=k + 1)


def _bulk_measure_rng(
    chain: CellChain, species: str, rng: np.random.Generator
) -> BulkResult:
    config_weight, w_probs = _weight_probabilities(chain, species)
    draw = np.clip(w_probs, 0.0, None)
    w = int(rng.choice(len(w_probs), p=draw / draw.sum()))
    # collapse a copy in place: a factor per configuration of the species'
    # active cells, broadcast over the other active cells
    scale = np.where(config_weight == w, 1.0 / math.sqrt(w_probs[w]), 0.0)
    frame = chain._frame
    slots, _ = _species_slots(chain, species)
    vec = np.array(frame.vec)
    tensor = vec.reshape((2,) * len(frame.active))
    tensor *= scale.reshape([2 if q in slots else 1 for q in range(len(frame.active))])
    post = chain._with(_Frame(frame.bits, frame.active, vec))
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
    """Measure each cell of the species in turn, one ``rng.random()`` draw
    each, and flip it when the outcome is 1, as ``statevec.measure_and_flip``
    does.  A definite cell reads 1 with the vector's squared norm or 0; an
    active cell leaves the vector, which keeps its measured half."""
    frame = chain._frame
    # every step that changes the vector writes a new one
    bits, active, vec = list(frame.bits), list(frame.active), frame.vec
    for q in chain.cells_of(species):
        if q in active:
            lo, hi = _parts(vec, len(active), (active.index(q),))
            p1 = float(np.sum(np.abs(hi) ** 2))
        else:
            p1 = float(np.sum(np.abs(vec) ** 2)) if bits[q] else 0.0
        p1 = min(max(p1, 0.0), 1.0)
        outcome = int(rng.random() < p1)
        p = p1 if outcome else 1.0 - p1
        if p < 1e-12:
            raise ValueError(f"outcome {outcome} on qubit {q} has probability {p:.3e}")
        if q in active:
            vec = ((hi if outcome else lo) / math.sqrt(p)).reshape(-1)
            active.remove(q)
        elif outcome:
            vec = vec / math.sqrt(p)
        bits[q] = 0
    return chain._with(_Frame(bits, active, vec))


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
    multiple of the period, so cell species are preserved.  Only the
    frame's cell labels move: cell c's content goes to cell c + offset.
    """
    if chain.boundary != "periodic":
        raise ValueError("translation is only defined on periodic chains")
    _check_integer(offset, "offset")
    _check_whole_periods(chain)
    if offset % chain.period != 0:
        raise ValueError(f"offset {offset} is not a multiple of the period {chain.period}")
    n, frame = chain.length, chain._frame
    bits = [frame.bits[(c - offset) % n] for c in range(n)]
    active = [(c + offset) % n for c in frame.active]
    return chain._with(_Frame(bits, active, frame.vec))


def transport_demo(chain: CellChain, payload: np.ndarray, rounds: int) -> CellChain:
    """The chain after ``rounds`` rounds of global SWAP pulses.

    The chain must be cooled to |00...0>; the payload (a normalized
    2-vector) is loaded into cell 0.  A round is SWAP pair pulses over the
    species cycle -- (A,B), (B,C), (C,A) for an ABC pattern -- each moving
    the payload one cell.  Every other cell holds |0>, and a SWAP of two
    |0> cells does nothing, so after k rounds the payload sits on cell
    period*k (mod length when periodic) and the rest stays |0>: that state
    is written directly, as a frame whose one active cell holds the
    payload.  A periodic chain must be a whole number of periods long, or
    its wrap-around pair breaks the cycle.
    """
    _check_integer(rounds, "rounds")
    if rounds < 0:
        raise ValueError(f"rounds = {rounds} must be non-negative")
    _check_whole_periods(chain)
    frame = chain._frame
    # the amplitude of |00...0>: zero when a definite cell holds 1
    amp0 = 0.0 if any(frame.bits) else frame.vec[0]
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
    return chain._with(_Frame((0,) * chain.length, (dest % chain.length,), pay))


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
