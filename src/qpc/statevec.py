"""Dense statevector engine and measurement semantics.

Convention used everywhere in this package: qubit 0 is the most significant
bit of the basis index, i.e. the amplitude vector reshaped to ``(2,) * n``
has qubit q on axis q.  ``"10"`` therefore denotes basis index 2 on two
qubits.

The module has two layers:

* kernels on bare complex vectors: the in-place ``_apply_in_place`` (a 2x2
  matrix on one qubit, a 4x4 on two, or a 2**w x 2**w matrix on w
  consecutive qubits), which ``run_program``, ``measure_and_flip`` and
  ``global_control`` share, each on one private buffer that becomes the
  result's ``PureState`` without a copy; and the allocating
  ``apply_single_qubit``, ``apply_two_qubit`` and ``apply_cz`` behind
  ``apply_gate``, the gate-by-gate fold the tests use as an independent
  reference;
* the ``PureState`` API implementing program execution, exact readout
  distributions, multinomial sampling, and the measure-and-flip reset.

``_apply_in_place`` moves and scales the parts of the vector for a
monomial matrix (diagonals, X, Y, CZ, SWAP); any other matrix costs one
read and one write of the vector, in L2-sized blocks of one ``np.matmul``
each (cache blocking as in Häner & Steiger, SC'17).  ``run_program`` fuses
gates greedily into blocks on windows of up to ``_FUSE_WIDTH`` = 4
consecutive qubits, in the style of qsim's fuser (Isakov et al.,
arXiv:2111.02396), so that one pass applies many gates (see
``_Fuser``).  ``exact_distribution`` runs only the readout's backward
light cone, on its wires alone; each gate it drops commutes with the
gates it keeps and with the readout, so the Born rule cannot see it
(``_light_cone``).  A run keeps one state vector and one 256 KiB block
alive beside small matrices; a non-diagonal monomial matrix adds the
parts it saves while it moves data: half a vector for a one-qubit swap of
halves such as X, less than one vector for any.

A ``Distribution`` holds its probabilities as one float array in outcome
order.  Outcome key strings are built only when text is asked for
(``entries``, ``to_json``, ``sample``), once per distribution;
``sample`` and ``==`` read the array.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .program_ir import CZ_MATRIX, CZGate, Gate, Program, RotationGate, _check_integer

#: Largest register the dense engine will allocate (2**24 amplitudes = 256 MB).
MAX_QUBITS = 24

_NORM_TOL = 1e-10

#: Amplitudes per block of the dense kernel: 2**14 complex values, 256 KiB,
#: so a block and its product stay in a core's L2 cache.
_BLOCK = 1 << 14

#: Widest row of contiguous amplitudes (the gate's d values times the
#: amplitudes under its qubits) that the dense kernel multiplies by
#: ``kron(matrix.T, I)``; measured at n = 20, wider rows are faster as a
#: stack of ``matrix @ part`` products.
_KRON_WIDTH = 32

#: Widest window of consecutive qubits that ``run_program`` fuses gates
#: into.  Measured on brickwork at n = 18-20 (6 / 2 / 1 layers), summed
#: over seven such programs: width 2 took ~35 % longer than 4, 3 took
#: 5-12 % longer, 6 ~40 % longer and 5 1-3 % less.  5 puts 32-wide
#: windows where the dense kernel is slowest (a 32 x 32 gate with two
#: amplitudes below it took 43 ms at n = 20, with one below 12 ms), so 4
#: is used.
_FUSE_WIDTH = 4

#: SWAP of two qubits; ``global_control.SWAP_MATRIX``.
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

_I2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# kernels on bare vectors


def _parts(vec: np.ndarray, n: int, qubits: Sequence[int]) -> list[np.ndarray]:
    """Views of ``vec`` where the listed qubits take each value, first qubit
    most significant: two halves for one qubit, four quarters for a pair in
    either order, 2**w parts for an ascending window of w qubits."""
    if _is_window(qubits):
        d = 1 << len(qubits)
        view = vec.reshape(1 << qubits[0], d, -1)
        return [view[:, i] for i in range(d)]
    a, b = qubits
    lo, hi = min(a, b), max(a, b)
    view = vec.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - 1 - hi))
    return [view[:, i, :, j] if a < b else view[:, j, :, i] for i in (0, 1) for j in (0, 1)]


def _is_window(qubits: Sequence[int]) -> bool:
    """One qubit, or consecutive qubits in ascending order."""
    return all(b == a + 1 for a, b in zip(qubits, qubits[1:]))


def _is_monomial(matrix: np.ndarray) -> bool:
    """One nonzero entry in every row and column: for a unitary, as many
    nonzero entries as rows."""
    return np.count_nonzero(matrix) == len(matrix)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices as one broadcast product, which
    costs a few microseconds where ``np.kron`` costs tens."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _apply_in_place(vec: np.ndarray, n: int, qubits: Sequence[int], matrix: np.ndarray) -> None:
    """In place: apply a 2x2 matrix to one qubit of ``vec``, a 4x4 matrix to
    two qubits in the matrix's (a, b) index order, or a 2**w x 2**w matrix
    to an ascending window of w consecutive qubits.

    A monomial matrix (diagonals, X, Y, CZ, SWAP) moves and scales the
    parts of ``_parts``: row r overwrites part r, a part is saved first
    only if a later row reads it, and an entry of 1 only moves data, so X
    and SWAP only move data and a diagonal matrix only scales.  A saved
    part is scaled in place, a live part as ``m * part``; the two forms can
    differ in the last bit, so this order is part of the results.  A live
    part is written by a ufunc with ``out=``, whose exact overlap check
    sees two parts as disjoint, so the saved parts are all that is alive
    beside the buffer.

    Any other matrix is one blocked product (``_apply_dense``); a pair that
    is not an ascending window is first brought next to its lower qubit by
    a SWAP of data and moved back after.
    """
    if _is_monomial(matrix):
        _move_and_scale(vec, n, qubits, matrix)
        return
    if _is_window(qubits):
        _apply_dense(vec, n, qubits[0], matrix)
        return
    a, b = qubits
    if a > b:
        a, b = b, a
        matrix = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    if b > a + 1:
        _move_and_scale(vec, n, (a + 1, b), _SWAP)
    _apply_dense(vec, n, a, matrix)
    if b > a + 1:
        _move_and_scale(vec, n, (a + 1, b), _SWAP)


def _move_and_scale(vec: np.ndarray, n: int, qubits: Sequence[int], matrix: np.ndarray) -> None:
    """``_apply_in_place`` for a monomial matrix."""
    parts = _parts(vec, n, qubits)
    cols = (np.flatnonzero(matrix) % len(matrix)).tolist()  # one entry per row
    saved: dict[int, np.ndarray] = {}
    for r, part in enumerate(parts):
        c = cols[r]
        m = matrix[r, c]
        if r in cols[r + 1:]:
            saved[r] = part.copy()
        if c == r:
            if m != 1:
                part *= m
            continue
        if c in saved:  # row c came first, so part c is saved
            term = saved.pop(c)
            if m != 1:
                np.multiply(term, m, out=term)
            part[...] = term
        elif m == 1:
            np.positive(parts[c], out=part)
        else:
            np.multiply(m, parts[c], out=part)


def _apply_dense(vec: np.ndarray, n: int, lo: int, matrix: np.ndarray) -> None:
    """In place: a d x d matrix on the log2(d) qubits from ``lo`` on, in one
    read and one write of ``vec``.

    The vector is taken ``_BLOCK`` amplitudes at a time; each block is one
    ``np.matmul`` into one reused block-sized buffer, then copied back.
    With ``below`` amplitudes under the gate's qubits, a row of
    ``d * below <= _KRON_WIDTH`` contiguous amplitudes is multiplied by
    ``kron(matrix.T, I_below)``, which puts many rows in one product; wider
    rows take ``matrix @ view(-1, d, below)``.
    """
    d = len(matrix)
    below = len(vec) // (d << lo)
    tmp = np.empty(min(_BLOCK, len(vec)), dtype=complex)
    if d * below <= _KRON_WIDTH:
        rows = vec.reshape(-1, d * below)
        op = _kron(matrix.T, np.eye(below))
        step = _BLOCK // (d * below)
        for i in range(0, len(rows), step):
            block = rows[i:i + step]
            out = tmp[:block.size].reshape(block.shape)
            np.matmul(block, op, out=out)
            block[...] = out
        return
    view = vec.reshape(-1, d, below)
    cols = min(below, _BLOCK // d)
    step = max(_BLOCK // (d * below), 1)
    for i in range(0, len(view), step):
        for j in range(0, below, cols):
            block = view[i:i + step, :, j:j + cols]
            out = tmp[:block.size].reshape(block.shape)
            np.matmul(matrix, block, out=out)
            block[...] = out


def apply_single_qubit(vec: np.ndarray, n: int, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one axis of a 2**n vector."""
    psi = np.tensordot(matrix, vec.reshape((2,) * n), axes=([1], [qubit]))
    return np.moveaxis(psi, 0, qubit).reshape(-1)


def apply_two_qubit(
    vec: np.ndarray, n: int, qubit_a: int, qubit_b: int, matrix: np.ndarray
) -> np.ndarray:
    """Apply a 4x4 matrix to axes (qubit_a, qubit_b), in that index order."""
    op = matrix.reshape(2, 2, 2, 2)
    psi = np.tensordot(op, vec.reshape((2,) * n), axes=([2, 3], [qubit_a, qubit_b]))
    return np.moveaxis(psi, (0, 1), (qubit_a, qubit_b)).reshape(-1)


def apply_cz(vec: np.ndarray, n: int, qubit_a: int, qubit_b: int) -> np.ndarray:
    """Controlled-Z via a sign flip on the |..1..1..> slice; no matmul."""
    psi = vec.reshape((2,) * n).copy()
    sl: list[object] = [slice(None)] * n
    sl[qubit_a] = 1
    sl[qubit_b] = 1
    psi[tuple(sl)] *= -1.0
    return psi.reshape(-1)


# ---------------------------------------------------------------------------
# state / readout / distribution types


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over ``n`` qubits (immutable)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self._seal(np.array(self.amplitudes, dtype=complex))

    @classmethod
    def _adopt(cls, n: int, vec: np.ndarray) -> "PureState":
        """A state that takes ``vec``, a private complex buffer, as its
        amplitudes without a copy; the checks are those of the constructor."""
        state = cls.__new__(cls)
        object.__setattr__(state, "n", n)
        state._seal(vec)
        return state

    def _seal(self, amps: np.ndarray) -> None:
        """Check the qubit count, shape and norm; freeze and keep ``amps``."""
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside [1, {MAX_QUBITS}]")
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        # written so that a NaN norm fails the check
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class ReadoutSpec:
    """Ordered subset of qubits to read out; first listed = leftmost bit."""

    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.qubits:
            raise ValueError("readout needs at least one qubit")
        for q in self.qubits:
            _check_integer(q, "readout qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in readout {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index in readout")


class Distribution:
    """Probability map over fixed-width bitstrings; sums to 1 within 1e-10.

    Backed by one read-only float array in sorted outcome order: all 2**width
    outcomes (``from_probabilities``, zeros included) or the keys a dict
    named, so ``{"0": 1.0}`` differs from ``{"0": 1.0, "1": 0.0}``.  Key
    strings are built on first use and kept; ``entries`` is a fresh dict on
    every access.
    """

    __slots__ = ("_width", "_probs", "_keys")

    def __init__(self, entries: Mapping[str, float]) -> None:
        cleaned: dict[str, float] = {}
        width = None
        for key, p in entries.items():
            if width is None:
                width = len(key)
            # ``key.strip("01")`` is empty exactly when every character is a
            # 0 or a 1; it runs in C, a per-character generator does not.
            if len(key) != width or key.strip("01"):
                raise ValueError(f"malformed outcome key {key!r}")
            # written so that NaN fails too
            if not p >= -1e-12:
                raise ValueError(f"probability {p} for {key!r} is negative or not a number")
            cleaned[key] = max(float(p), 0.0)
        if not width:
            raise ValueError("empty distribution or zero-width outcome keys")
        keys = sorted(cleaned)
        self._fill(width, np.array([cleaned[k] for k in keys], dtype=float), keys)

    def _fill(self, width: int, probs: np.ndarray, keys: Optional[list[str]]) -> None:
        total = float(probs.sum())
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        probs.setflags(write=False)
        self._width, self._probs, self._keys = width, probs, keys

    @classmethod
    def from_probabilities(cls, probs: np.ndarray) -> "Distribution":
        """Distribution of a 2**m probability vector; index i is outcome i
        written as an m-bit string.  Every outcome is kept, zeros included."""
        probs = np.array(probs, dtype=float)  # a private copy, clamped in place
        m = probs.size.bit_length() - 1
        if probs.ndim != 1 or m < 1 or probs.size != 1 << m:
            raise ValueError(f"probabilities of shape {probs.shape}: need 2**m of them, m >= 1")
        low = probs.min()
        # written so that NaN fails too
        if not low >= -1e-12:
            i = int(np.argmin(probs >= -1e-12))
            raise ValueError(f"probability {probs[i]} for outcome {i} is negative or not a number")
        if low < 0.0:
            probs[probs < 0.0] = 0.0
        dist = cls.__new__(cls)
        dist._fill(m, probs, None)
        return dist

    @property
    def width(self) -> int:
        return self._width

    def _dense(self) -> bool:
        return len(self._probs) == 1 << self._width

    def _outcome_keys(self) -> list[str]:
        """Outcome strings in array order, built once."""
        if self._keys is None:
            self._keys = _bit_strings(self._width)
        return self._keys

    @property
    def entries(self) -> dict[str, float]:
        return dict(zip(self._outcome_keys(), self._probs.tolist()))

    def __getitem__(self, key: str) -> float:
        if not (isinstance(key, str) and len(key) == self._width and not key.strip("01")):
            return 0.0
        if self._dense():
            return float(self._probs[int(key, 2)])
        keys = self._keys
        i = bisect.bisect_left(keys, key)
        return float(self._probs[i]) if i < len(keys) and keys[i] == key else 0.0

    def to_json(self) -> str:
        """Canonical form: byte for byte
        ``json.dumps(dict(entries), sort_keys=True)``."""
        keys = self._outcome_keys()
        # in chunks of 4096 outcomes, so the per-entry strings of only one
        # chunk are alive at a time
        parts = []
        for lo in range(0, len(keys), 4096):
            values = map(float.__repr__, self._probs[lo:lo + 4096].tolist())
            chunk = zip(keys[lo:lo + 4096], values)
            parts.append(", ".join(['"' + k + '": ' + v for k, v in chunk]))
        return "{" + ", ".join(parts) + "}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        if self._width != other._width or len(self._probs) != len(other._probs):
            return False
        if not self._dense() and self._keys != other._keys:
            return False
        return bool(np.array_equal(self._probs, other._probs))

    def __repr__(self) -> str:
        return f"Distribution({self.entries!r})"


def _bit_strings(width: int) -> list[str]:
    """All ``width``-bit strings in index order, by doubling concatenation."""
    if width == 1:
        return ["0", "1"]
    high, low = _bit_strings(width - width // 2), _bit_strings(width // 2)
    return [a + b for a in high for b in low]


def total_variation_distance(a: Distribution, b: Distribution) -> float:
    """0.5 * sum |p - q| over the union of outcomes, exactly rounded
    (``math.fsum``), so the value does not depend on the order of the terms."""
    pa, pb = a.entries, b.entries
    return 0.5 * math.fsum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in pa.keys() | pb.keys())


# ---------------------------------------------------------------------------
# program execution


def _check_input(s_in: str, width: int) -> None:
    """Check that ``s_in`` is a bitstring of at most ``MAX_QUBITS`` bits
    that covers a program of ``width`` qubits."""
    if not s_in or s_in.strip("01"):
        raise ValueError(f"input string {s_in!r} is not a non-empty bitstring")
    if len(s_in) > MAX_QUBITS:
        raise ValueError(f"qubit count {len(s_in)} outside [1, {MAX_QUBITS}]")
    if width > len(s_in):
        raise ValueError(f"program touches qubit {width - 1} but input has {len(s_in)} bits")


def _basis_vector(s_in: str, width: int = 1) -> np.ndarray:
    """Amplitudes of |s_in>, allocated after ``_check_input``."""
    _check_input(s_in, width)
    amps = np.zeros(1 << len(s_in), dtype=complex)
    amps[int(s_in, 2)] = 1.0
    return amps


def init_from_bitstring(s_in: str) -> PureState:
    """Computational basis state |s_in>."""
    return PureState._adopt(len(s_in), _basis_vector(s_in))


def apply_gate(state: PureState, gate: Gate) -> PureState:
    """One gate on a PureState; index bounds checked against the register."""
    if isinstance(gate, RotationGate):
        if gate.target >= state.n:
            raise ValueError(f"gate target {gate.target} outside register of {state.n}")
        out = apply_single_qubit(state.amplitudes, state.n, gate.target, gate.matrix())
    elif isinstance(gate, CZGate):
        if max(gate.control, gate.target) >= state.n:
            raise ValueError(
                f"CZ({gate.control}, {gate.target}) outside register of {state.n}"
            )
        out = apply_cz(state.amplitudes, state.n, gate.control, gate.target)
    else:
        raise ValueError(f"unknown gate object {gate!r}")
    return PureState(state.n, out)


def _is_diagonal(matrix: np.ndarray) -> bool:
    return matrix[0, 1] == 0 and matrix[1, 0] == 0


def _lift(matrix: np.ndarray, j: int, op: np.ndarray) -> np.ndarray:
    """``kron(I, op, I) @ matrix``, where ``op`` acts on the qubits from
    position ``j`` on of the window that ``matrix`` acts on."""
    d = len(matrix)
    return np.matmul(op, matrix.reshape(1 << j, len(op), -1)).reshape(d, d)


class _Fuser:
    """Greedy gate fusion for ``run_program``, applied in place to ``vec``.

    Each wire holds a pending 2x2 matrix, the product of its rotations
    since the wire was last applied.  A block is ``[lo, hi, matrix]``: the
    gates fused so far on the window of qubits ``lo`` to ``hi - 1``, at most
    ``_FUSE_WIDTH`` wide; the pending matrices of its wires act after it.
    A CZ on neighbouring qubits joins the blocks of its two wires (a wire
    without one counts as a block of its own) and multiplies in the wires'
    pending matrices and its signs.  When the joined window would be too
    wide, the wider of the two blocks is applied first, and the other too
    if that is still not enough.  Any other CZ applies the blocks on its
    wires, and the pending matrix of a wire without a block unless it is
    diagonal (and so commutes with the CZ), then flips its signs.
    """

    def __init__(self, vec: np.ndarray, n: int) -> None:
        self.vec, self.n = vec, n
        self.pending: dict[int, np.ndarray] = {}
        self.owner: list[Optional[list]] = [None] * n

    def rotation(self, q: int, matrix: np.ndarray) -> None:
        self.pending[q] = np.dot(matrix, self.pending[q]) if q in self.pending else matrix

    def cz(self, a: int, b: int) -> None:
        lo, hi = min(a, b), max(a, b)
        if hi != lo + 1:
            for q in (lo, hi):
                if self.owner[q] is not None:
                    self._flush(self.owner[q])
                elif q in self.pending and not _is_diagonal(self.pending[q]):
                    _apply_in_place(self.vec, self.n, (q,), self.pending.pop(q))
            _apply_in_place(self.vec, self.n, (lo, hi), CZ_MATRIX)
            return
        left, right = self._block(lo), self._block(hi)
        while left is not right and right[1] - left[0] > _FUSE_WIDTH:
            self._flush(max(left, right, key=lambda block: block[1] - block[0]))
            left, right = self._block(lo), self._block(hi)
        if left is right:
            block = left
        else:
            block = [left[0], right[1], _kron(left[2], right[2])]
            self.owner[block[0]:block[1]] = [block] * (block[1] - block[0])
        fused = _kron(self.pending.pop(lo, _I2), self.pending.pop(hi, _I2))
        fused[3] *= -1.0
        block[2] = _lift(block[2], lo - block[0], fused)

    def finish(self) -> None:
        """Apply what is still held: the blocks, and the pending matrices of
        wires without one, packed from the last qubit down into windows of
        at most ``_FUSE_WIDTH`` qubits; a wire between them takes the
        identity."""
        units = [block for q, block in enumerate(self.owner) if block is not None and block[0] == q]
        units += [[q, q + 1, _I2] for q in self.pending if self.owner[q] is None]
        units.sort(key=lambda unit: unit[0])
        while units:
            hi = units[-1][1]
            window = [unit for unit in units if hi - unit[0] <= _FUSE_WIDTH]
            del units[-len(window):]
            lo = window[0][0]
            matrix = np.eye(1 << (hi - lo), dtype=complex)
            for start, _, op in window:
                matrix = _lift(matrix, start - lo, op)
            self._flush([lo, hi, matrix])

    def _block(self, q: int) -> list:
        return self.owner[q] or [q, q + 1, _I2]

    def _flush(self, block: list) -> None:
        """Apply ``block`` with its wires' pending matrices and release it."""
        lo, hi, matrix = block
        for q in range(lo, hi):
            self.owner[q] = None
            if q in self.pending:
                matrix = _lift(matrix, q - lo, self.pending.pop(q))
        _apply_in_place(self.vec, self.n, range(lo, hi), matrix)


def run_program(program: Program, s_in: str) -> PureState:
    """Run every gate on |s_in>.  The input must cover the program width,
    which is checked before the state is allocated.

    The gates act on one private buffer through ``_Fuser``: rotations are
    multiplied per wire, and CZs on neighbouring qubits join the wires'
    matrices into blocks of up to ``_FUSE_WIDTH`` qubits, each applied in
    one pass of ``_apply_in_place``.  The buffer becomes the result's
    ``PureState`` without a copy, after the run's only normalization
    check.  The state is exact, phases included: amplitudes agree with the
    gate-by-gate fold of ``apply_gate`` to rounding (the tests hold them to
    1e-12).
    """
    n = len(s_in)
    vec = _basis_vector(s_in, program.width)
    fuser = _Fuser(vec, n)
    for gate in program.gates:
        if isinstance(gate, RotationGate):
            fuser.rotation(gate.target, gate.matrix())
        else:
            fuser.cz(gate.control, gate.target)
    fuser.finish()
    return PureState._adopt(n, vec)


def _light_cone(
    gates: Sequence[Gate], readout: Sequence[int]
) -> tuple[tuple[Gate, ...], list[int]]:
    """The gates that a readout of the ``readout`` wires depends on, in
    order, and the sorted wires of its backward light cone, in one backward
    scan.  The cone starts as the readout wires; each kept gate adds its
    wires.  A gate is dropped when it touches no cone wire, or when it is
    diagonal (a Z-only rotation or CZ) and no later kept non-diagonal gate
    touches its wires (``blocked``, within the cone): either way it
    commutes with every later kept gate and with the readout's projectors."""
    cone, blocked = set(readout), set()
    kept = []
    for gate in reversed(gates):
        if isinstance(gate, CZGate):
            if gate.control in blocked or gate.target in blocked:
                cone.update((gate.control, gate.target))
                kept.append(gate)
        elif gate.k[0] or gate.k[1]:
            if gate.target in cone:
                blocked.add(gate.target)
                kept.append(gate)
        elif gate.target in blocked:
            kept.append(gate)
    return tuple(reversed(kept)), sorted(cone)


def marginal_probabilities(
    probs: np.ndarray, n: int, qubits: Sequence[int]
) -> np.ndarray:
    """Marginal of 2**n basis probabilities onto ``qubits``, in listed order.

    The last axis of ``probs`` holds the 2**n probabilities; leading axes
    are batch axes and are kept.
    """
    lead = probs.shape[:-1]
    tensor = probs.reshape(lead + (2,) * n)
    drop = tuple(len(lead) + ax for ax in range(n) if ax not in qubits)
    marg = np.sum(tensor, axis=drop) if drop else tensor
    # np.sum keeps surviving axes in ascending original order; reorder to
    # match the listed order.
    order = tuple(range(len(lead))) + tuple(
        len(lead) + sorted(qubits).index(q) for q in qubits
    )
    return np.transpose(marg, order).reshape(lead + (-1,))


def state_distribution(state: PureState, readout: ReadoutSpec) -> Distribution:
    """Marginal readout distribution of a state over the given qubits."""
    if max(readout.qubits) >= state.n:
        raise ValueError(f"readout {readout.qubits} outside register of {state.n}")
    # ``probs`` stays referenced until the distribution is built: releasing
    # the large array before that changes how the allocator serves the next
    # state vectors, and cost ~12 % more page faults on brickwork programs
    # at n = 18-20.
    probs = state.probabilities()
    marg = marginal_probabilities(probs, state.n, readout.qubits)
    return Distribution.from_probabilities(marg)


def exact_distribution(program: Program, s_in: str, readout: ReadoutSpec) -> Distribution:
    """Exact outcome distribution of the program over the readout qubits.

    Equals <s_in| U^dag (identity x |s><s|) U |s_in> for each outcome s on
    the readout subset, i.e. the Born probabilities marginalized over the
    qubits that are not read out.  Only the readout's backward light cone
    runs (``_light_cone``), on its c wires renumbered 0..c-1 in order, so
    on 2**c amplitudes; a cone that covers the register runs the kept gates
    as they are.  This is exact: a dropped gate commutes with the kept ones
    and the readout, and a wire that no kept gate touches stays in its
    input basis state, in a product with the rest, which the marginal sums
    out."""
    _check_input(s_in, program.width)
    if max(readout.qubits) >= len(s_in):
        raise ValueError(f"readout {readout.qubits} outside register of {len(s_in)}")
    gates, wires = _light_cone(program.gates, readout.qubits)
    if len(wires) < len(s_in):
        new = {q: i for i, q in enumerate(wires)}
        gates = tuple(
            CZGate(new[g.control], new[g.target]) if isinstance(g, CZGate)
            else RotationGate(new[g.target], g.k, g.m) for g in gates
        )
        s_in = "".join(s_in[q] for q in wires)
        readout = ReadoutSpec(tuple(new[q] for q in readout.qubits))
    if gates:
        state = run_program(Program(gates), s_in)
    else:  # no gate changes the readout: |s_in> reads out the same
        state = PureState._adopt(len(s_in), _basis_vector(s_in))
    return state_distribution(state, readout)


def sample(dist: Distribution, shots: int, seed: int) -> dict[str, int]:
    """Multinomial counts for ``shots`` draws; deterministic in ``seed``."""
    _check_integer(shots, "shots")
    _check_integer(seed, "seed")
    if shots < 1:
        raise ValueError(f"shots = {shots} must be positive")
    probs = dist._probs
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    # array order is sorted key order
    return dict(zip(dist._outcome_keys(), counts.tolist()))


def cool(state: PureState, qubits: Sequence[int], seed: int = 0) -> PureState:
    """Reset the listed qubits to |0> by measure-and-flip.

    Each qubit is measured in the Z basis (outcomes drawn from ``seed``) and
    flipped when the outcome is 1.  Identical on states where the qubits are
    already |0>; entanglement with unlisted qubits collapses accordingly.
    """
    _check_integer(seed, "seed")
    if not qubits:
        raise ValueError("cool needs at least one qubit")
    for q in qubits:
        _check_integer(q, "cool qubit")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit in {tuple(qubits)}")
    if max(qubits) >= state.n or min(qubits) < 0:
        raise ValueError(f"cool qubits {tuple(qubits)} outside register of {state.n}")
    return measure_and_flip(state, qubits, np.random.default_rng(seed))


def measure_and_flip(
    state: PureState, qubits: Sequence[int], rng: np.random.Generator
) -> PureState:
    """Measure each listed qubit in turn, outcomes drawn from ``rng``, and
    flip it when the outcome is 1, on one private copy: the measured half is
    renormalised in place, into the qubit = 0 half; the qubits are not validated."""
    vec = np.array(state.amplitudes)
    for q in qubits:
        lo, hi = _parts(vec, state.n, (q,))
        p1 = min(max(float(np.sum(np.abs(hi) ** 2)), 0.0), 1.0)
        outcome = int(rng.random() < p1)
        p = p1 if outcome else 1.0 - p1
        if p < 1e-12:
            raise ValueError(f"outcome {outcome} on qubit {q} has probability {p:.3e}")
        np.divide(hi if outcome else lo, math.sqrt(p), out=lo)
        hi[...] = 0.0
    return PureState._adopt(state.n, vec)
