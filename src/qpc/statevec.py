"""Dense statevector engine and measurement semantics.

Convention used everywhere in this package: qubit 0 is the most significant
bit of the basis index, i.e. the amplitude vector reshaped to ``(2,) * n``
has qubit q on axis q.  ``"10"`` therefore denotes basis index 2 on two
qubits.

The module has two layers:

* raw kernels (``apply_single_qubit``, ``apply_two_qubit``, ``apply_cz``,
  ``measure_qubit``) operating on bare complex vectors, shared by the other
  execution models;
* the ``PureState`` API implementing program execution, exact readout
  distributions, multinomial sampling, and the measure-and-flip reset.

``run_program`` evolves one private complex buffer and wraps it in a
``PureState`` once, at the end, so the state is copied and its norm
checked once per program rather than once per gate.  Rotations on one
wire are multiplied into a pending 2x2 matrix for that wire.  A pending
matrix is applied only when a CZ touches its wire and it is not diagonal
(a diagonal matrix commutes with CZ), or at the end of the program.
Every gate acts in place on the buffer: a diagonal matrix scales its two
halves, any other matrix combines them through one half-size copy, and a
CZ negates a quarter.  No more than two state vectors are alive at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .program_ir import CZGate, Gate, Program, RotationGate, PAULI_X

#: Largest register the dense engine will allocate (2**24 amplitudes = 256 MB).
MAX_QUBITS = 24

_NORM_TOL = 1e-10


# ---------------------------------------------------------------------------
# raw kernels on bare vectors


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


def measure_qubit(
    vec: np.ndarray,
    n: int,
    qubit: int,
    rng: Optional[np.random.Generator] = None,
    forced: Optional[int] = None,
) -> tuple[np.ndarray, int, float]:
    """Projective Z measurement of one qubit.

    Returns (normalized post-state, outcome, probability of that outcome).
    The outcome is drawn from ``rng`` unless ``forced`` pins it; forcing an
    outcome of probability ~0 raises ValueError.
    """
    psi = vec.reshape((2,) * n)
    p1 = float(np.sum(np.abs(np.take(psi, 1, axis=qubit)) ** 2))
    p1 = min(max(p1, 0.0), 1.0)
    probs = (1.0 - p1, p1)
    if forced is not None:
        outcome = forced
    elif rng is not None:
        outcome = int(rng.random() < p1)
    else:
        raise ValueError("measure_qubit needs either rng or forced")
    p = probs[outcome]
    if p < 1e-12:
        raise ValueError(f"outcome {outcome} on qubit {qubit} has probability {p:.3e}")
    post = psi.copy()
    sl: list[object] = [slice(None)] * n
    sl[qubit] = 1 - outcome
    post[tuple(sl)] = 0.0
    return post.reshape(-1) / math.sqrt(p), outcome, p


# ---------------------------------------------------------------------------
# state / readout / distribution types


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over ``n`` qubits (immutable)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside [1, {MAX_QUBITS}]")
        amps = np.array(self.amplitudes, dtype=complex)
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
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in readout {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index in readout")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability map over fixed-width bitstrings; sums to 1 within 1e-10."""

    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        cleaned: dict[str, float] = {}
        width = None
        for key, p in self.entries.items():
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
        total = sum(cleaned.values())
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "entries", cleaned)

    @property
    def width(self) -> int:
        return len(next(iter(self.entries)))

    def __getitem__(self, key: str) -> float:
        return self.entries.get(key, 0.0)

    @classmethod
    def from_probabilities(cls, probs: np.ndarray) -> "Distribution":
        """Distribution of a 2**m probability vector; index i is outcome i
        written as an m-bit string."""
        m = len(probs).bit_length() - 1
        return cls({format(i, f"0{m}b"): float(p) for i, p in enumerate(probs)})

    def to_json(self) -> str:
        """Canonical form: keys sorted, compact separators."""
        return json.dumps(dict(self.entries), sort_keys=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)


def total_variation_distance(a: Distribution, b: Distribution) -> float:
    """0.5 * sum |p - q| over the union of outcomes."""
    keys = set(a.entries) | set(b.entries)
    return 0.5 * sum(abs(a[k] - b[k]) for k in keys)


# ---------------------------------------------------------------------------
# program execution


def _basis_vector(s_in: str) -> np.ndarray:
    """Amplitudes of |s_in>, checked before anything is allocated."""
    if not s_in or s_in.strip("01"):
        raise ValueError(f"input string {s_in!r} is not a non-empty bitstring")
    if len(s_in) > MAX_QUBITS:
        raise ValueError(f"qubit count {len(s_in)} outside [1, {MAX_QUBITS}]")
    amps = np.zeros(1 << len(s_in), dtype=complex)
    amps[int(s_in, 2)] = 1.0
    return amps


def init_from_bitstring(s_in: str) -> PureState:
    """Computational basis state |s_in>."""
    return PureState(len(s_in), _basis_vector(s_in))


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


def _apply_in_place(vec: np.ndarray, n: int, qubit: int, matrix: np.ndarray) -> None:
    """In place: apply a 2x2 matrix to one qubit of ``vec``.

    A diagonal matrix scales the qubit = 0 and qubit = 1 halves; any other
    needs half a vector saved and half a vector of products, so the peak is
    one vector beside the buffer (``apply_single_qubit`` allocates two).
    """
    view = vec.reshape(1 << qubit, 2, 1 << (n - 1 - qubit))
    lo, hi = view[:, 0], view[:, 1]
    if _is_diagonal(matrix):
        lo *= matrix[0, 0]
        hi *= matrix[1, 1]
        return
    saved = lo.copy()
    lo *= matrix[0, 0]
    lo += matrix[0, 1] * hi
    hi *= matrix[1, 1]
    saved *= matrix[1, 0]
    hi += saved


def _flip_cz_quarter(vec: np.ndarray, n: int, qubit_a: int, qubit_b: int) -> None:
    """In place: negate the amplitudes where both qubits are 1."""
    a, b = min(qubit_a, qubit_b), max(qubit_a, qubit_b)
    view = vec.reshape(1 << a, 2, 1 << (b - a - 1), 2, 1 << (n - 1 - b))
    quarter = view[:, 1, :, 1]
    np.negative(quarter, out=quarter)


def run_program(program: Program, s_in: str) -> PureState:
    """Run every gate on |s_in>.  The input must cover the program width.

    The gates act on one private buffer.  Each wire's rotations are
    multiplied into one pending 2x2 matrix; a CZ first applies the pending
    matrix of each wire it touches unless that matrix is diagonal (and so
    commutes with the CZ), and the matrices still pending are applied at
    the end.  Every gate is applied in place.  The result is wrapped in a
    ``PureState`` once: one final copy and the run's only normalization
    check.  Amplitudes agree with the gate-by-gate fold of
    ``apply_gate`` to rounding (the tests hold them to 1e-12).
    """
    vec = _basis_vector(s_in)
    n = len(s_in)
    if program.width > n:
        raise ValueError(f"program touches qubit {program.width - 1} but input has {n} bits")
    pending: dict[int, np.ndarray] = {}
    for gate in program.gates:
        if isinstance(gate, RotationGate):
            q = gate.target
            pending[q] = np.dot(gate.matrix(), pending[q]) if q in pending else gate.matrix()
        else:
            for q in (gate.control, gate.target):
                if q in pending and not _is_diagonal(pending[q]):
                    _apply_in_place(vec, n, q, pending.pop(q))
            _flip_cz_quarter(vec, n, gate.control, gate.target)
    for q, matrix in pending.items():
        _apply_in_place(vec, n, q, matrix)
    return PureState(n, vec)


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
    qubits that are not read out.
    """
    return state_distribution(run_program(program, s_in), readout)


def sample(dist: Distribution, shots: int, seed: int) -> dict[str, int]:
    """Multinomial counts for ``shots`` draws; deterministic in ``seed``."""
    if shots < 1:
        raise ValueError(f"shots = {shots} must be positive")
    keys = sorted(dist.entries)
    probs = np.array([dist.entries[k] for k in keys], dtype=float)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {k: int(c) for k, c in zip(keys, counts)}


def cool(state: PureState, qubits: Sequence[int], seed: int = 0) -> PureState:
    """Reset the listed qubits to |0> by measure-and-flip.

    Each qubit is measured in the Z basis (outcomes drawn from ``seed``) and
    flipped when the outcome is 1.  Identical on states where the qubits are
    already |0>; entanglement with unlisted qubits collapses accordingly.
    """
    if not qubits:
        raise ValueError("cool needs at least one qubit")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit in {tuple(qubits)}")
    if max(qubits) >= state.n or min(qubits) < 0:
        raise ValueError(f"cool qubits {tuple(qubits)} outside register of {state.n}")
    return measure_and_flip(state, qubits, np.random.default_rng(seed))


def measure_and_flip(
    state: PureState, qubits: Sequence[int], rng: np.random.Generator
) -> PureState:
    """Measure each listed qubit in turn, outcomes drawn from ``rng``, and
    flip it when the outcome is 1; the qubits are not validated."""
    vec = state.amplitudes
    for q in qubits:
        vec, outcome, _ = measure_qubit(vec, state.n, q, rng=rng)
        if outcome == 1:
            vec = apply_single_qubit(vec, state.n, q, PAULI_X)
    return PureState(state.n, vec)
