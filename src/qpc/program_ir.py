"""Gate-level program representation.

A program is a finite sequence of two gate kinds acting on a register of
qubits indexed from 0:

* ``RotationGate`` -- a single-qubit rotation ``exp(-i theta . sigma)`` whose
  rotation vector has dyadic components ``theta_a = 2*pi*k_a / 2**m``.  The
  integers ``(k_x, k_y, k_z)`` and the precision ``m`` are the stored data;
  the gate contributes ``m`` to program size.
* ``CZGate`` -- the two-qubit controlled-Z, contributing 1 to program size.

The text format (``.qprog``) is line based, one gate per line::

    R <target> <k_x> <k_y> <k_z> <m>
    CZ <control> <target>

Blank lines and ``#`` comments are ignored.  Every numeric field is a
non-negative decimal integer written in ASCII digits (``[0-9]+``).
``parse_program`` and ``render_program`` are exact inverses on valid
programs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

TAU = 2.0 * math.pi

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
CZ_MATRIX = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

#: Hard cap on every dense matrix in the package (``program_unitary``,
#: ``adiabatic.hamiltonian``); 2**12 keeps a complex one under 300 MB.
MAX_DENSE_QUBITS = 12


class ParseError(ValueError):
    """Malformed program text.  ``line_no`` is 1-based."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class RotationGate:
    """exp(-i theta . sigma) on ``target`` with dyadic rotation vector.

    ``k`` holds the three numerators ``(k_x, k_y, k_z)``; each angle is
    ``2*pi*k_a / 2**m``.  Precision ``m >= 1`` bounds the numerators to
    ``0 <= k_a < 2**m`` and is the gate's size.
    """

    target: int
    k: tuple[int, int, int]
    m: int

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError(f"negative qubit index {self.target}")
        if self.m < 1:
            raise ValueError(f"precision m = {self.m} must be >= 1")
        if len(self.k) != 3:
            raise ValueError("rotation vector needs exactly three components")
        lim = 1 << self.m
        for name, ka in zip("xyz", self.k):
            if not 0 <= ka < lim:
                raise ValueError(
                    f"k_{name} = {ka} out of range [0, 2**{self.m}) for m = {self.m}"
                )

    @property
    def angles(self) -> tuple[float, float, float]:
        """Rotation-vector components in radians."""
        scale = TAU / (1 << self.m)
        return (self.k[0] * scale, self.k[1] * scale, self.k[2] * scale)

    @property
    def size(self) -> int:
        return self.m

    def matrix(self) -> np.ndarray:
        """2x2 unitary, computed in closed form.

        For r = |theta|: U = cos(r) I - i sin(r) (theta_hat . sigma); the
        identity when r = 0.
        """
        tx, ty, tz = self.angles
        r = math.sqrt(tx * tx + ty * ty + tz * tz)
        if r == 0.0:
            return np.eye(2, dtype=complex)
        axis = (PAULI_X * (tx / r)) + (PAULI_Y * (ty / r)) + (PAULI_Z * (tz / r))
        return math.cos(r) * np.eye(2, dtype=complex) - 1j * math.sin(r) * axis


@dataclass(frozen=True)
class CZGate:
    """Controlled-Z between two distinct qubits (symmetric in its arguments)."""

    control: int
    target: int

    def __post_init__(self) -> None:
        if self.control < 0 or self.target < 0:
            raise ValueError("negative qubit index")
        if self.control == self.target:
            raise ValueError(f"CZ needs two distinct qubits, got {self.control} twice")

    @property
    def size(self) -> int:
        return 1

    def matrix(self) -> np.ndarray:
        return CZ_MATRIX.copy()


Gate = Union[RotationGate, CZGate]


@dataclass(frozen=True)
class Program:
    """Non-empty gate sequence; gates apply left to right."""

    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if not self.gates:
            raise ValueError("a program must contain at least one gate")
        for g in self.gates:
            if not isinstance(g, (RotationGate, CZGate)):
                raise ValueError(f"unknown gate object {g!r}")

    @property
    def width(self) -> int:
        """1 + highest qubit index touched."""
        hi = 0
        for g in self.gates:
            if isinstance(g, RotationGate):
                hi = max(hi, g.target)
            else:
                hi = max(hi, g.control, g.target)
        return hi + 1

    @property
    def size(self) -> int:
        return program_size(self)

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class UnitaryDescriptor:
    """Dense unitary on ``n`` qubits, validated on construction."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = checked_unitary(self.entries, 1 << self.n, f"matrix for n = {self.n}")
        object.__setattr__(self, "entries", mat)


def checked_unitary(matrix: np.ndarray, dim: int, label: str) -> np.ndarray:
    """Read-only complex copy of ``matrix``; ValueError unless it is a
    ``dim`` x ``dim`` unitary to 1e-10 (NaN and inf entries fail)."""
    mat = np.array(matrix, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValueError(f"{label} must be {dim}x{dim}, got shape {mat.shape}")
    # checked before the product, which warns on inf entries
    if not np.isfinite(mat).all():
        raise ValueError(f"{label} has non-finite entries")
    dev = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
    # written so that a NaN deviation fails the check
    if not dev <= 1e-10:
        raise ValueError(f"{label} is not unitary (deviation {dev:.3e})")
    mat.setflags(write=False)
    return mat


def program_size(program: Program) -> int:
    """Total size: sum of m over rotations plus 1 per CZ.

    Additive under concatenation by construction.
    """
    return sum(g.size for g in program.gates)


def parse_gate_fields(fields: Sequence[str], line_no: int) -> tuple[int, ...]:
    """Integer gate fields of one text line, each ``[0-9]+`` in ASCII.

    ``int()`` alone would also accept a sign, ``_`` separators and non-ASCII
    digits such as ``"١"`` or ``"３"``; none of them is part of the formats.
    """
    for field in fields:
        if not (field.isascii() and field.isdigit()):
            raise ParseError(line_no, f"gate field {field!r} is not a decimal integer")
    return tuple(map(int, fields))


def parse_program(text: str) -> Program:
    """Parse ``.qprog`` text into a Program.

    Raises ParseError with the offending 1-based line number on any
    malformed line, unknown mnemonic, or out-of-range field.
    """
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        mnemonic = fields[0].upper()
        if mnemonic == "R":
            if len(fields) != 6:
                raise ParseError(line_no, f"R expects 5 fields, got {len(fields) - 1}")
            target, kx, ky, kz, m = parse_gate_fields(fields[1:], line_no)
            try:
                gates.append(RotationGate(target, (kx, ky, kz), m))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        elif mnemonic == "CZ":
            if len(fields) != 3:
                raise ParseError(line_no, f"CZ expects 2 fields, got {len(fields) - 1}")
            control, target = parse_gate_fields(fields[1:], line_no)
            try:
                gates.append(CZGate(control, target))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        else:
            raise ParseError(line_no, f"unknown gate mnemonic {fields[0]!r}")
    if not gates:
        raise ParseError(1, "program text contains no gates")
    return Program(tuple(gates))


def render_program(program: Program) -> str:
    """Render a Program back to ``.qprog`` text (one gate per line)."""
    lines = []
    for g in program.gates:
        if isinstance(g, RotationGate):
            kx, ky, kz = g.k
            lines.append(f"R {g.target} {kx} {ky} {kz} {g.m}")
        else:
            lines.append(f"CZ {g.control} {g.target}")
    return "\n".join(lines) + "\n"


def _embed_single(n: int, target: int, mat: np.ndarray) -> np.ndarray:
    left = np.eye(1 << target, dtype=complex)
    right = np.eye(1 << (n - 1 - target), dtype=complex)
    return np.kron(np.kron(left, mat), right)


def _embed_cz(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    both = ((idx >> (n - 1 - control)) & 1) & ((idx >> (n - 1 - target)) & 1)
    diag = np.where(both == 1, -1.0 + 0.0j, 1.0 + 0.0j)
    return np.diag(diag)


def program_unitary(program: Program) -> UnitaryDescriptor:
    """Dense unitary of the whole program (qubit 0 = most significant bit).

    Guarded by ``MAX_DENSE_QUBITS`` since the matrix is 4**n complex entries.
    """
    n = program.width
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"program touches {n} qubits, dense limit is {MAX_DENSE_QUBITS}")
    acc = np.eye(1 << n, dtype=complex)
    for g in program.gates:
        if isinstance(g, RotationGate):
            acc = _embed_single(n, g.target, g.matrix()) @ acc
        else:
            acc = _embed_cz(n, g.control, g.target) @ acc
    return UnitaryDescriptor(n, acc)


def program_fidelity(target: UnitaryDescriptor, program: Program) -> float:
    """Normalized trace overlap |Tr(U_target^dag U_program)| / 2**n.

    The narrower operand is padded with identity on trailing qubits so both
    act on n = max(target.n, program.width) qubits.  1.0 means equal up to
    global phase; the approximation error is 1 minus this value.
    """
    up = program_unitary(program)
    n = max(target.n, up.n)
    a = target.entries
    b = up.entries
    if target.n < n:
        a = np.kron(a, np.eye(1 << (n - target.n), dtype=complex))
    if up.n < n:
        b = np.kron(b, np.eye(1 << (n - up.n), dtype=complex))
    overlap = abs(np.trace(a.conj().T @ b)) / (1 << n)
    if overlap > 1.0 + 1e-9:
        raise ValueError(f"overlap {overlap} exceeds 1; inputs are inconsistent")
    return min(overlap, 1.0)
