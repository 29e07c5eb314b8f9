"""Tests for the gate-level program representation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qpc import (
    CZGate,
    CZ_MATRIX,
    ParseError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Program,
    RotationGate,
    UnitaryDescriptor,
    parse_program,
    program_fidelity,
    program_size,
    program_unitary,
    render_program,
)
from qpc.program_ir import checked_unitary
from conftest import random_program


def rotation_oracle(gate):
    """Dense matrix exponential of the rotation generator."""
    tx, ty, tz = gate.angles
    h = tx * PAULI_X + ty * PAULI_Y + tz * PAULI_Z
    return expm(-1j * h)


class TestRotationGate:
    def test_zero_angle_is_identity(self):
        gate = RotationGate(0, (0, 0, 0), 1)
        np.testing.assert_allclose(gate.matrix(), np.eye(2), atol=1e-15)

    def test_quarter_turn_x(self):
        gate = RotationGate(0, (64, 0, 0), 8)
        assert gate.angles[0] == pytest.approx(np.pi / 2)
        expected = np.array([[0, -1j], [-1j, 0]])
        np.testing.assert_allclose(gate.matrix(), expected, atol=1e-15)

    def test_matrix_matches_exponential_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            k = tuple(int(v) for v in rng.integers(0, 2 ** m, size=3))
            gate = RotationGate(0, k, m)
            np.testing.assert_allclose(
                gate.matrix(), rotation_oracle(gate), atol=1e-12
            )

    def test_matrix_is_unitary(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            k = tuple(int(v) for v in rng.integers(0, 2 ** m, size=3))
            u = RotationGate(0, k, m).matrix()
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_size_is_precision(self):
        assert RotationGate(0, (1, 2, 3), 8).size == 8
        assert RotationGate(3, (0, 1, 0), 3).size == 3

    def test_rejects_out_of_range_numerator(self):
        with pytest.raises(ValueError):
            RotationGate(0, (300, 0, 0), 8)
        with pytest.raises(ValueError):
            RotationGate(0, (-1, 0, 0), 8)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            RotationGate(0, (0, 0, 0), 0)

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            RotationGate(-1, (0, 0, 0), 1)


class TestCZGate:
    def test_size_is_one(self):
        assert CZGate(0, 1).size == 1

    def test_self_inverse(self):
        np.testing.assert_allclose(CZ_MATRIX @ CZ_MATRIX, np.eye(4), atol=0)

    def test_rejects_equal_qubits(self):
        with pytest.raises(ValueError):
            CZGate(2, 2)


class TestParsing:
    def test_single_cz(self):
        program = parse_program("CZ 0 1")
        assert len(program) == 1
        assert program.gates[0] == CZGate(0, 1)

    def test_rotation_fields(self):
        program = parse_program("R 0 64 0 0 8")
        gate = program.gates[0]
        assert gate == RotationGate(0, (64, 0, 0), 8)
        assert gate.angles[0] == pytest.approx(np.pi / 2)

    def test_numerator_range_error(self):
        with pytest.raises(ParseError):
            parse_program("R 0 300 0 0 8")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_program("CZ 0 1\nR 0 300 0 0 8")
        assert info.value.line_no == 2

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\nCZ 0 1\n  # trailing comment\nR 1 1 0 0 2\n"
        program = parse_program(text)
        assert len(program) == 2

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program("# nothing here\n")

    def test_field_count_error(self):
        with pytest.raises(ParseError):
            parse_program("R 0 1 0 8")
        with pytest.raises(ParseError):
            parse_program("CZ 0")

    def test_unknown_opcode(self):
        with pytest.raises(ParseError):
            parse_program("H 0")

    @pytest.mark.parametrize(
        "line",
        [
            "R +0 1 0 0 3",
            "R 0 1_0 0 0 8",
            "R 0 1 0 0 \uff13",  # fullwidth digit three
            "CZ \u0661 0",  # Arabic-Indic digit one
            "CZ -1 0",
            "R 0 1.0 0 0 3",
        ],
    )
    def test_fields_are_ascii_decimal_integers(self, line):
        with pytest.raises(ParseError) as info:
            parse_program("CZ 0 1\n" + line)
        assert info.value.line_no == 2

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_render_parse_round_trip(self, data):
        gates = []
        for _ in range(data.draw(st.integers(1, 12))):
            if data.draw(st.booleans()):
                m = data.draw(st.integers(1, 20))
                k = data.draw(st.tuples(*[st.integers(0, (1 << m) - 1)] * 3))
                gates.append(RotationGate(data.draw(st.integers(0, 40)), k, m))
            else:
                a, b = data.draw(st.lists(st.integers(0, 40), min_size=2, max_size=2, unique=True))
                gates.append(CZGate(a, b))
        program = Program(tuple(gates))
        text = render_program(program)
        assert parse_program(text) == program
        # comments, blank lines, lower case and extra blanks are not part of
        # the program: the rendering of the parse is the canonical text again
        noisy = "\n".join(
            data.draw(st.sampled_from(["", "# c", "  "])) + "\n"
            + line.lower().replace(" ", data.draw(st.sampled_from([" ", "  ", "\t"])))
            + data.draw(st.sampled_from(["", " # tail", "  "]))
            for line in text.splitlines()
        )
        assert render_program(parse_program(noisy)) == text

    def test_round_trip_structural_equality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            program = random_program(rng, 4, int(rng.integers(1, 15)))
            assert parse_program(render_program(program)) == program


class TestSize:
    def test_documented_values(self):
        assert program_size(parse_program("CZ 0 1")) == 1
        assert program_size(parse_program("R 0 1 0 0 8")) == 8
        assert program_size(parse_program("CZ 0 1\nR 0 1 0 0 8")) == 9

    def test_additivity_over_random_splits(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            program = random_program(rng, 5, int(rng.integers(2, 20)))
            cut = int(rng.integers(1, len(program)))
            head = Program(program.gates[:cut])
            tail = Program(program.gates[cut:])
            assert program_size(head) + program_size(tail) == program_size(program)


class TestProgramUnitary:
    def test_identity_rotation(self):
        u = program_unitary(parse_program("R 0 0 0 0 1"))
        np.testing.assert_allclose(u.entries, np.eye(2), atol=1e-15)

    def test_pi_half_x(self):
        u = program_unitary(parse_program("R 0 64 0 0 8"))
        expected = np.array([[0, -1j], [-1j, 0]])
        np.testing.assert_allclose(u.entries, expected, atol=1e-15)

    def test_cz_matrix(self):
        u = program_unitary(parse_program("CZ 0 1"))
        np.testing.assert_allclose(u.entries, np.diag([1, 1, 1, -1]), atol=0)

    def test_concatenation_is_matrix_product(self):
        def padded(program, width):
            u = program_unitary(program)
            if u.n < width:
                return np.kron(u.entries, np.eye(1 << (width - u.n)))
            return u.entries

        rng = np.random.default_rng(21)
        for _ in range(30):
            a = random_program(rng, 3, int(rng.integers(1, 8)))
            b = random_program(rng, 3, int(rng.integers(1, 8)))
            combined = Program(a.gates + b.gates)
            width = combined.width
            np.testing.assert_allclose(
                padded(combined, width),
                padded(b, width) @ padded(a, width),
                atol=1e-10,
            )

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            program = random_program(rng, 3, 6)
            width = program.width
            dim = 1 << width
            acc = np.eye(dim, dtype=complex)
            for gate in program.gates:
                if isinstance(gate, RotationGate):
                    mats = [np.eye(2, dtype=complex)] * width
                    mats[gate.target] = rotation_oracle(gate)
                    step = mats[0]
                    for m in mats[1:]:
                        step = np.kron(step, m)
                else:
                    step = np.eye(dim, dtype=complex)
                    for i in range(dim):
                        bits = format(i, f"0{width}b")
                        if bits[gate.control] == "1" and bits[gate.target] == "1":
                            step[i, i] = -1
                acc = step @ acc
            u = program_unitary(program)
            np.testing.assert_allclose(u.entries, acc, atol=1e-10)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            program_unitary(parse_program("CZ 0 13"))


class TestUnitaryDescriptor:
    def test_shape_and_unitarity_checked(self):
        with pytest.raises(ValueError):
            UnitaryDescriptor(1, np.eye(4))
        with pytest.raises(ValueError):
            UnitaryDescriptor(1, [[1, 1], [0, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            UnitaryDescriptor(1, [[bad, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_non_finite_check_warns_nothing(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                checked_unitary(np.array([[bad, 0], [0, 1]]), 2, "matrix")

    def test_entries_are_a_read_only_copy(self):
        source = np.eye(2, dtype=complex)
        u = UnitaryDescriptor(1, source)
        source[0, 0] = 5.0
        assert u.entries[0, 0] == 1.0
        assert not u.entries.flags.writeable


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            program = random_program(rng, 3, 8)
            u = program_unitary(program)
            assert program_fidelity(u, program) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        program = parse_program("R 0 3 5 1 4\nCZ 0 1")
        u = program_unitary(program)
        phased = type(u)(u.n, np.exp(0.7j) * u.entries)
        assert program_fidelity(phased, program) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_case(self):
        program = parse_program("R 0 64 0 0 8")
        identity = program_unitary(parse_program("R 0 0 0 0 1"))
        assert program_fidelity(identity, program) == pytest.approx(0.0, abs=1e-12)

    def test_pads_narrower_operand(self):
        wide = parse_program("R 0 5 0 3 4\nCZ 0 1")
        narrow = program_unitary(parse_program("R 0 5 0 3 4"))
        fid = program_fidelity(narrow, Program(wide.gates[:1]))
        assert fid == pytest.approx(1.0, abs=1e-12)
