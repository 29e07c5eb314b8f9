"""Tests for the exact statevector engine."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc import (
    CZGate,
    Distribution,
    Program,
    PureState,
    ReadoutSpec,
    RotationGate,
    cool,
    exact_distribution,
    init_from_bitstring,
    parse_program,
    program_unitary,
    run_program,
    sample,
    total_variation_distance,
)
from qpc import statevec
from qpc.program_ir import CZ_MATRIX, PAULI_Y
from qpc.statevec import (
    _apply_in_place,
    apply_gate,
    apply_single_qubit,
    apply_two_qubit,
    measure_and_flip,
    state_distribution,
)
from conftest import random_program

BELL_TYPE = "R 0 0 32 0 8\nR 1 0 32 0 8\nCZ 0 1"


@st.composite
def fusion_cases(draw):
    """(program, s_in) whose gate order exercises every case of the fuser.

    Segments are runs of Z-only rotations on one wire, same-wire rotations
    of mixed kinds, identity rotations (k = (0, 0, 0)), CZs on neighbours
    (written in either order) and CZs on any two wires, the wrap pair
    (wires - 1, 0) included, so rotations on a wire sit on both sides of
    the CZs that touch it, chains of neighbour CZs outgrow the widest
    block, and other CZs meet blocks on their wires.  The input may be
    wider than the program.
    """
    wires = draw(st.integers(1, 7))
    wire = st.integers(0, wires - 1)
    m = draw(st.integers(1, 5))
    numerator = st.integers(0, (1 << m) - 1)
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["z-run", "mixed-run", "identity", "neighbour-cz", "cz"]))
        if kind == "neighbour-cz" and wires > 1:
            q = draw(st.integers(0, wires - 2))
            gates.append(CZGate(q, q + 1) if draw(st.booleans()) else CZGate(q + 1, q))
        elif kind == "cz" and wires > 1:
            a, b = draw(st.lists(wire, min_size=2, max_size=2, unique=True))
            gates.append(CZGate(a, b))
        elif kind == "identity":
            gates.append(RotationGate(draw(wire), (0, 0, 0), m))
        else:
            q = draw(wire)
            for _ in range(draw(st.integers(1, 3))):
                kz = draw(numerator)
                if kind == "z-run":
                    gates.append(RotationGate(q, (0, 0, kz), m))
                else:
                    gates.append(RotationGate(q, (draw(numerator), draw(numerator), kz), m))
    program = Program(tuple(gates))
    extra = draw(st.integers(0, 2))
    bits = draw(st.lists(st.sampled_from("01"), min_size=wires + extra, max_size=wires + extra))
    return program, "".join(bits)


@st.composite
def diagonal_tail_cases(draw):
    """(program, s_in, readout): a fuser case followed by Z-only rotations
    and CZs on any wires, with a few dense rotations among them, so some
    diagonal gates have a later dense gate on one of their wires and others
    on none; read out on a random ordered subset of the input's qubits."""
    program, s_in = draw(fusion_cases())
    n = len(s_in)
    qubit = st.integers(0, n - 1)
    tail = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["cz", "cz", "z", "z", "dense"]))
        if kind == "cz" and n > 1:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            tail.append(CZGate(a, b))
        elif kind == "dense":
            tail.append(RotationGate(draw(qubit), (draw(st.integers(1, 31)), 0, 3), 5))
        else:
            tail.append(RotationGate(draw(qubit), (0, 0, draw(st.integers(0, 31))), 5))
    readout = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    return Program(program.gates + tuple(tail)), s_in, ReadoutSpec(tuple(readout))


@st.composite
def distributions(draw, width=None):
    """A Distribution and the ``{key: p}`` dict it was built from.

    Widths 1-12; dense ones come from ``from_probabilities`` and keep every
    outcome, sparse ones from the dict constructor with a random subset of
    keys.  Some probabilities are zero and some subnormal.
    """
    width = draw(st.integers(1, 12)) if width is None else width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.random(1 << width) ** draw(st.sampled_from([1, 4]))
    probs[rng.random(1 << width) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if draw(st.booleans()):
        probs[rng.random(1 << width) < 0.1] = draw(st.sampled_from([5e-324, 2.2e-310]))
    probs[int(rng.integers(1 << width))] = 0.5
    probs /= probs.sum()
    keys = [format(i, f"0{width}b") for i in range(1 << width)]
    if draw(st.booleans()):
        return Distribution.from_probabilities(probs), dict(zip(keys, probs.tolist()))
    keep = rng.random(1 << width) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    keep[np.argmax(probs)] = True
    entries = {k: p for k, p, kept in zip(keys, probs.tolist(), keep) if kept}
    total = sum(entries.values())
    entries = {k: p / total for k, p in entries.items()}
    # dict insertion order must not matter
    order = rng.permutation(len(entries))
    items = list(entries.items())
    return Distribution({items[i][0]: items[i][1] for i in order}), entries


def sorted_key_sample(entries, shots, seed):
    """The sampling rule as a loop over sorted keys (the reference)."""
    keys = sorted(entries)
    probs = np.array([entries[k] for k in keys], dtype=float)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return {k: int(c) for k, c in zip(keys, counts)}


def union_tvd(a, b):
    """0.5 * sum |p - q| over the union of keys, exactly summed."""
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys())


def unitary(seed, d):
    """d x d unitary: QR of a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def brickwork(rng, n, layers):
    """One dense rotation per wire, then CZs on alternating neighbour pairs,
    written in both orders, so every CZ meets dense pending rotations on
    both of its wires."""
    gates = []
    for layer in range(layers):
        for q in range(n):
            gates.append(RotationGate(q, tuple(int(v) for v in rng.integers(1, 64, size=3)), 6))
        for q in range(layer % 2, n - 1, 2):
            gates.append(CZGate(q, q + 1) if (q // 2) % 2 else CZGate(q + 1, q))
    return Program(tuple(gates))


#: (name, matrix) for the kernel test: dense matrices take the blocked
#: product, monomial ones the moves and scales.
KERNEL_MATRICES = {
    "dense 2x2": unitary(1, 2),
    "diagonal 2x2": np.diag([np.exp(0.3j), np.exp(-1.1j)]),
    "Y": PAULI_Y,
    "dense 4x4": unitary(2, 4),
    "CZ": CZ_MATRIX,
    "phased permutation 4x4": np.eye(4)[[2, 0, 3, 1]] * np.exp(1j * np.arange(4)),
}


def count_passes(monkeypatch):
    """A list whose first entry counts the kernel passes over the vector
    (``_apply_dense`` and ``_move_and_scale`` calls) from here on."""
    passes = [0]
    for name in ("_apply_dense", "_move_and_scale"):
        kernel = getattr(statevec, name)

        def counted(*args, kernel=kernel):
            passes[0] += 1
            return kernel(*args)

        monkeypatch.setattr(statevec, name, counted)
    return passes


class TestKernel:
    """``_apply_in_place`` at n = 16: 2**16 amplitudes, several blocks of the
    dense kernel, and rows both of the kron product and of the stacked one."""

    N = 16

    @pytest.fixture(scope="class")
    def state(self):
        rng = np.random.default_rng(47)
        raw = rng.normal(size=1 << self.N) + 1j * rng.normal(size=1 << self.N)
        return raw / np.linalg.norm(raw)

    @pytest.mark.parametrize("name", sorted(KERNEL_MATRICES))
    def test_matches_tensordot(self, state, name):
        matrix, n = KERNEL_MATRICES[name], self.N
        if len(matrix) == 2:
            targets = [(q,) for q in range(n)]
        else:
            targets = [(q, q + 1) for q in range(n - 1)] + [(q + 1, q) for q in range(n - 1)]
            targets += [(n - 1, 0), (0, n - 1), (3, 9)]
        for qubits in targets:
            vec = state.copy()
            _apply_in_place(vec, n, qubits, matrix)
            if len(qubits) == 1:
                expected = apply_single_qubit(state, n, qubits[0], matrix)
            else:
                expected = apply_two_qubit(state, n, *qubits, matrix)
            assert np.max(np.abs(vec - expected)) <= 1e-12, qubits


class TestInit:
    def test_all_zeros(self):
        state = init_from_bitstring("00")
        expected = np.zeros(4)
        expected[0] = 1
        np.testing.assert_allclose(state.amplitudes, expected, atol=0)

    def test_qubit_zero_is_most_significant(self):
        state = init_from_bitstring("10")
        assert state.amplitudes[2] == 1
        assert init_from_bitstring("01").amplitudes[1] == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            init_from_bitstring("")

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            init_from_bitstring("0x")


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1.0], dtype=complex))

    def test_non_finite_amplitudes_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                PureState(1, np.array([bad, 1.0], dtype=complex))

    def test_amplitudes_frozen(self):
        state = init_from_bitstring("0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize(
        "n, amps",
        [
            (1, [np.nan, 1.0]),
            (1, [1.0, 1.0]),
            (2, [1.0, 0.0]),
            (0, [1.0]),
            (25, [1.0]),
        ],
    )
    def test_adopt_runs_the_constructor_checks(self, n, amps):
        with pytest.raises(ValueError):
            PureState._adopt(n, np.array(amps, dtype=complex))

    def test_adopt_keeps_the_buffer(self):
        vec = np.array([0.6, 0.8j])
        state = PureState._adopt(1, vec)
        assert state.amplitudes is vec
        assert not vec.flags.writeable


class TestApplyGate:
    def test_pi_half_x_on_zero(self):
        state = apply_gate(init_from_bitstring("0"), RotationGate(0, (64, 0, 0), 8))
        np.testing.assert_allclose(state.amplitudes, [0, -1j], atol=1e-15)

    def test_pi_quarter_y_on_zero(self):
        state = apply_gate(init_from_bitstring("0"), RotationGate(0, (0, 32, 0), 8))
        np.testing.assert_allclose(
            state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15
        )

    def test_cz_flips_sign_of_one_one(self):
        state = apply_gate(init_from_bitstring("11"), CZGate(0, 1))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, -1], atol=0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(init_from_bitstring("0"), CZGate(0, 1))

    def test_norm_preserved_over_random_sequences(self):
        rng = np.random.default_rng(41)
        state = init_from_bitstring("0000")
        for _ in range(60):
            program = random_program(rng, 4, 1)
            state = apply_gate(state, program.gates[0])
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


class TestRunProgram:
    def test_bell_type_state(self):
        state = run_program(parse_program(BELL_TYPE), "00")
        np.testing.assert_allclose(
            state.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-12
        )

    def test_identity_program(self):
        state = run_program(parse_program("R 0 0 0 0 1"), "0")
        np.testing.assert_allclose(state.amplitudes, [1, 0], atol=0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            run_program(parse_program("CZ 0 1"), "0")

    @pytest.mark.parametrize("run", [run_program, lambda p, s: exact_distribution(p, s, ReadoutSpec((0,)))])
    def test_width_mismatch_fails_before_allocating(self, run):
        # 2**20 amplitudes would take 16 MiB
        program = Program((RotationGate(0, (1, 0, 0), 2), CZGate(0, 20)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="program touches qubit 20 but input has 20 bits"):
                run(program, "0" * 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_input_may_exceed_program_width(self):
        state = run_program(parse_program("R 0 64 0 0 8"), "00")
        np.testing.assert_allclose(state.amplitudes, [0, 0, -1j, 0], atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(case=fusion_cases())
    def test_matches_gate_by_gate_fold(self, case):
        program, s_in = case
        expected = init_from_bitstring(s_in)
        for gate in program.gates:
            expected = apply_gate(expected, gate)
        state = run_program(program, s_in)
        assert np.max(np.abs(state.amplitudes - expected.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("n, layers, seed", [(4, 3, 48), (7, 4, 49), (10, 2, 50)])
    def test_brickwork_matches_gate_by_gate_fold(self, n, layers, seed):
        program = brickwork(np.random.default_rng(seed), n, layers)
        s_in = format(seed, f"0{n}b")[-n:]
        expected = init_from_bitstring(s_in)
        for gate in program.gates:
            expected = apply_gate(expected, gate)
        state = run_program(program, s_in)
        assert np.max(np.abs(state.amplitudes - expected.amplitudes)) <= 1e-12

    @pytest.mark.parametrize(
        "layers, run_passes, exact_passes",
        # fusing only per wire and per neighbour CZ took 35 / 13 / 6 passes
        # in both run_program and exact_distribution
        [(6, 13, 11), (2, 5, 3), (1, 3, 3)],
    )
    def test_brickwork_pass_count(self, monkeypatch, layers, run_passes, exact_passes):
        program = brickwork(np.random.default_rng(51), 12, layers)
        passes = count_passes(monkeypatch)
        run_program(program, "0" * 12)
        assert passes[0] == run_passes
        passes[0] = 0
        exact_distribution(program, "0" * 12, ReadoutSpec((0, 1, 2)))
        assert passes[0] == exact_passes

    def test_peak_memory_is_one_state_vector_and_a_block(self):
        n = 16
        program = random_program(np.random.default_rng(46), n, 120)
        run_program(program, "0" * n)
        tracemalloc.start()
        try:
            run_program(program, "0" * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the buffer is handed to the PureState without a copy; beside it
        # live one 256 KiB block of the dense kernel and small matrices
        assert peak <= (1 << n) * 16 + (1 << 19)

    def test_peak_memory_is_two_state_vectors(self):
        n = 16
        program = random_program(np.random.default_rng(46), n, 120)
        run_program(program, "0" * n)
        tracemalloc.start()
        try:
            run_program(program, "0" * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at most two vectors: the buffer beside up to one vector of saved
        # parts and copies (a monomial move) or one dense-kernel block; the
        # PureState takes the buffer without a copy.  The slack covers
        # numpy's iteration buffers on strided halves (up to 256 KiB
        # whatever n is) and stays below the half vector one more temporary
        # would add.
        assert peak <= 2 * (1 << n) * 16 + (1 << 19)

    def test_agrees_with_dense_unitary(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            program = random_program(rng, n, int(rng.integers(1, 12)))
            s_in = "".join(rng.choice(["0", "1"], size=n))
            state = run_program(program, s_in)
            u = program_unitary(program).entries
            if program.width < n:
                u = np.kron(u, np.eye(1 << (n - program.width)))
            expected = u @ init_from_bitstring(s_in).amplitudes
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-9)


class TestDistributions:
    def test_bell_type_full_readout(self):
        dist = exact_distribution(parse_program(BELL_TYPE), "00", ReadoutSpec((0, 1)))
        for outcome in ("00", "01", "10", "11"):
            assert dist[outcome] == pytest.approx(0.25, abs=1e-12)

    def test_bell_type_marginal(self):
        dist = exact_distribution(parse_program(BELL_TYPE), "00", ReadoutSpec((0,)))
        assert dist["0"] == pytest.approx(0.5, abs=1e-12)
        assert dist["1"] == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(case=diagonal_tail_cases())
    def test_diagonal_suffix_skip_is_exact(self, case):
        program, s_in, readout = case
        expected = state_distribution(run_program(program, s_in), readout)
        assert total_variation_distance(exact_distribution(program, s_in, readout), expected) <= 1e-12

    def test_diagonal_program_makes_no_pass(self, monkeypatch):
        program = parse_program("R 0 0 0 5 4\nCZ 0 2\nR 2 0 0 3 3\nCZ 1 2\nR 1 0 0 0 1")
        passes = count_passes(monkeypatch)
        dist = exact_distribution(program, "110", ReadoutSpec((2, 0)))
        assert passes[0] == 0
        assert dist.entries == {"00": 0.0, "01": 1.0, "10": 0.0, "11": 0.0}

    def test_identity_point_mass(self):
        dist = exact_distribution(parse_program("R 0 0 0 0 1"), "0", ReadoutSpec((0,)))
        assert dist["0"] == pytest.approx(1.0, abs=0)

    @pytest.mark.parametrize("qubit", [True, False, 0.0, 1.5, "0", None])
    def test_readout_qubits_must_be_integers(self, qubit):
        with pytest.raises(ValueError, match=f"readout qubit must be an integer, got {qubit!r}"):
            ReadoutSpec((qubit,))

    def test_numpy_integer_readout_qubits_accepted(self):
        readout = ReadoutSpec((np.int64(1), np.int32(0)))
        dist = exact_distribution(parse_program("R 0 64 0 0 8"), "00", readout)
        assert dist["01"] == pytest.approx(1.0, abs=1e-12)

    def test_readout_order_matters(self):
        state = run_program(parse_program("R 0 64 0 0 8"), "00")
        forward = state_distribution(state, ReadoutSpec((0, 1)))
        reversed_ = state_distribution(state, ReadoutSpec((1, 0)))
        assert forward["10"] == pytest.approx(1.0, abs=1e-12)
        assert reversed_["01"] == pytest.approx(1.0, abs=1e-12)

    def test_marginal_consistency(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            program = random_program(rng, n, 8)
            s_in = "0" * n
            keep = sorted(
                int(q) for q in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            )
            full = exact_distribution(program, s_in, ReadoutSpec(tuple(range(n))))
            part = exact_distribution(program, s_in, ReadoutSpec(tuple(keep)))
            for outcome, p in part.entries.items():
                total = sum(
                    q
                    for full_outcome, q in full.entries.items()
                    if all(full_outcome[k] == outcome[i] for i, k in enumerate(keep))
                )
                assert abs(total - p) < 1e-10

    def test_entries_sum_to_one(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            program = random_program(rng, n, 10)
            dist = exact_distribution(program, "0" * n, ReadoutSpec(tuple(range(n))))
            assert abs(sum(dist.entries.values()) - 1.0) < 1e-10

    def test_json_is_canonical(self):
        dist = Distribution({"1": 0.5, "0": 0.5})
        assert dist.to_json() == '{"0": 0.5, "1": 0.5}'

    def test_malformed_entries_rejected(self):
        with pytest.raises(ValueError):
            Distribution({"0": 0.9})
        with pytest.raises(ValueError):
            Distribution({"0": 0.5, "ab": 0.5})

    @pytest.mark.parametrize(
        "entries",
        [
            {"0": np.nan, "1": 1.0},
            {"0": 1.0, "1": np.nan},
            {"0": np.inf, "1": 0.0},
            {"": 1.0},
            {},
            {"0": 0.5, "01": 0.5},
            {"0 ": 1.0},
        ],
    )
    def test_non_finite_and_malformed_rejected(self, entries):
        with pytest.raises(ValueError):
            Distribution(entries)

    def test_non_numeric_probability_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            Distribution({"0": "0.5", "1": 0.5})

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 1.0], [1.0, np.nan], [1.2, -0.2], [np.inf, 0.0], [1.0], [], [0.5, 0.25, 0.25],
         [[0.5, 0.5]], [0.9, 0.0]],
    )
    def test_from_probabilities_rejects(self, probs):
        with pytest.raises(ValueError):
            Distribution.from_probabilities(np.array(probs, dtype=float))

    def test_from_probabilities_clamps_round_off(self):
        dist = Distribution.from_probabilities(np.array([1.0, -1e-13]))
        assert dist.to_json() == '{"0": 1.0, "1": 0.0}'

    def test_from_probabilities_owns_its_copy(self):
        probs = np.array([0.5, 0.5])
        dist = Distribution.from_probabilities(probs)
        probs[0] = 7.0
        assert dist["0"] == 0.5

    @pytest.mark.parametrize("keep", [1.0, 0.4])
    def test_json_across_chunks(self, keep):
        rng = np.random.default_rng(21)
        probs = rng.random(1 << 14) * (rng.random(1 << 14) < keep)
        probs /= probs.sum()
        entries = {format(i, "014b"): p for i, p in enumerate(probs.tolist()) if p or keep == 1.0}
        dist = Distribution(entries)
        assert dist.to_json() == json.dumps(entries, sort_keys=True)
        if keep == 1.0:
            assert Distribution.from_probabilities(probs).to_json() == dist.to_json()

    def test_entries_is_a_fresh_sorted_dict(self):
        dist = Distribution({"1": 0.25, "0": 0.75})
        entries = dist.entries
        assert list(entries) == ["0", "1"]
        entries["0"] = 0.0
        assert dist.entries == {"0": 0.75, "1": 0.25}

    def test_sparse_and_dense_differ(self):
        assert Distribution({"0": 1.0}) != Distribution.from_probabilities(np.array([1.0, 0.0]))
        assert Distribution({"0": 1.0, "1": 0.0}) == Distribution.from_probabilities(
            np.array([1.0, 0.0])
        )
        assert Distribution({"00": 1.0}) != Distribution({"0": 1.0})
        assert Distribution({"01": 1.0}) != Distribution({"10": 1.0})

    def test_lookup_of_absent_and_foreign_keys(self):
        dense = Distribution.from_probabilities(np.array([0.25, 0.75]))
        sparse = Distribution({"01": 0.5, "11": 0.5})
        for key in ("", "2", "01", "0 ", 1):
            assert dense[key] == 0.0
        assert [sparse[k] for k in ("00", "01", "10", "11", "1", "111")] == [0, 0.5, 0, 0.5, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(distributions())
    def test_matches_dict_semantics(self, case):
        dist, entries = case
        assert dist.width == len(next(iter(entries)))
        assert dist.entries == entries
        assert list(dist.entries) == sorted(entries)
        assert dist.to_json() == json.dumps(entries, sort_keys=True)
        assert dist.to_json() == json.dumps(dict(dist.entries), sort_keys=True)
        assert all(dist[k] == p for k, p in entries.items())
        assert Distribution(entries) == dist
        for shots, seed in ((1, 0), (10_000, 17)):
            assert sample(dist, shots, seed) == sorted_key_sample(entries, shots, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tvd_matches_union_formula(self, data):
        a, pa = data.draw(distributions())
        same_width = data.draw(st.booleans())
        b, pb = data.draw(distributions(width=a.width if same_width else None))
        assert total_variation_distance(a, b) == union_tvd(pa, pb)
        assert total_variation_distance(a, a) == 0.0

    def test_tvd(self):
        a = Distribution({"0": 1.0, "1": 0.0})
        b = Distribution({"0": 0.5, "1": 0.5})
        assert total_variation_distance(a, b) == pytest.approx(0.5, abs=1e-12)
        assert total_variation_distance(a, a) == 0.0


class TestSampling:
    def test_point_mass(self):
        counts = sample(Distribution({"0": 1.0, "1": 0.0}), 100, seed=5)
        assert counts == {"0": 100, "1": 0}

    def test_binomial_bound_fair_coin(self):
        counts = sample(Distribution({"0": 0.5, "1": 0.5}), 10000, seed=9)
        sigma = np.sqrt(10000 * 0.25)
        for outcome in ("0", "1"):
            assert abs(counts[outcome] - 5000) <= 5 * sigma

    def test_seed_determinism(self):
        dist = Distribution({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
        assert sample(dist, 1000, seed=3) == sample(dist, 1000, seed=3)
        assert sample(dist, 1000, seed=3) != sample(dist, 1000, seed=4)

    def test_counts_sum_to_shots(self):
        dist = Distribution({"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
        counts = sample(dist, 777, seed=1)
        assert sum(counts.values()) == 777

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample(Distribution({"0": 1.0}), 0, seed=1)

    @pytest.mark.parametrize("shots", [2.5, 2.0, True])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match=f"shots must be an integer, got {shots!r}"):
            sample(Distribution({"0": 1.0}), shots, seed=1)

    def test_numpy_integer_shots_accepted(self):
        assert sample(Distribution({"0": 1.0}), np.int64(3), seed=1) == {"0": 3}


def cool_states():
    """A 4-qubit state of +-1/2 and +-i/2 amplitudes and a 3-qubit ramp."""
    quarters = np.zeros(16, dtype=complex)
    quarters[[0b0000, 0b0110, 0b1011, 0b1101]] = [0.5, 0.5, 0.5j, -0.5]
    ramp = np.arange(1, 9) + 1j * (np.arange(8) % 3)
    return {"quarters": PureState(4, quarters), "ramp": PureState(3, ramp / np.linalg.norm(ramp))}


# (state, seed, qubits) -> nonzero amplitudes of ``cool``, as measuring
# with a projected copy and flipping with ``apply_single_qubit`` gives them.
COOL_TABLE = {
    ("quarters", 0, (0,)): {0: (0.7071067811865475+0j), 6: (0.7071067811865475+0j)},
    ("quarters", 0, (1, 2)): {9: 1j},
    ("quarters", 0, (2, 0, 1)): {1: (-1+0j)},
    ("quarters", 1, (0,)): {0: (0.7071067811865475+0j), 6: (0.7071067811865475+0j)},
    ("quarters", 1, (1, 2)): {0: (0.9999999999999998+0j)},
    ("quarters", 1, (2, 0, 1)): {0: (0.9999999999999998+0j)},
    ("quarters", 2, (0,)): {3: 0.7071067811865475j, 5: (-0.7071067811865475+0j)},
    ("quarters", 2, (1, 2)): {0: (1+0j)},
    ("quarters", 2, (2, 0, 1)): {1: 1j},
    ("ramp", 0, (0,)): {
        0: (0.37267799624996495+0.07453559924999298j),
        1: (0.44721359549995787+0.14907119849998596j),
        2: (0.5217491947499509+0j),
        3: (0.5962847939999438+0.07453559924999298j),
    },
    ("ramp", 0, (1, 2)): {0: (0.4444444444444445+0j), 4: (0.888888888888889+0.11111111111111112j)},
    ("ramp", 0, (2, 0, 1)): {0: (1+0j)},
    ("ramp", 1, (0,)): {
        0: (0.37267799624996495+0.07453559924999298j),
        1: (0.44721359549995787+0.14907119849998596j),
        2: (0.5217491947499509+0j),
        3: (0.5962847939999438+0.07453559924999298j),
    },
    ("ramp", 1, (1, 2)): {0: (0.3810003810005715+0.254000254000381j), 4: (0.8890008890013334+0j)},
    ("ramp", 1, (2, 0, 1)): {0: (1+0j)},
    ("ramp", 2, (0,)): {
        0: (0.37267799624996495+0.07453559924999298j),
        1: (0.44721359549995787+0.14907119849998596j),
        2: (0.5217491947499509+0j),
        3: (0.5962847939999438+0.07453559924999298j),
    },
    ("ramp", 2, (1, 2)): {0: (0.4444444444444445+0j), 4: (0.888888888888889+0.11111111111111112j)},
    ("ramp", 2, (2, 0, 1)): {0: (0.9486832980505134+0.31622776601683783j)},
}


class TestCool:
    def test_plus_state_to_zero(self):
        state = apply_gate(init_from_bitstring("0"), RotationGate(0, (0, 32, 0), 8))
        cooled = cool(state, [0])
        np.testing.assert_allclose(np.abs(cooled.amplitudes), [1, 0], atol=1e-12)

    def test_one_to_zero(self):
        cooled = cool(init_from_bitstring("1"), [0])
        np.testing.assert_allclose(np.abs(cooled.amplitudes), [1, 0], atol=0)

    def test_bell_type_cools_to_origin(self):
        state = run_program(parse_program(BELL_TYPE), "00")
        for seed in range(8):
            cooled = cool(state, [0, 1], seed=seed)
            assert abs(abs(cooled.amplitudes[0]) - 1.0) < 1e-12

    def test_cooled_qubits_read_zero(self):
        rng = np.random.default_rng(45)
        for trial in range(20):
            program = random_program(rng, 3, 8)
            state = run_program(program, "000")
            cooled = cool(state, [0, 2], seed=trial)
            dist = state_distribution(cooled, ReadoutSpec((0, 2)))
            assert dist["00"] == pytest.approx(1.0, abs=1e-10)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            cool(init_from_bitstring("0"), [1])

    @pytest.mark.parametrize("qubit", [0.0, True, 1.0])
    def test_qubits_must_be_integers(self, qubit):
        with pytest.raises(ValueError, match=f"cool qubit must be an integer, got {qubit!r}"):
            cool(init_from_bitstring("01"), [qubit])

    def test_numpy_integer_qubits_accepted(self):
        cooled = cool(init_from_bitstring("01"), [np.int64(1)])
        np.testing.assert_allclose(np.abs(cooled.amplitudes), [1, 0, 0, 0], atol=0)

    @pytest.mark.parametrize("case", sorted(COOL_TABLE))
    def test_outputs_match_fixed_table(self, case):
        label, seed, qubits = case
        state = cool_states()[label]
        expected = np.zeros(1 << state.n, dtype=complex)
        expected[list(COOL_TABLE[case])] = list(COOL_TABLE[case].values())
        assert np.array_equal(cool(state, qubits, seed=seed).amplitudes, expected)

    def test_measure_and_flip_draws_one_number_per_qubit(self):
        # one generator across two calls: the second call's outcomes come
        # from the draws after the first call's single one
        state = cool_states()["quarters"]
        rng = np.random.default_rng(2)
        first = measure_and_flip(state, [0], rng).amplitudes
        second = measure_and_flip(state, [2, 1], rng).amplitudes
        expected = np.zeros(16, dtype=complex)
        expected[[3, 5]] = [0.7071067811865475j, -0.7071067811865475]
        assert np.array_equal(first, expected)
        expected = np.zeros(16, dtype=complex)
        expected[9] = 0.9999999999999998j
        assert np.array_equal(second, expected)
