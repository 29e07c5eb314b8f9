"""Tests for the species-addressed cell chain simulator."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc import (
    CellChain,
    HADAMARD,
    PairPulse,
    PureState,
    RotationGate,
    SpeciesPulse,
    SWAP_MATRIX,
    apply_pulse,
    bulk_measure,
    chain_from_bits,
    cool_species,
    run_script,
    translate,
    transport_demo,
)
from qpc import global_control
from qpc.global_control import adjacent_pairs
from qpc.program_ir import CZ_MATRIX, PAULI_X, PAULI_Y, PAULI_Z, ParseError
from qpc.statevec import apply_cz, apply_two_qubit

import gc_dense


def dense_pairwise(chain, pairs, matrix):
    """Edge-by-edge dense application of a two-qubit op, as an oracle."""
    vec = chain.state.amplitudes
    for a, b in pairs:
        if np.allclose(matrix, CZ_MATRIX):
            vec = apply_cz(vec, chain.length, a, b)
        else:
            vec = apply_two_qubit(vec, chain.length, a, b, matrix)
    return vec


def random_unitary(seed):
    """4x4 unitary: QR of a seeded complex Gaussian matrix.  Not symmetric
    under exchanging the two qubits, unlike CZ and SWAP."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


def random_periodic_chain(draw):
    """A random state on a periodic ABC/AB chain of up to 9 cells."""
    pattern = draw(st.sampled_from(["ABC", "AB"]))
    period = len(pattern)
    length = period * draw(st.integers(1, 9 // period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=1 << length) + 1j * rng.normal(size=1 << length)
    return CellChain(pattern, PureState(length, raw / np.linalg.norm(raw)), "periodic")


@st.composite
def covariance_cases(draw):
    """A random state on a periodic ABC/AB chain of up to 9 cells, one
    species or pair pulse (named, R gate or random 4x4) and a
    period-multiple offset."""
    chain = random_periodic_chain(draw)
    pattern, period, length = chain.pattern, chain.period, chain.length
    first = draw(st.sampled_from(pattern))
    if draw(st.booleans()):
        m = draw(st.integers(1, 8))
        k = tuple(draw(st.integers(0, (1 << m) - 1)) for _ in range(3))
        gates = [PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, RotationGate(0, k, m).matrix()]
        pulse = SpeciesPulse(first, draw(st.sampled_from(gates)))
    else:
        second = draw(st.sampled_from([s for s in pattern if s != first]))
        pair_gates = [CZ_MATRIX, SWAP_MATRIX, random_unitary(draw(st.integers(0, 2**32 - 1)))]
        pulse = PairPulse(first, second, draw(st.sampled_from(pair_gates)))
    offset = period * draw(st.integers(-(length // period), length // period))
    return chain, pulse, offset


def parity_ring():
    """(|0000> + |0110> + i|1011> - |1101>) / 2 on a periodic AB ring."""
    amps = np.zeros(16, dtype=complex)
    amps[[0b0000, 0b0110, 0b1011, 0b1101]] = [0.5, 0.5, 0.5j, -0.5]
    return CellChain("AB", PureState(4, amps), "periodic")


PARITY_SCRIPTS = {
    "exact": "PULSE A X\nPAIR A B CZ\nPULSE B Y\nPAIR B A SWAP\nMEASURE A\nPULSE B Z\nCOOL B\n",
    "H": "PULSE A H\nPAIR A B CZ\nMEASURE B\nPULSE B H\nPAIR A B SWAP\nCOOL A\n",
    "R": "PULSE A R 1 2 3 5\nPAIR B A CZ\nPULSE B R 7 0 1 4\nMEASURE A\nCOOL B\n",
}

# (script, seed) -> (measured weights, nonzero final amplitudes of
# ``run_script(parity_ring(), script, seed)``), as the per-cell tensordot
# kernels (``apply_single_qubit``, ``apply_two_qubit``) give them.
SCRIPT_TABLE = {
    ("exact", 0): ([1], {8: (1+0j)}),
    ("exact", 1): ([1], {8: (1+0j)}),
    ("exact", 2): ([1], {2: 0.9999999999999998j}),
    ("exact", 3): ([0], {0: (1+0j)}),
    ("H", 0): ([1], {
        0: (-0.35355339059327373-0.35355339059327373j),
        1: (0.35355339059327373-0.35355339059327373j),
        4: (0.35355339059327373+0.35355339059327373j),
        5: (-0.35355339059327373+0.35355339059327373j),
    }),
    ("H", 1): ([1], {
        0: (0.35355339059327373-0.35355339059327373j),
        1: (-0.35355339059327373-0.35355339059327373j),
        4: (-0.35355339059327373+0.35355339059327373j),
        5: (0.35355339059327373+0.35355339059327373j),
    }),
    ("H", 2): ([1], {
        0: (-0.3535533905932737+0.3535533905932737j),
        1: (0.3535533905932737+0.3535533905932737j),
        4: (0.3535533905932737-0.3535533905932737j),
        5: (-0.3535533905932737-0.3535533905932737j),
    }),
    ("H", 3): ([0], {
        0: (0.5000000000000001+0j),
        1: (0.5000000000000001+0j),
        4: (0.5000000000000001+0j),
        5: (0.5000000000000001+0j),
    }),
    ("R", 0): ([1], {
        2: (-0.16443211769775798-0.16855884795508885j),
        8: (0.9299198480732336-0.2824872910503024j),
    }),
    ("R", 1): ([1], {
        2: (0.6815921770335925-0.1937780840205868j),
        8: (-0.20201230044771+0.6760718814059216j),
    }),
    ("R", 2): ([1], {
        2: (-0.9035425784313644+0.04016877379611254j),
        8: (0.02610639113888895+0.4258118538920938j),
    }),
    ("R", 3): ([0], {0: (0.25182161277423315-0.9677736694805165j)}),
}


# the instruction mix of the benchmark's gc scripts
SCRIPT_OPS = ("PULSE", "PAIR", "MEASURE", "COOL")
NAMED_PULSES = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z, "H": HADAMARD}
NAMED_PAIRS = {"CZ": CZ_MATRIX, "SWAP": SWAP_MATRIX}


@st.composite
def script_cases(draw):
    """A random state on an AB, BA, ABC or CAB chain (open, 4-9 cells, or
    periodic, whole periods), a seed and 1-12 instructions, each as its
    canonical text, its operation and its text with random lower case, a
    trailing comment and blank lines around it."""
    pattern = draw(st.sampled_from(["AB", "BA", "ABC", "CAB"]))
    period = len(pattern)
    if draw(st.booleans()):
        boundary, length = "open", draw(st.integers(4, 9))
    else:
        boundary, length = "periodic", period * draw(st.integers(1, 9 // period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=1 << length) + 1j * rng.normal(size=1 << length)
    chain = CellChain(pattern, PureState(length, raw / np.linalg.norm(raw)), boundary)
    instructions = []
    for op in draw(st.lists(st.sampled_from(SCRIPT_OPS), min_size=1, max_size=12)):
        species = draw(st.sampled_from(pattern))
        if op == "PULSE" and draw(st.booleans()):
            gate = draw(st.sampled_from(sorted(NAMED_PULSES)))
            operation = SpeciesPulse(species, NAMED_PULSES[gate])
        elif op == "PULSE":
            m = draw(st.integers(2, 6))
            k = tuple(draw(st.integers(0, (1 << m) - 1)) for _ in range(3))
            gate = "R " + " ".join(map(str, k)) + f" {m}"
            operation = SpeciesPulse(species, RotationGate(0, k, m).matrix())
        elif op == "PAIR":
            second = draw(st.sampled_from([s for s in pattern if s != species]))
            gate = draw(st.sampled_from(sorted(NAMED_PAIRS)))
            operation = PairPulse(species, second, NAMED_PAIRS[gate])
            species += " " + second
        else:
            gate, operation = "", species
        canonical = " ".join(filter(None, (op, species, gate)))
        words = [w.lower() if draw(st.booleans()) else w for w in canonical.split()]
        text = draw(st.sampled_from([" ", "\t", "  "])).join(words)
        text += draw(st.sampled_from(["", "  # note", "\t# PULSE Q X", "#"]))
        blanks = draw(st.sampled_from(["", "\n", "   \n", "# comment\n"]))
        instructions.append((canonical, operation, blanks + text + "\n"))
    return chain, draw(st.integers(0, 2**32 - 1)), instructions


def fold_script(chain, seed, instructions):
    """Each instruction applied as it comes, on one generator: the
    per-line fold that ``run_script`` replaces."""
    rng = np.random.default_rng(seed)
    events = []
    for canonical, operation, _ in instructions:
        op, *fields = canonical.split()
        if op == "MEASURE":
            result = global_control._bulk_measure_rng(chain, operation, rng)
            chain = result.chain
            events.append({"op": "measure", "species": operation, "weight": result.weight})
        elif op == "COOL":
            chain = global_control._cool_species_rng(chain, operation, rng)
            events.append({"op": "cool", "species": operation})
        elif op == "PULSE":
            chain = apply_pulse(chain, operation)
            events.append({"op": "pulse", "species": fields[0], "gate": " ".join(fields[1:])})
        else:
            chain = apply_pulse(chain, operation)
            events.append({"op": "pair", "first": fields[0], "second": fields[1], "gate": fields[2]})
    return chain, events


# the instruction sequence of every benchmark gc script, so drawing from it
# keeps the benchmark's shares of PULSE, PAIR, MEASURE and COOL
BENCH_OPS = ("PULSE", "PAIR", "PULSE", "MEASURE", "PULSE", "PAIR", "COOL", "PULSE", "PAIR", "MEASURE")


@st.composite
def oracle_cases(draw):
    """An AB, BA, ABC or CAB chain (open, 4-12 cells, or periodic, whole
    periods up to 12 cells) in a random basis state or a random dense
    state, a seed and a script of 1-12 instructions in the benchmark's mix:
    half the pulses named (X, Y, Z, H), half ``R`` with m = 2..6."""
    pattern = draw(st.sampled_from(["AB", "BA", "ABC", "CAB"]))
    period = len(pattern)
    if draw(st.booleans()):
        boundary, length = "open", draw(st.integers(4, 12))
    else:
        boundary, length = "periodic", period * draw(st.integers(1, 12 // period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        chain = chain_from_bits(pattern, "".join(rng.choice(["0", "1"], size=length)), boundary)
    else:
        raw = rng.normal(size=1 << length) + 1j * rng.normal(size=1 << length)
        chain = CellChain(pattern, PureState(length, raw / np.linalg.norm(raw)), boundary)
    lines = []
    for op in draw(st.lists(st.sampled_from(BENCH_OPS), min_size=1, max_size=12)):
        species = draw(st.sampled_from(pattern))
        if op == "PULSE" and draw(st.booleans()):
            lines.append(f"PULSE {species} {draw(st.sampled_from(sorted(NAMED_PULSES)))}")
        elif op == "PULSE":
            m = draw(st.integers(2, 6))
            k = " ".join(str(draw(st.integers(0, (1 << m) - 1))) for _ in range(3))
            lines.append(f"PULSE {species} R {k} {m}")
        elif op == "PAIR":
            second = draw(st.sampled_from([s for s in pattern if s != species]))
            lines.append(f"PAIR {species} {second} {draw(st.sampled_from(sorted(NAMED_PAIRS)))}")
        else:
            lines.append(f"{op} {species}")
    return chain, draw(st.integers(0, 2**32 - 1)), "\n".join(lines) + "\n"


# seed 7's gc02 job of the benchmark's anneal-gc list: script, cells, seed
GC02_SCRIPT = (
    "PULSE A X\nPAIR A B CZ\nPULSE C Z\nMEASURE A\nPULSE C R 31 20 16 5\n"
    "PAIR C A CZ\nCOOL A\nPULSE C R 4 9 11 4\nPAIR C A CZ\nMEASURE C\n"
)
GC02_BITS, GC02_SEED = "111011101101110011", 580923005


# (script, chain pattern, 1-based line of the first malformed line)
MALFORMED_SCRIPTS = [
    ("PULSE A H\nPULSE B H\nWOBBLE", "AB", 3),
    ("PULSE A H\nPULSE B H\nWOBBLE", "ABC", 3),
    ("PULSE A X\nMEASURE A\nPULSE C X", "AB", 3),
    ("PULSE A X\nPAIR A C SWAP", "AB", 2),
    ("PULSE A X\nPAIR A B FOO", "AB", 2),
    ("PULSE A X\nPAIR A B FOO", "ABC", 2),
    ("PULSE A X\nPULSE B R 1 0 0 \uff13", "AB", 2),
    ("PULSE A X\nPULSE B R 1 0 0 \uff13", "ABC", 2),
    ("PULSE A X\nMEASURE", "AB", 2),
    ("PULSE A X\nMEASURE", "ABC", 2),
]


@st.composite
def transport_cases(draw):
    """A pattern, boundary and length of 2-10 cells (a whole number of
    periods when periodic), a ``rounds`` the open-boundary guard allows
    (up to two laps of a periodic chain) and a random payload."""
    pattern = draw(st.sampled_from(["AB", "BA", "ABC", "ACB"]))
    period = len(pattern)
    boundary = draw(st.sampled_from(["open", "periodic"]))
    if boundary == "open":
        length = draw(st.integers(2, 10))
        rounds = draw(st.integers(0, (length - 1) // period))
    else:
        length = period * draw(st.integers(1, 10 // period))
        rounds = draw(st.integers(0, 2 * length // period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return pattern, boundary, length, rounds, raw / np.linalg.norm(raw)


class TestCellChain:
    def test_species_assignment(self):
        chain = chain_from_bits("ABC", "000000")
        assert [chain.species_of(i) for i in range(6)] == list("ABCABC")
        assert chain.cells_of("B") == (1, 4)

    def test_period_two_pattern(self):
        chain = chain_from_bits("AB", "0000")
        assert chain.period == 2
        assert chain.cells_of("A") == (0, 2)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            chain_from_bits("AA", "0000")
        with pytest.raises(ValueError):
            chain_from_bits("ABCD", "0000")
        with pytest.raises(ValueError):
            chain_from_bits("A", "0000")

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            chain_from_bits("AB", "0")

    def test_unknown_boundary(self):
        with pytest.raises(ValueError):
            chain_from_bits("AB", "0000", boundary="twisted")

    def test_oversized_chain_rejected_before_allocation(self):
        with pytest.raises(ValueError, match="outside"):
            chain_from_bits("AB", "0" * 30)

    def test_non_bitstring_rejected(self):
        for bits in ("", "0102", "01 0"):
            with pytest.raises(ValueError):
                chain_from_bits("AB", bits)


class TestPulses:
    def test_x_pulse_on_species_a(self):
        chain = chain_from_bits("ABC", "000000")
        flipped = apply_pulse(chain, SpeciesPulse("A", PAULI_X))
        amps = flipped.state.amplitudes
        assert abs(amps[int("100100", 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_swap_pulse_on_symmetric_state(self):
        chain = chain_from_bits("AB", "0000")
        swapped = apply_pulse(chain, PairPulse("A", "B", SWAP_MATRIX))
        np.testing.assert_allclose(
            swapped.state.amplitudes, chain.state.amplitudes, atol=1e-12
        )

    def test_cz_pair_pulse_matches_dense_oracle(self):
        chain = chain_from_bits("ABC", "000000")
        plus = apply_pulse(chain, SpeciesPulse("A", HADAMARD))
        plus = apply_pulse(plus, SpeciesPulse("B", HADAMARD))
        plus = apply_pulse(plus, SpeciesPulse("C", HADAMARD))
        pulsed = apply_pulse(plus, PairPulse("A", "B", CZ_MATRIX))
        expected = dense_pairwise(plus, adjacent_pairs(plus, "A", "B"), CZ_MATRIX)
        np.testing.assert_allclose(pulsed.state.amplitudes, expected, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pair_pulse_matches_dense_oracle_in_qubit_order(self, data):
        chain = random_periodic_chain(data.draw)
        first = data.draw(st.sampled_from(chain.pattern))
        second = data.draw(st.sampled_from([s for s in chain.pattern if s != first]))
        matrix = random_unitary(data.draw(st.integers(0, 2**32 - 1)))
        pulsed = apply_pulse(chain, PairPulse(first, second, matrix))
        # the wrap pair (length - 1, 0) is among the pairs when it matches
        expected = dense_pairwise(chain, adjacent_pairs(chain, first, second), matrix)
        assert np.max(np.abs(pulsed.state.amplitudes - expected)) <= 1e-12

    def test_identity_pulse_is_identity(self):
        rng = np.random.default_rng(71)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(3, raw / np.linalg.norm(raw))
        chain = CellChain("ABC", state)
        same = apply_pulse(chain, SpeciesPulse("B", np.eye(2, dtype=complex)))
        np.testing.assert_allclose(
            same.state.amplitudes, chain.state.amplitudes, atol=1e-12
        )

    def test_unknown_species_rejected(self):
        chain = chain_from_bits("AB", "0000")
        with pytest.raises(ValueError):
            apply_pulse(chain, SpeciesPulse("C", PAULI_X))

    def test_pair_pulse_requires_distinct_species(self):
        with pytest.raises(ValueError):
            PairPulse("A", "A", SWAP_MATRIX)

    @pytest.mark.parametrize("species", ["AB", "", "ABC"])
    @pytest.mark.parametrize("build", [
        lambda s: SpeciesPulse(s, PAULI_X),
        lambda s: PairPulse(s, "C", CZ_MATRIX),
        lambda s: PairPulse("C", s, CZ_MATRIX),
    ], ids=["species", "pair-first", "pair-second"])
    def test_species_must_be_one_letter(self, build, species):
        # a substring of the alphabet is not a species: "AB" would address
        # no cell and leave the chain silently unchanged
        with pytest.raises(ValueError, match="unknown species"):
            build(species)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            SpeciesPulse("A", np.ones((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            PairPulse("A", "B", np.ones((4, 4), dtype=complex))
        with pytest.raises(ValueError):
            PairPulse("A", "B", PAULI_X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_species_pulse_rejected(self, bad):
        with pytest.raises(ValueError):
            SpeciesPulse("A", [[bad, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_pulse_rejected(self, bad):
        with pytest.raises(ValueError):
            PairPulse("A", "B", np.diag([bad, 1, 1, 1]))

    def test_adjacent_pairs_open_vs_periodic(self):
        open_chain = chain_from_bits("ABC", "000000")
        assert adjacent_pairs(open_chain, "A", "B") == ((0, 1), (3, 4))
        assert adjacent_pairs(open_chain, "C", "A") == ((2, 3),)
        ring = chain_from_bits("ABC", "000000", boundary="periodic")
        assert adjacent_pairs(ring, "C", "A") == ((2, 3), (5, 0))


class TestBulkMeasure:
    def test_weight_of_basis_state(self):
        chain = chain_from_bits("ABC", "110000")
        result = bulk_measure(chain, "B", seed=4)
        assert result.weight == 1
        np.testing.assert_allclose(
            result.chain.state.amplitudes, chain.state.amplitudes, atol=1e-12
        )

    def test_zero_chain_measures_zero(self):
        chain = chain_from_bits("ABC", "000000")
        for seed in range(5):
            assert bulk_measure(chain, "A", seed=seed).weight == 0

    def test_single_cell_superposition_splits_evenly(self):
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = 1 / np.sqrt(2)
        amps[0b10] = 1 / np.sqrt(2)
        chain = CellChain("AB", PureState(2, amps))
        seen = {bulk_measure(chain, "A", seed=s).weight for s in range(40)}
        assert seen == {0, 1}
        result = bulk_measure(chain, "A", seed=0)
        post = result.chain.state.amplitudes
        basis = np.zeros(4, dtype=complex)
        basis[result.weight << 1] = 1.0
        np.testing.assert_allclose(np.abs(post), np.abs(basis), atol=1e-12)

    def test_weight_probabilities_normalize(self):
        rng = np.random.default_rng(72)
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        chain = CellChain("ABC", PureState(6, raw / np.linalg.norm(raw)))
        from qpc.global_control import _weight_probabilities

        weights, probs = _weight_probabilities(chain, "B")
        assert abs(probs.sum() - 1.0) < 1e-10
        # against the weight of every basis index, binned over the full vector
        idx = np.arange(64)
        full = sum((idx >> (5 - c)) & 1 for c in chain.cells_of("B"))
        expected = np.bincount(full, weights=np.abs(chain.state.amplitudes) ** 2)
        np.testing.assert_allclose(probs, expected, atol=1e-14)
        assert weights.tolist() == [0, 1, 1, 2]

    def test_seed_determinism(self):
        rng = np.random.default_rng(73)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        chain = CellChain("AB", PureState(4, raw / np.linalg.norm(raw)))
        a = bulk_measure(chain, "A", seed=11)
        b = bulk_measure(chain, "A", seed=11)
        assert a.weight == b.weight
        np.testing.assert_allclose(
            a.chain.state.amplitudes, b.chain.state.amplitudes, atol=0
        )


class TestCooling:
    def test_cool_all_ones(self):
        chain = chain_from_bits("ABC", "111111")
        cooled = cool_species(chain, "A")
        amps = cooled.state.amplitudes
        assert abs(amps[int("011011", 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_cool_then_measure_zero(self):
        rng = np.random.default_rng(74)
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        chain = CellChain("ABC", PureState(6, raw / np.linalg.norm(raw)))
        cooled = cool_species(chain, "C", seed=2)
        assert bulk_measure(cooled, "C", seed=9).weight == 0

    def test_cooling_is_idempotent(self):
        rng = np.random.default_rng(75)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        chain = CellChain("AB", PureState(4, raw / np.linalg.norm(raw)))
        once = cool_species(chain, "A", seed=3)
        twice = cool_species(once, "A", seed=8)
        np.testing.assert_allclose(
            np.abs(twice.state.amplitudes), np.abs(once.state.amplitudes), atol=1e-12
        )


class TestTranslation:
    def test_translate_moves_cells(self):
        chain = chain_from_bits("ABC", "100000", boundary="periodic")
        moved = translate(chain, 3)
        assert abs(moved.state.amplitudes[int("000100", 2)]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_translation_covariance_of_pulses(self):
        rng = np.random.default_rng(76)
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        chain = CellChain("ABC", PureState(6, raw / np.linalg.norm(raw)), "periodic")
        pulse = PairPulse("A", "B", CZ_MATRIX)
        direct = apply_pulse(chain, pulse)
        conjugated = translate(apply_pulse(translate(chain, 3), pulse), -3)
        np.testing.assert_allclose(
            conjugated.state.amplitudes, direct.state.amplitudes, atol=1e-10
        )

    @settings(max_examples=100, deadline=None)
    @given(case=covariance_cases())
    def test_pulses_commute_with_translation(self, case):
        chain, pulse, offset = case
        shifted_first = apply_pulse(translate(chain, offset), pulse)
        pulsed_first = translate(apply_pulse(chain, pulse), offset)
        assert np.max(
            np.abs(shifted_first.state.amplitudes - pulsed_first.state.amplitudes)
        ) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_translation_of_definite_and_active_cells(self, data):
        # an H on one species activates it and leaves the others definite;
        # the dense chain of the same state has every cell active
        pattern = data.draw(st.sampled_from(["AB", "ABC"]))
        period = len(pattern)
        length = period * data.draw(st.integers(2, 12 // period))
        bits = "".join(data.draw(st.sampled_from("01")) for _ in range(length))
        species = data.draw(st.sampled_from(pattern))
        chain = run_script(chain_from_bits(pattern, bits, "periodic"), f"PULSE {species} H")[0]
        offset = period * data.draw(st.integers(-(length // period), length // period))
        dense = translate(CellChain(pattern, chain.state, "periodic"), offset)
        assert np.array_equal(translate(chain, offset).state.amplitudes, dense.state.amplitudes)

    def test_open_chain_rejects_translation(self):
        chain = chain_from_bits("ABC", "000000")
        with pytest.raises(ValueError):
            translate(chain, 3)

    def test_offset_must_respect_period(self):
        chain = chain_from_bits("ABC", "000000", boundary="periodic")
        with pytest.raises(ValueError):
            translate(chain, 1)

    @pytest.mark.parametrize("offset", [2.0, 3.0, False, True])
    def test_offset_must_be_an_integer(self, offset):
        chain = chain_from_bits("AB", "1000", boundary="periodic")
        with pytest.raises(ValueError, match="offset must be an integer"):
            translate(chain, offset)
        moved = translate(chain, np.int64(2))
        assert abs(moved.state.amplitudes[int("0010", 2)]) == 1.0


class TestTransport:
    def test_payload_moves_one_period_per_round(self):
        chain = chain_from_bits("ABC", "000000")
        payload = np.array([0.6, 0.8j])
        moved = transport_demo(chain, payload, 1)
        expected = np.zeros(64, dtype=complex)
        expected[0] = 0.6
        expected[int("000100", 2)] = 0.8j
        fidelity = abs(np.vdot(expected, moved.state.amplitudes))
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_zero_rounds_loads_in_place(self):
        chain = chain_from_bits("ABC", "000000")
        payload = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
        loaded = transport_demo(chain, payload, 0)
        expected = np.zeros(64, dtype=complex)
        expected[0] = payload[0]
        expected[int("100000", 2)] = payload[1]
        np.testing.assert_allclose(loaded.state.amplitudes, expected, atol=1e-12)

    def test_open_boundary_guard(self):
        chain = chain_from_bits("ABC", "000000")
        with pytest.raises(ValueError):
            transport_demo(chain, np.array([1.0, 0.0]), 2)

    def test_periodic_chain_wraps_to_origin(self):
        chain = chain_from_bits("ABC", "000000", boundary="periodic")
        payload = np.array([0.0, 1.0])
        moved = transport_demo(chain, payload, 2)
        assert abs(moved.state.amplitudes[int("100000", 2)]) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_random_payload_bloch_preserved(self):
        rng = np.random.default_rng(77)
        chain = chain_from_bits("ABC", "000000000")
        for _ in range(10):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            payload = raw / np.linalg.norm(raw)
            moved = transport_demo(chain, payload, 2)
            expected = np.zeros(512, dtype=complex)
            expected[0] = payload[0]
            expected[1 << (8 - 6)] = payload[1]
            fidelity = abs(np.vdot(expected, moved.state.amplitudes))
            assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_uncooled_chain_rejected(self):
        chain = chain_from_bits("ABC", "010000")
        with pytest.raises(ValueError):
            transport_demo(chain, np.array([1.0, 0.0]), 1)

    @pytest.mark.parametrize("pattern, length, rounds", [("ABC", 5, 2), ("ABC", 7, 3), ("AB", 3, 1)])
    def test_periodic_chain_needs_whole_periods(self, pattern, length, rounds):
        # the wrap-around pair of such a ring breaks the species cycle: SWAP
        # pulses leave the payload off cell period*rounds (mod length)
        chain = chain_from_bits(pattern, "0" * length, boundary="periodic")
        with pytest.raises(ValueError, match="is not a multiple of the period"):
            transport_demo(chain, np.array([0.0, 1.0]), rounds)

    @pytest.mark.parametrize(
        "payload, rounds, message",
        [
            ([0.6, 0.8], True, "rounds must be an integer"),
            ([0.6, 0.8], 1.5, "rounds must be an integer"),
            ([0.6, 0.8], 1.0, "rounds must be an integer"),
            ([np.nan, 0.0], 1, "payload norm"),
            ([1.0, np.nan], 1, "payload norm"),
            ([0.6, 0.6], 1, "payload norm"),
        ],
    )
    def test_bad_inputs_rejected(self, payload, rounds, message):
        chain = chain_from_bits("ABC", "000000")
        with pytest.raises(ValueError, match=message):
            transport_demo(chain, np.array(payload), rounds)

    @settings(max_examples=150, deadline=None)
    @given(case=transport_cases())
    def test_matches_fold_of_swap_pulses(self, case):
        pattern, boundary, length, rounds, payload = case
        loaded = np.zeros(1 << length, dtype=complex)
        loaded[0], loaded[1 << (length - 1)] = payload
        expected = CellChain(pattern, PureState(length, loaded), boundary)
        period = len(pattern)
        for j in list(range(period)) * rounds:
            pulse = PairPulse(pattern[j], pattern[(j + 1) % period], SWAP_MATRIX)
            expected = apply_pulse(expected, pulse)
        chain = chain_from_bits(pattern, "0" * length, boundary)
        kernel = mock.patch.object(
            global_control, "_apply_in_place", side_effect=AssertionError("kernel pass")
        )
        with kernel:
            moved = transport_demo(chain, payload, rounds)
        assert np.array_equal(moved.state.amplitudes, expected.state.amplitudes)


class TestPeakMemory:
    """A pulse, a species cooling, a transport run and a bulk measurement
    on a chain with every cell active each work on one private buffer,
    handed to the new chain's frame without a copy, so at most two state
    vectors are alive: the buffer beside up to one vector of saved parts
    and copies (moves and scales), the probabilities (bulk measurement) or
    the kept half (cooling); a dense pulse adds one 256 KiB block.
    The slack covers numpy's iteration buffers on strided parts (up to
    256 KiB whatever the length) and stays below the quarter vector one
    more saved part would add."""

    LENGTH = 18

    @pytest.fixture(scope="class")
    def chains(self):
        rng = np.random.default_rng(78)
        size = 1 << self.LENGTH
        raw = rng.normal(size=size) + 1j * rng.normal(size=size)
        state = PureState(self.LENGTH, raw / np.linalg.norm(raw))
        return (
            CellChain("ABC", state, "periodic"),
            chain_from_bits("ABC", "0" * self.LENGTH, "periodic"),
        )

    OPERATIONS = {
        "X pulse": lambda ch, zero: apply_pulse(ch, SpeciesPulse("A", PAULI_X)),
        "H pulse": lambda ch, zero: apply_pulse(ch, SpeciesPulse("B", HADAMARD)),
        "4x4 pair pulse": lambda ch, zero: apply_pulse(
            ch, PairPulse("C", "A", random_unitary(79))
        ),
        "cooling": lambda ch, zero: cool_species(ch, "B", seed=3),
        "transport": lambda ch, zero: transport_demo(zero, np.array([0.6, 0.8j]), 5),
        "bulk measure": lambda ch, zero: bulk_measure(ch, "B", seed=3),
    }

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_peak_is_two_state_vectors(self, chains, name):
        operation = self.OPERATIONS[name]
        operation(*chains)
        tracemalloc.start()
        try:
            operation(*chains)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (1 << self.LENGTH) * 16 + (1 << 19)

    # each builds its result in one new buffer and checks its norm there
    ONE_VECTOR_OPERATIONS = {
        "chain_from_bits": lambda ch, zero: chain_from_bits("ABC", "0" * zero.length, "periodic"),
        "translate": lambda ch, zero: translate(ch, 3),
        "transport": lambda ch, zero: transport_demo(zero, np.array([0.6, 0.8j]), 5),
    }

    @pytest.mark.parametrize("name", sorted(ONE_VECTOR_OPERATIONS))
    def test_peak_is_one_state_vector(self, chains, name):
        operation = self.ONE_VECTOR_OPERATIONS[name]
        operation(*chains)
        tracemalloc.start()
        try:
            operation(*chains)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1 << self.LENGTH) * 16 + (1 << 19)

    def test_x_pulse_peak_is_one_and_a_half_state_vectors(self, chains):
        # X saves one half and writes the other half from it in place
        # (a ufunc with ``out=``, which needs no copy of its source)
        operation = self.OPERATIONS["X pulse"]
        operation(*chains)
        tracemalloc.start()
        try:
            operation(*chains)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (1 << self.LENGTH) * 16 + (1 << 19)


class TestScripts:
    def test_script_round_trip(self):
        chain = chain_from_bits("ABC", "000000")
        text = "# excite then move\nPULSE A X\nPAIR A B SWAP\nMEASURE B\n"
        final, events = run_script(chain, text, seed=5)
        kinds = [event["op"] for event in events]
        assert kinds == ["pulse", "pair", "measure"]
        assert events[2]["weight"] == 2
        amps = final.state.amplitudes
        assert abs(amps[int("010010", 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_script_rotation_gate(self):
        chain = chain_from_bits("AB", "0000")
        final, events = run_script(chain, "PULSE A R 0 32 0 8", seed=0)
        assert events[0]["gate"] == "R 0 32 0 8"
        probs = np.abs(final.state.amplitudes) ** 2
        assert probs[int("0000", 2)] == pytest.approx(0.25, abs=1e-12)
        assert probs[int("1010", 2)] == pytest.approx(0.25, abs=1e-12)

    def test_script_cool(self):
        chain = chain_from_bits("AB", "1111")
        final, events = run_script(chain, "COOL B", seed=1)
        assert events[0] == {"op": "cool", "species": "B"}
        amps = final.state.amplitudes
        assert abs(amps[int("1010", 2)]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "gate",
        ["R +1 0 0 3", "R 1_0 0 0 8", "R 1 0 0 \uff13", "R \u0661 0 0 3", "R -1 0 0 3"],
    )
    def test_script_rotation_fields_are_ascii_decimal_integers(self, gate):
        chain = chain_from_bits("AB", "0000")
        with pytest.raises(ParseError) as info:
            run_script(chain, "PULSE A X\nPULSE B " + gate)
        assert info.value.line_no == 2

    def test_script_errors_carry_line_numbers(self):
        chain = chain_from_bits("AB", "0000")
        with pytest.raises(ParseError) as info:
            run_script(chain, "PULSE A X\nWOBBLE B")
        assert info.value.line_no == 2

    @pytest.mark.parametrize("case", sorted(SCRIPT_TABLE))
    def test_script_outputs_match_fixed_table(self, case):
        name, seed = case
        weights, nonzero = SCRIPT_TABLE[case]
        final, events = run_script(parity_ring(), PARITY_SCRIPTS[name], seed=seed)
        assert [e["weight"] for e in events if e["op"] == "measure"] == weights
        expected = np.zeros(16, dtype=complex)
        expected[list(nonzero)] = list(nonzero.values())
        # X, Y, Z, SWAP and CZ only move, negate or rotate by i exactly;
        # H and R products round differently from a tensordot
        atol = 0.0 if name == "exact" else 1e-15
        assert np.max(np.abs(final.state.amplitudes - expected)) <= atol

    @pytest.mark.parametrize("text, pattern, line_no", MALFORMED_SCRIPTS)
    def test_nothing_runs_before_a_parse_error(self, text, pattern, line_no):
        calls = []

        def recorded(name):
            original = getattr(global_control, name)

            def record(*args):
                calls.append(name)
                return original(*args)
            return mock.patch.object(global_control, name, record)

        chain = chain_from_bits(pattern, "0" * 6)
        with recorded("apply_pulse"), recorded("_bulk_measure_rng"), recorded("_cool_species_rng"):
            with pytest.raises(ParseError) as info:
                run_script(chain, text)
        assert info.value.line_no == line_no
        assert calls == []

    @pytest.mark.parametrize("text", ["PULSE AB X", "MEASURE BC", "COOL ABC", "PAIR AB C CZ"])
    def test_species_are_single_letters(self, text):
        with pytest.raises(ParseError, match="not in pattern"):
            run_script(chain_from_bits("ABC", "000000"), text)

    @settings(max_examples=120, deadline=None)
    @given(case=script_cases())
    def test_matches_per_line_fold(self, case):
        chain, seed, instructions = case
        text = "".join(line for _, _, line in instructions)
        final, events = run_script(chain, text, seed=seed)
        expected, expected_events = fold_script(chain, seed, instructions)
        assert events == expected_events
        assert np.array_equal(final.state.amplitudes, expected.state.amplitudes)

    def test_script_determinism(self):
        chain = chain_from_bits("ABC", "000000")
        text = "PULSE A H\nMEASURE A\nPULSE B H\nMEASURE B\n"
        first = run_script(chain, text, seed=12)
        second = run_script(chain, text, seed=12)
        assert [e for e in first[1]] == [e for e in second[1]]
        np.testing.assert_allclose(
            first[0].state.amplitudes, second[0].state.amplitudes, atol=0
        )


class TestDenseOracle:
    """Scripts on frames against ``gc_dense``, the whole-vector engine."""

    @settings(max_examples=250, deadline=None)
    @given(case=oracle_cases())
    def test_matches_dense_reference(self, case):
        chain, seed, text = case
        final, events = run_script(chain, text, seed=seed)
        expected, expected_events = gc_dense.run_script(chain, text, seed=seed)
        assert events == expected_events
        assert np.max(np.abs(final.state.amplitudes - expected.amplitudes)) <= 1e-12

    def test_weight_probabilities_match_dense_reference(self):
        # a chain with definite and active cells of the measured species
        chain = run_script(chain_from_bits("ABC", "110100101"), "PULSE A H\nPULSE B R 1 2 3 4\n")[0]
        for species in "ABC":
            cells = chain.cells_of(species)
            _, expected = gc_dense.weight_probabilities(chain.state, cells)
            _, probs = global_control._weight_probabilities(chain, species)
            assert len(probs) == len(cells) + 1
            assert np.max(np.abs(probs - expected)) <= 1e-15


class TestCountedWork:
    def test_gc02_keeps_at_most_six_cells_active(self):
        # only the six C cells leave a basis state: X and Z keep a cell in
        # one, and CZ with a definite A cell is a 2x2 on its C neighbour
        chain = chain_from_bits("ABC", GC02_BITS)
        lines = GC02_SCRIPT.splitlines(keepends=True)
        active = [
            len(run_script(chain, "".join(lines[:i]), seed=GC02_SEED)[0]._frame.active)
            for i in range(1, len(lines) + 1)
        ]
        assert max(active) <= 6
        assert active[4] == 6  # after the first R pulse on C

    def test_basis_chain_allocates_no_state_vector(self):
        chain_from_bits("ABC", "0" * 18)
        tracemalloc.start()
        try:
            chain_from_bits("ABC", "0" * 18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
