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
from qpc.statevec import apply_gate, state_distribution
from conftest import random_program

BELL_TYPE = "R 0 0 32 0 8\nR 1 0 32 0 8\nCZ 0 1"


@st.composite
def fusion_cases(draw):
    """(program, s_in) whose gate order exercises every pending-matrix case.

    Segments are runs of Z-only rotations on one wire, same-wire rotations
    of mixed kinds, identity rotations (k = (0, 0, 0)) and CZs, so
    rotations on a wire sit on both sides of the CZs that touch it.  The
    input may be wider than the program.
    """
    wires = draw(st.integers(1, 4))
    wire = st.integers(0, wires - 1)
    m = draw(st.integers(1, 5))
    numerator = st.integers(0, (1 << m) - 1)
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["z-run", "mixed-run", "identity", "cz"]))
        if kind == "cz" and wires > 1:
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
        # two vectors: the buffer beside its half-size temporaries, then
        # beside the final PureState copy.  The slack covers numpy's
        # iteration buffers on strided halves (up to 256 KiB whatever n is)
        # and stays below the half vector one more temporary would add.
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

    def test_identity_point_mass(self):
        dist = exact_distribution(parse_program("R 0 0 0 0 1"), "0", ReadoutSpec((0,)))
        assert dist["0"] == pytest.approx(1.0, abs=0)

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
