"""Tests for the measurement-pattern compiler and branch simulator."""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpc import (
    BranchLimitError,
    CZGate,
    MeasurementPattern,
    MeasureStep,
    ReadoutSpec,
    branch_determinism_check,
    compile_to_pattern,
    exact_distribution,
    parse_program,
    pattern_from_json,
    pattern_to_json,
    Program,
    simulate_pattern,
    total_variation_distance,
)
from qpc.oneway import _flow_certificate, zxz_euler
from qpc.program_ir import RotationGate
from conftest import random_program

BELL_TYPE = "R 0 0 32 0 8\nR 1 0 32 0 8\nCZ 0 1"


def rz(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def rx(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def naive_pattern_distribution(pattern, s_in, readout):
    """Dense reference simulation: every branch, no pruning, no merging.

    Prepares inputs from ``s_in`` and every other vertex in |+>, entangles
    along the edges, then walks all 2^k forced outcome assignments applying
    the adapted projector at each step, byproduct corrections on outputs,
    and accumulates the weighted readout distribution.
    """
    order = sorted(pattern.vertices)
    axis_of = {v: i for i, v in enumerate(order)}
    n = len(order)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    vec = np.ones((1,), dtype=complex)
    input_bits = {v: int(s_in[i]) for i, v in enumerate(pattern.inputs)}
    for v in order:
        if v in input_bits:
            local = np.zeros(2, dtype=complex)
            local[input_bits[v]] = 1.0
        else:
            local = plus
        vec = np.kron(vec, local)
    vec = vec.reshape((2,) * n)
    for u, w in sorted(pattern.edges):
        idx = [slice(None)] * n
        idx[axis_of[u]] = 1
        idx[axis_of[w]] = 1
        vec[tuple(idx)] *= -1.0

    k = len(pattern.steps)
    m = len(readout.qubits)
    total = np.zeros(2 ** m)
    for assignment in itertools.product((0, 1), repeat=k):
        work = vec
        live = list(order)
        record = {}
        for step, outcome in zip(pattern.steps, assignment):
            s_bit = sum(record[d] for d in step.s_domain) % 2
            t_bit = sum(record[d] for d in step.t_domain) % 2
            angle = ((-1.0) ** s_bit) * step.angle + np.pi * t_bit
            axis = live.index(step.vertex)
            v0 = np.take(work, 0, axis=axis)
            v1 = np.take(work, 1, axis=axis)
            sign = 1.0 if outcome == 0 else -1.0
            work = (v0 + sign * np.exp(-1j * angle) * v1) / np.sqrt(2.0)
            live.remove(step.vertex)
            record[step.vertex] = outcome
        prob = float(np.sum(np.abs(work) ** 2))
        if prob < 1e-14:
            continue
        work = work / np.sqrt(prob)
        for j, out_vertex in enumerate(pattern.outputs):
            axis = live.index(out_vertex)
            if sum(record[d] for d in pattern.x_corrections[j]) % 2:
                work = np.flip(work, axis=axis)
            if sum(record[d] for d in pattern.z_corrections[j]) % 2:
                idx = [slice(None)] * work.ndim
                idx[axis] = 1
                work[tuple(idx)] *= -1.0
        probs = np.abs(work) ** 2
        keep = tuple(live.index(pattern.outputs[q]) for q in readout.qubits)
        summed = np.sum(probs, axis=tuple(i for i in range(work.ndim) if i not in keep))
        summed = np.transpose(summed, tuple(np.argsort(np.argsort(keep))))
        total += prob * summed.reshape(-1)
    entries = {format(i, f"0{m}b"): float(p) for i, p in enumerate(total)}
    from qpc import Distribution

    return Distribution(entries)


def strip_dependencies(pattern):
    """The pattern with every dependency domain and correction set emptied."""
    return dataclasses.replace(
        pattern,
        steps=tuple(
            MeasureStep(step.vertex, step.angle, frozenset(), frozenset())
            for step in pattern.steps
        ),
        x_corrections=(frozenset(),) * pattern.wires,
        z_corrections=(frozenset(),) * pattern.wires,
    )


def single_domain_mutants(pattern):
    """Valid patterns that differ from ``pattern`` by one vertex in one
    s/t domain or correction set."""
    steps = pattern.steps
    measured = [step.vertex for step in steps]
    for i, step in enumerate(steps):
        for v in measured[:i]:
            for name in ("s_domain", "t_domain"):
                changed = dataclasses.replace(step, **{name: getattr(step, name) ^ {v}})
                yield dataclasses.replace(
                    pattern, steps=steps[:i] + (changed,) + steps[i + 1:]
                )
    for j in range(pattern.wires):
        for v in measured:
            for name in ("x_corrections", "z_corrections"):
                sets = list(getattr(pattern, name))
                sets[j] = sets[j] ^ {v}
                yield dataclasses.replace(pattern, **{name: tuple(sets)})


@st.composite
def small_programs(draw):
    """Programs on 1-4 wires with at most 3 rotations (12 measurements)."""
    wires = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, 4))
        k = draw(st.tuples(*[st.integers(0, 2 ** m - 1)] * 3))
        gates.append(RotationGate(draw(st.integers(0, wires - 1)), k, m))
    for _ in range(draw(st.integers(0, 4)) if wires > 1 else 0):
        a, b = draw(st.lists(st.integers(0, wires - 1), min_size=2, max_size=2, unique=True))
        gates.insert(draw(st.integers(0, len(gates))), CZGate(a, b))
    assume(gates)
    return Program(tuple(gates))


class TestEulerDecomposition:
    def test_reconstructs_random_unitaries(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(raw)
            alpha, beta, gamma = zxz_euler(u)
            rebuilt = rz(gamma) @ rx(beta) @ rz(alpha)
            phase = np.vdot(rebuilt.reshape(-1), u.reshape(-1))
            phase /= abs(phase)
            np.testing.assert_allclose(u, phase * rebuilt, atol=1e-10)

    def test_diagonal_case(self):
        u = np.diag([np.exp(-0.3j), np.exp(0.3j)])
        alpha, beta, gamma = zxz_euler(u)
        assert beta == pytest.approx(0.0, abs=1e-12)
        rebuilt = rz(gamma) @ rx(beta) @ rz(alpha)
        phase = rebuilt[0, 0] / u[0, 0]
        np.testing.assert_allclose(u * phase, rebuilt, atol=1e-12)

    def test_antidiagonal_case(self):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        alpha, beta, gamma = zxz_euler(u)
        assert beta == pytest.approx(np.pi, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            zxz_euler(np.ones((2, 2)))
        with pytest.raises(ValueError):
            zxz_euler(np.eye(3))

    def test_rotation_gates_round_trip(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            k = tuple(int(v) for v in rng.integers(0, 2 ** m, size=3))
            u = RotationGate(0, k, m).matrix()
            alpha, beta, gamma = zxz_euler(u)
            rebuilt = rz(gamma) @ rx(beta) @ rz(alpha)
            phase = np.vdot(rebuilt.reshape(-1), u.reshape(-1))
            phase /= abs(phase)
            np.testing.assert_allclose(u, phase * rebuilt, atol=1e-10)


class TestCompile:
    def test_cz_only_pattern(self):
        pattern = compile_to_pattern(parse_program("CZ 0 1"))
        assert pattern.wires == 2
        assert len(pattern.steps) == 0
        assert pattern.edges == frozenset({(0, 1)})
        assert pattern.inputs == (0, 1)
        assert pattern.outputs == (0, 1)

    def test_identity_rotation_chain(self):
        pattern = compile_to_pattern(parse_program("R 0 0 0 0 1"))
        assert len(pattern.vertices) == 5
        assert len(pattern.steps) == 4
        assert all(step.angle == 0.0 for step in pattern.steps)
        assert pattern.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
        assert pattern.outputs == (4,)

    def test_measured_count_scales_with_rotations(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            program = random_program(rng, 3, int(rng.integers(1, 10)))
            rotations = sum(
                1 for g in program.gates if isinstance(g, RotationGate)
            )
            pattern = compile_to_pattern(program)
            assert len(pattern.steps) == 4 * rotations
            assert len(pattern.vertices) == pattern.wires + 4 * rotations

    def test_adjacent_cz_pairs_cancel(self):
        pattern = compile_to_pattern(parse_program("CZ 0 1\nCZ 0 1"))
        assert pattern.edges == frozenset()

    def test_dependencies_reference_earlier_steps_only(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            program = random_program(rng, 3, 8)
            pattern = compile_to_pattern(program)
            seen = set()
            for step in pattern.steps:
                assert step.s_domain <= seen
                assert step.t_domain <= seen
                seen.add(step.vertex)


class TestPatternValidation:
    def test_dependency_on_later_vertex_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPattern(
                vertices=frozenset({0, 1, 2}),
                edges=frozenset({(0, 1), (1, 2)}),
                inputs=(0,),
                outputs=(2,),
                steps=(
                    MeasureStep(0, 0.0, frozenset({1}), frozenset()),
                    MeasureStep(1, 0.0, frozenset(), frozenset()),
                ),
                x_corrections=(frozenset(),),
                z_corrections=(frozenset(),),
            )

    def test_self_loop_edge_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPattern(
                vertices=frozenset({0}),
                edges=frozenset({(0, 0)}),
                inputs=(0,),
                outputs=(0,),
                steps=(),
                x_corrections=(frozenset(),),
                z_corrections=(frozenset(),),
            )

    def test_unmeasured_non_output_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPattern(
                vertices=frozenset({0, 1}),
                edges=frozenset({(0, 1)}),
                inputs=(0,),
                outputs=(1,),
                steps=(),
                x_corrections=(frozenset(),),
                z_corrections=(frozenset(),),
            )


class TestSimulation:
    def test_bell_type_uniform(self):
        program = parse_program(BELL_TYPE)
        pattern = compile_to_pattern(program)
        dist = simulate_pattern(pattern, "00")
        exact = exact_distribution(program, "00", ReadoutSpec((0, 1)))
        assert total_variation_distance(dist, exact) < 1e-10

    def test_identity_wire_passes_input_through(self):
        pattern = compile_to_pattern(parse_program("R 0 0 0 0 1"))
        dist = simulate_pattern(pattern, "1")
        assert dist["1"] == pytest.approx(1.0, abs=1e-10)

    def test_matches_exact_distribution_on_random_programs(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            program = random_program(rng, n, int(rng.integers(1, 7)))
            width = program.width
            s_in = "".join(rng.choice(["0", "1"], size=width))
            pattern = compile_to_pattern(program)
            readout = ReadoutSpec(tuple(range(width)))
            mbqc = simulate_pattern(pattern, s_in, readout)
            exact = exact_distribution(program, s_in, readout)
            assert total_variation_distance(mbqc, exact) < 1e-9

    def test_matches_naive_dense_reference(self):
        """Every policy of the batch engine against the dense reference,
        on compiled patterns and on non-deterministic stripped copies."""
        rng = np.random.default_rng(56)
        cases = [
            ("R 0 3 5 7 4", None),
            ("R 0 1 2 3 3\nR 0 3 0 1 2", None),
            ("R 0 5 1 2 3\nCZ 0 1\nR 1 2 2 2 2", None),
            ("R 0 1 2 3 3\nCZ 0 1\nR 1 3 1 0 2\nCZ 1 2", (2, 0)),
            ("CZ 0 1\nR 1 5 3 1 3\nCZ 1 2\nR 0 2 0 1 2", (1,)),
            ("R 0 0 0 0 1\nCZ 0 1\nCZ 1 2\nR 2 1 1 0 1", (2, 1, 0)),
        ]
        for seed, (text, qubits) in enumerate(cases):
            program = parse_program(text)
            width = program.width
            s_in = "".join(rng.choice(["0", "1"], size=width))
            pattern = compile_to_pattern(program)
            readout = ReadoutSpec(tuple(range(width)) if qubits is None else qubits)
            slow = naive_pattern_distribution(pattern, s_in, readout)
            for policy in ("enumerate-all", "seeded-random"):
                fast = simulate_pattern(pattern, s_in, readout, policy=policy, seed=seed)
                assert total_variation_distance(fast, slow) < 1e-10
            stripped = strip_dependencies(pattern)
            fast = simulate_pattern(stripped, s_in, readout)
            slow = naive_pattern_distribution(stripped, s_in, readout)
            assert total_variation_distance(fast, slow) < 1e-10

    def test_unfused_steps_match_naive_dense_reference(self):
        """Steps without a fresh neighbour take the general projection path.
        Vertex 4 is isolated at angle 0 (its outcome 1 has probability 0);
        vertex 5 is isolated at pi/2, so both outcomes leave equal states
        and only its record bit, read two steps later, tells them apart;
        vertex 1 is measured after all its neighbours are active."""
        pattern = MeasurementPattern(
            vertices=frozenset(range(6)),
            edges=frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}),
            inputs=(0,),
            outputs=(3,),
            steps=(
                MeasureStep(4, 0.0),
                MeasureStep(5, np.pi / 2),
                MeasureStep(0, 0.3),
                MeasureStep(1, 0.7, frozenset({0}), frozenset({4, 5})),
                MeasureStep(2, 1.1, frozenset({1}), frozenset({0})),
            ),
            x_corrections=(frozenset({2}),),
            z_corrections=(frozenset({1}),),
        )
        assert not all(pattern._plan.fused)
        for s_in in ("0", "1"):
            fast = simulate_pattern(pattern, s_in)
            slow = naive_pattern_distribution(pattern, s_in, ReadoutSpec((0,)))
            assert total_variation_distance(fast, slow) < 1e-10

    def test_subset_readout(self):
        program = parse_program(BELL_TYPE)
        pattern = compile_to_pattern(program)
        dist = simulate_pattern(pattern, "00", ReadoutSpec((1,)))
        assert dist["0"] == pytest.approx(0.5, abs=1e-10)

    def test_seeded_random_agrees_on_deterministic_patterns(self):
        rng = np.random.default_rng(57)
        for seed in range(5):
            program = random_program(rng, 2, 4)
            pattern = compile_to_pattern(program)
            full = simulate_pattern(pattern, "00")
            single = simulate_pattern(pattern, "00", policy="seeded-random", seed=seed)
            assert total_variation_distance(full, single) < 1e-9

    def test_input_length_mismatch(self):
        pattern = compile_to_pattern(parse_program("CZ 0 1"))
        with pytest.raises(ValueError):
            simulate_pattern(pattern, "0")

    def test_unknown_policy(self):
        pattern = compile_to_pattern(parse_program("CZ 0 1"))
        with pytest.raises(ValueError):
            simulate_pattern(pattern, "00", policy="guess")

    def test_branch_limit_guard(self):
        pattern = compile_to_pattern(parse_program("R 0 3 5 7 4"))
        with pytest.raises(BranchLimitError):
            simulate_pattern(pattern, "0", branch_limit=1)

    def test_domain_mutants_match_naive_dense_reference(self):
        """Mutated domains set frame bits that no compiled pattern sets;
        enumeration must still give the exact mixture, for full, subset
        and permuted readouts."""
        cases = [
            ("R 0 3 5 7 4", 1),
            ("R 0 5 1 2 3\nCZ 0 1", 1),
            ("CZ 0 1\nR 1 5 3 1 3\nCZ 1 2", 2),
            ("R 0 1 2 3 3\nCZ 0 1\nR 1 3 1 0 2", 5),
        ]
        for text, stride in cases:
            pattern = compile_to_pattern(parse_program(text))
            width = pattern.wires
            s_in = ("10" * width)[:width]
            readouts = [tuple(range(width)), (width - 1,), tuple(range(width))[::-1]]
            for i, mutant in enumerate(list(single_domain_mutants(pattern))[::stride]):
                readout = ReadoutSpec(readouts[i % 3])
                fast = simulate_pattern(mutant, s_in, readout)
                slow = naive_pattern_distribution(mutant, s_in, readout)
                assert total_variation_distance(fast, slow) < 1e-10

    @pytest.mark.parametrize("wires, limit", [(4, 8192), (5, 32768), (6, 32768)])
    def test_compiled_branch_peak(self, wires, limit):
        """Counted, not timed: each limit is half the peak that merging on
        outcome records reached on the same program (16384 / 65536 / 65536
        rows); frames need 4^wires rows here."""
        program = random_program(np.random.default_rng(0), wires, 40)
        pattern = compile_to_pattern(program)
        s_in = "0" * wires
        readout = ReadoutSpec(tuple(range(wires)))
        dist = simulate_pattern(pattern, s_in, readout, branch_limit=limit)
        exact = exact_distribution(program, s_in, readout)
        assert total_variation_distance(dist, exact) < 1e-12


class TestDeterminism:
    def test_compiled_patterns_are_deterministic(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            program = random_program(rng, 2, 4)
            pattern = compile_to_pattern(program)
            assert branch_determinism_check(pattern, "00")

    def test_deleted_dependency_breaks_determinism(self):
        pattern = compile_to_pattern(parse_program("R 0 3 5 7 4"))
        assert not branch_determinism_check(strip_dependencies(pattern), "0")

    def test_zero_measured_vertices_vacuously_true(self):
        pattern = compile_to_pattern(parse_program("CZ 0 1"))
        assert branch_determinism_check(pattern, "00")

    def test_exhaustive_mode_guard(self):
        program = parse_program("\n".join("R 0 1 1 1 2" for _ in range(3)))
        pattern = compile_to_pattern(program)
        with pytest.raises(BranchLimitError):
            branch_determinism_check(
                pattern, "0", mode="exhaustive", exhaustive_limit=8
            )

    def test_sampled_mode_matches_exhaustive(self):
        program = parse_program("R 0 3 1 2 3\nCZ 0 1")
        pattern = compile_to_pattern(program)
        assert branch_determinism_check(pattern, "00", mode="exhaustive")
        assert branch_determinism_check(pattern, "00", mode="sampled", samples=16)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_mode_rejects_non_positive_samples(self, samples):
        pattern = compile_to_pattern(parse_program("R 0 3 1 2 3"))
        with pytest.raises(ValueError, match=f"samples = {samples} "):
            branch_determinism_check(pattern, "0", mode="sampled", samples=samples)

    @settings(max_examples=40, deadline=None)
    @given(program=small_programs(), data=st.data())
    def test_certificate_holds_and_exhaustive_agrees(self, program, data):
        pattern = pattern_from_json(pattern_to_json(compile_to_pattern(program)))
        s_in = data.draw(st.text("01", min_size=pattern.wires, max_size=pattern.wires))
        assert _flow_certificate(pattern)
        assert branch_determinism_check(pattern, s_in, mode="exhaustive")

    def test_single_domain_mutants_are_not_certified(self):
        pattern = compile_to_pattern(parse_program("R 0 3 5 7 4\nCZ 0 1\nR 1 1 2 3 3"))
        nondeterministic = 0
        mutants = list(single_domain_mutants(pattern))
        for mutant in mutants:
            certified = _flow_certificate(mutant)
            deterministic = branch_determinism_check(mutant, "01", mode="exhaustive")
            assert not (certified and not deterministic)
            assert not certified
            nondeterministic += not deterministic
        assert len(mutants) == 88
        assert nondeterministic >= len(mutants) // 4

    def test_certificate_rejects_broken_flow_conditions(self):
        """Domains induced by an X-domain map that is not a flow: the flow
        target of vertex 0 is an input, or that of vertex 1 is not its
        neighbour.  Both patterns are non-deterministic."""
        fs = frozenset
        onto_input = MeasurementPattern(
            vertices=fs({0, 1}),
            edges=fs({(0, 1)}),
            inputs=(1,),
            outputs=(1,),
            steps=(MeasureStep(0, 0.4),),
            x_corrections=(fs({0}),),
            z_corrections=(fs(),),
        )
        not_adjacent = MeasurementPattern(
            vertices=fs(range(4)),
            edges=fs({(0, 1), (1, 2), (2, 3)}),
            inputs=(0,),
            outputs=(3,),
            steps=(
                MeasureStep(0, 0.4),
                MeasureStep(1, 0.9, fs({0}), fs()),
                MeasureStep(2, 1.7, fs(), fs({0, 1})),
            ),
            x_corrections=(fs({1, 2}),),
            z_corrections=(fs(),),
        )
        for pattern in (onto_input, not_adjacent):
            assert not _flow_certificate(pattern)
            assert not branch_determinism_check(pattern, "0")

    def test_unreachable_branches_are_skipped(self):
        program = parse_program(BELL_TYPE)
        pattern = compile_to_pattern(program)
        idle = max(pattern.vertices) + 1
        padded = dataclasses.replace(
            pattern,
            vertices=pattern.vertices | {idle},
            steps=(MeasureStep(idle, 0.0),) + pattern.steps,
        )
        assert not _flow_certificate(padded)
        assert branch_determinism_check(padded, "01")
        exact = exact_distribution(program, "01", ReadoutSpec((0, 1)))
        assert total_variation_distance(simulate_pattern(padded, "01"), exact) < 1e-10

    def test_certified_path_still_validates_input_and_readout(self):
        pattern = compile_to_pattern(parse_program(BELL_TYPE))
        assert _flow_certificate(pattern)
        for s_in in ("0", "000", "0a"):
            with pytest.raises(ValueError):
                branch_determinism_check(pattern, s_in)
        with pytest.raises(ValueError):
            branch_determinism_check(pattern, "00", ReadoutSpec((2,)))

    def test_auto_mode_does_not_sample_uncertified_patterns(self):
        program = parse_program("\n".join("R 0 1 1 1 2" for _ in range(6)))
        broken = strip_dependencies(compile_to_pattern(program))
        with pytest.raises(BranchLimitError):
            branch_determinism_check(broken, "0")
        assert not branch_determinism_check(broken, "0", mode="sampled")

    def test_wide_pattern_is_certified_fast(self):
        rng = np.random.default_rng(60)
        program = random_program(rng, 8, 120)
        width = program.width
        s_in = "".join(rng.choice(["0", "1"], size=width))
        pattern = compile_to_pattern(program)
        start = time.perf_counter()
        assert branch_determinism_check(pattern, s_in)
        assert time.perf_counter() - start < 1.0
        readout = ReadoutSpec(tuple(range(width)))
        single = simulate_pattern(pattern, s_in, readout, policy="seeded-random", seed=4)
        exact = exact_distribution(program, s_in, readout)
        assert total_variation_distance(single, exact) <= 1e-9


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            program = random_program(rng, 3, 6)
            pattern = compile_to_pattern(program)
            assert pattern_from_json(pattern_to_json(pattern)) == pattern

    def test_json_is_plain_data(self):
        import json

        pattern = compile_to_pattern(parse_program(BELL_TYPE))
        payload = json.loads(pattern_to_json(pattern))
        assert payload["format"] == "oneway-pattern/1"
        assert set(payload) >= {"vertices", "edges", "inputs", "outputs", "steps"}

    def test_bad_format_tag_rejected(self):
        pattern = compile_to_pattern(parse_program("CZ 0 1"))
        text = pattern_to_json(pattern).replace("oneway-pattern/1", "other/9")
        with pytest.raises(ValueError):
            pattern_from_json(text)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["steps"][0].update(vertex=d["steps"][0]["vertex"] + 0.7),
            lambda d: d["vertices"].__setitem__(0, False),
            lambda d: d["steps"][0].update(angle="1.5"),
            lambda d: d["steps"][0].update(angle=True),
            lambda d: d["edges"][0].__setitem__(1, float(d["edges"][0][1])),
            lambda d: d["edges"][0].append(7),
            lambda d: d["inputs"].__setitem__(1, True),
            lambda d: d["outputs"].__setitem__(0, float(d["outputs"][0])),
            lambda d: d["steps"][1]["s"].__setitem__(0, float(d["steps"][1]["s"][0])),
            lambda d: d["steps"][2]["t"].__setitem__(0, str(d["steps"][2]["t"][0])),
            lambda d: d["corrections"][0].update(output=float(d["corrections"][0]["output"])),
            lambda d: d["corrections"][0]["x"].__setitem__(0, float(d["corrections"][0]["x"][0])),
        ],
        ids=[
            "float-vertex", "bool-vertex", "string-angle", "bool-angle", "float-edge-end",
            "edge-triple", "bool-input", "float-output", "float-s-entry", "string-t-entry",
            "float-correction-output", "float-x-entry",
        ],
    )
    def test_non_integer_fields_rejected(self, corrupt):
        doc = json.loads(pattern_to_json(compile_to_pattern(parse_program(BELL_TYPE))))
        corrupt(doc)
        with pytest.raises(ValueError):
            pattern_from_json(json.dumps(doc))

    def test_round_trip_preserves_simulation(self):
        program = parse_program(BELL_TYPE)
        pattern = compile_to_pattern(program)
        clone = pattern_from_json(pattern_to_json(pattern))
        a = simulate_pattern(pattern, "00")
        b = simulate_pattern(clone, "00")
        assert total_variation_distance(a, b) == 0.0
