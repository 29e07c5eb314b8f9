"""Tests for the interpolated-search evolution engine."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from qpc import (
    EvolutionReport,
    GroverInstance,
    Schedule,
    evolve,
    evolve_dense,
    gap,
    hamiltonian,
    min_gap,
    runtime_to_target,
    schedule_lambdas,
)
from qpc import adiabatic
from qpc.adiabatic import MAX_STEPS, default_steps

#: Every ``runtime_to_target(GroverInstance("0" * n), kind)`` for n = 2..12.
#: A change of the step rule or of the search changes this table on purpose;
#: a change of how ``evolve`` multiplies the steps must leave it as it is.
RUNTIMES = {
    "linear": {2: 9.875, 3: 23.25, 4: 46.25, 5: 92.5, 6: 186.0, 7: 376.0,
               8: 752.0, 9: 1504.0, 10: 3008.0, 11: 6016.0, 12: 12032.0},
    "local": {2: 7.5625, 3: 10.4375, 4: 14.25, 5: 19.625, 6: 27.25, 7: 38.25,
              8: 54.0, 9: 77.0, 10: 111.0, 11: 159.0, 12: 228.0},
}


def sequential_walk(n, schedule):
    """Overlap and norm of the midpoint walk, one complex 2x2 exponential
    at a time, each from an eigendecomposition of the block."""
    c = 2.0 ** (-n / 2.0)
    amps = np.array([c, math.sqrt(1.0 - c * c)])
    dt = schedule.total_time / schedule.steps
    lams = schedule_lambdas(
        GroverInstance("0" * n), schedule, (np.arange(schedule.steps) + 0.5) * dt
    )
    blocks = (np.eye(2) - (1.0 - lams)[:, None, None] * np.outer(amps, amps)
              - lams[:, None, None] * np.diag([1.0, 0.0]))
    evals, vecs = np.linalg.eigh(blocks)
    props = (vecs * np.exp(-1j * evals * dt)[:, None, :]) @ vecs.transpose(0, 2, 1)
    psi = amps.astype(complex)
    for prop in props:
        psi = prop @ psi
    return abs(psi[0]) ** 2, float(np.linalg.norm(psi))


def full_step_search(instance, kind, target, rel_tol, time_cap):
    """``runtime_to_target``'s doubling and bisection with every probe one
    ``default_steps(T)`` walk, the reference for its coarse probes."""

    def reaches(total_time):
        schedule = Schedule(kind, total_time, default_steps(total_time))
        return evolve(instance, schedule).final_overlap >= target

    lo, hi = 0.0, 1.0
    while not reaches(hi):
        lo, hi = hi, 2.0 * hi
        if hi > time_cap:
            raise RuntimeError(f"time cap {time_cap} hit")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestInstanceAndSchedule:
    def test_counts(self):
        inst = GroverInstance("0110")
        assert inst.n == 4
        assert inst.size == 16

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            GroverInstance("0")
        with pytest.raises(ValueError):
            GroverInstance("0" * 15)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            GroverInstance("01x")

    def test_schedule_invariants(self):
        with pytest.raises(ValueError):
            Schedule("linear", 0.0, 100)
        with pytest.raises(ValueError):
            Schedule("linear", 1.0, 5)
        with pytest.raises(ValueError):
            Schedule("cubic", 1.0, 100)

    def test_steps_must_be_an_integer(self):
        for steps in (10.5, 100.0, True):
            with pytest.raises(ValueError):
                Schedule("linear", 1.0, steps)
        assert Schedule("linear", 1.0, np.int64(100)).steps == 100

    def test_step_cap(self):
        assert Schedule("linear", 1.0, MAX_STEPS).steps == MAX_STEPS
        with pytest.raises(ValueError, match=f"outside \\[10, {MAX_STEPS}\\]"):
            Schedule("linear", 1.0, MAX_STEPS + 1)
        assert default_steps(1e9) <= MAX_STEPS

    def test_default_steps(self):
        assert default_steps(1.0) == 200
        assert default_steps(12.34) == 247
        assert default_steps(240.0) == 4800
        assert default_steps(1e9) == 500_000

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_default_steps_rejects_bad_times(self, bad):
        with pytest.raises(ValueError, match="total_time must be positive"):
            default_steps(bad)


class TestHamiltonian:
    def test_endpoint_ground_states(self):
        inst = GroverInstance("101")
        h0 = hamiltonian(inst, 0.0)
        psi0 = np.full(8, 1 / np.sqrt(8))
        np.testing.assert_allclose(h0 @ psi0, np.zeros(8), atol=1e-12)
        h1 = hamiltonian(inst, 1.0)
        marked = np.zeros(8)
        marked[0b101] = 1.0
        np.testing.assert_allclose(h1 @ marked, np.zeros(8), atol=1e-12)

    def test_hermitian_with_bounded_spectrum(self):
        inst = GroverInstance("0010")
        for lam in (0.0, 0.3, 0.5, 0.9, 1.0):
            h = hamiltonian(inst, lam)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
            evals = np.linalg.eigvalsh(h)
            assert evals.min() > -1e-12
            assert evals.max() < 2 + 1e-12

    def test_lambda_range_enforced(self):
        inst = GroverInstance("00")
        with pytest.raises(ValueError):
            hamiltonian(inst, 1.5)
        with pytest.raises(ValueError):
            hamiltonian(inst, -0.1)

    def test_spectrum_ignores_which_string_is_marked(self):
        for lam in (0.2, 0.5, 0.8):
            a = np.linalg.eigvalsh(hamiltonian(GroverInstance("000"), lam))
            b = np.linalg.eigvalsh(hamiltonian(GroverInstance("110"), lam))
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_spectrum_structure(self):
        inst = GroverInstance("0101")
        evals = np.linalg.eigvalsh(hamiltonian(inst, 0.37))
        np.testing.assert_allclose(evals[1], 1.0 - evals[0], atol=1e-12)
        np.testing.assert_allclose(evals[2:], np.ones(14), atol=1e-12)


class TestGap:
    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(61)
        for n in range(2, 7):
            marked = "".join(rng.choice(["0", "1"], size=n))
            inst = GroverInstance(marked)
            for lam in rng.uniform(0, 1, size=8):
                evals = np.linalg.eigvalsh(hamiltonian(inst, float(lam)))
                assert gap(inst, float(lam)) == pytest.approx(
                    evals[1] - evals[0], abs=1e-10
                )

    def test_midpoint_value(self):
        assert gap(GroverInstance("000"), 0.5) == pytest.approx(
            1 / np.sqrt(8), abs=1e-12
        )

    def test_vectorized_evaluation(self):
        inst = GroverInstance("00")
        lams = np.linspace(0, 1, 11)
        values = gap(inst, lams)
        assert values.shape == (11,)
        assert values.min() == pytest.approx(0.5, abs=1e-6)


class TestMinGap:
    def test_documented_values(self):
        g2, lam2 = min_gap(GroverInstance("00"))
        assert g2 == pytest.approx(0.5, abs=1e-9)
        assert lam2 == pytest.approx(0.5, abs=1e-6)
        g3, _ = min_gap(GroverInstance("000"))
        assert g3 == pytest.approx(0.353553, abs=1e-6)
        g10, _ = min_gap(GroverInstance("0" * 10))
        assert g10 == pytest.approx(0.03125, abs=1e-6)

    def test_closed_form_across_widths(self):
        for n in range(2, 13):
            g, lam = min_gap(GroverInstance("0" * n))
            assert g == pytest.approx(2.0 ** (-n / 2), abs=1e-6)
            assert lam == pytest.approx(0.5, abs=1e-4)


class TestEvolve:
    def test_instant_quench_stays_uniform(self):
        inst = GroverInstance("000")
        report = evolve(inst, Schedule("linear", 1e-8, 10))
        assert report.final_overlap == pytest.approx(1 / 8, abs=1e-6)

    def test_adiabatic_limit_local(self):
        report = evolve(GroverInstance("000"), Schedule("local", 100.0, 5000))
        assert report.final_overlap >= 0.99

    def test_adiabatic_limit_linear(self):
        report = evolve(GroverInstance("000"), Schedule("linear", 100.0, 5000))
        assert report.final_overlap >= 0.99

    def test_norm_preserved(self):
        report = evolve(GroverInstance("0101"), Schedule("local", 25.0, 1200))
        assert abs(report.final_norm - 1.0) < 1e-9

    def test_lambda_trace_shape(self):
        for kind in ("linear", "local"):
            schedule = Schedule(kind, 10.0, 50)
            edges = np.linspace(0.0, schedule.total_time, schedule.steps + 1)
            lams = schedule_lambdas(GroverInstance("00"), schedule, edges)
            assert lams[0] == pytest.approx(0.0, abs=1e-12)
            assert lams[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(lams) >= -1e-15)

    def test_min_gap_seen_bounded_below_by_true_minimum(self):
        inst = GroverInstance("0011")
        report = evolve(inst, Schedule("linear", 20.0, 800))
        true_min, _ = min_gap(inst)
        assert report.min_gap_seen >= true_min - 1e-9

    def test_matches_dense_propagator(self):
        for kind in ("linear", "local"):
            inst = GroverInstance("101")
            schedule = Schedule(kind, 7.0, 300)
            fast = evolve(inst, schedule)
            dense = evolve_dense(inst, schedule)
            assert abs(fast.final_overlap - dense.final_overlap) < 1e-10

    def test_matches_expm_oracle(self):
        inst = GroverInstance("11")
        schedule = Schedule("linear", 5.0, 120)
        dt = schedule.total_time / schedule.steps
        times = (np.arange(schedule.steps) + 0.5) * dt
        lams = schedule_lambdas(inst, schedule, times)
        state = np.full(4, 0.5, dtype=complex)
        for lam in lams:
            state = expm(-1j * dt * hamiltonian(inst, float(lam))) @ state
        overlap = abs(state[0b11]) ** 2
        report = evolve(inst, schedule)
        assert report.final_overlap == pytest.approx(overlap, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 14),
        kind=st.sampled_from(["linear", "local"]),
        steps=st.integers(10, 5000),
        log_time=st.floats(-2.0, math.log10(5e4)),
    )
    def test_matches_sequential_walk(self, n, kind, steps, log_time):
        inst = GroverInstance("0" * n)
        schedule = Schedule(kind, 10.0 ** log_time, steps)
        report = evolve(inst, schedule)
        overlap, norm = sequential_walk(n, schedule)
        assert abs(report.final_overlap - overlap) <= 1e-10
        assert abs(report.final_norm - 1.0) <= 1e-10
        assert abs(norm - 1.0) <= 1e-10
        dt = schedule.total_time / steps
        mids = schedule_lambdas(inst, schedule, (np.arange(steps) + 0.5) * dt)
        assert abs(report.min_gap_seen - np.min(gap(inst, mids))) <= 1e-15

    def test_peak_memory_per_step(self):
        inst = GroverInstance("0" * 12)
        schedule = Schedule("linear", 12032.0, 240_640)
        tracemalloc.start()
        try:
            evolve(inst, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_step = peak / schedule.steps
        assert per_step <= 128
        # the step cap keeps the largest run near 512 MiB
        assert per_step * MAX_STEPS <= 512 * 2**20

    def test_peak_memory_at_step_cap(self):
        # temporaries are bounded by the step blocks, not the step count
        schedule = Schedule("linear", 0.05 * MAX_STEPS, MAX_STEPS)
        tracemalloc.start()
        try:
            evolve(GroverInstance("0" * 12), schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_local_schedule_matches_quadrature(self):
        # lam(f) inverts the arrival time f(lam) = int_0^lam dx / gap(x)**2,
        # normalized; here the integral is a trapezoid sum on a fine grid.
        xs = np.linspace(0.0, 1.0, 200_001)
        frac = np.linspace(0.0, 1.0, 2001)
        for n in range(2, 15):
            inst = GroverInstance("0" * n)
            tau = cumulative_trapezoid(1.0 / gap(inst, xs) ** 2, xs, initial=0.0)
            expected = np.interp(frac, tau / tau[-1], xs)
            lams = schedule_lambdas(inst, Schedule("local", 1.0, 10), frac)
            assert np.max(np.abs(lams - expected)) <= 1e-8

    def test_local_schedule_steps_scale_with_squared_gap(self):
        inst = GroverInstance("00000")
        schedule = Schedule("local", 40.0, 4000)
        times = np.linspace(0, schedule.total_time, schedule.steps + 1)
        lams = schedule_lambdas(inst, schedule, times)
        mids = 0.5 * (lams[:-1] + lams[1:])
        dlam = np.diff(lams)
        rate = dlam / (schedule.total_time / schedule.steps)
        ratio = rate / gap(inst, mids) ** 2
        spread = ratio.max() - ratio.min()
        assert spread < 0.02 * ratio.mean()


class TestRuntimeScaling:
    def test_local_ratio_tracks_sqrt_of_search_space(self):
        t6 = runtime_to_target(GroverInstance("0" * 6), "local")
        t8 = runtime_to_target(GroverInstance("0" * 8), "local")
        assert t8 / t6 == pytest.approx(2.0, rel=0.25)

    def test_linear_ratio_tracks_search_space(self):
        t6 = runtime_to_target(GroverInstance("0" * 6), "linear")
        t8 = runtime_to_target(GroverInstance("0" * 8), "linear")
        assert t8 / t6 == pytest.approx(4.0, rel=0.25)

    def test_found_runtime_reaches_target(self):
        inst = GroverInstance("0110")
        t_star = runtime_to_target(inst, "local", 0.9)
        report = evolve(inst, Schedule("local", t_star, default_steps(t_star)))
        assert report.final_overlap >= 0.9

    @pytest.mark.parametrize(
        "kind, n", [(kind, n) for kind in RUNTIMES for n in RUNTIMES[kind]]
    )
    def test_runtime_table(self, kind, n):
        assert runtime_to_target(GroverInstance("0" * n), kind) == RUNTIMES[kind][n]

    @staticmethod
    def recorded_search(monkeypatch, instance, kind):
        """Run the search with ``qpc.adiabatic.evolve`` swapped for a
        recorder; return the T and every ``(schedule, overlap)`` walked."""
        walks = []
        real_evolve = adiabatic.evolve

        def recorded(instance, schedule):
            report = real_evolve(instance, schedule)
            walks.append((schedule, report.final_overlap))
            return report

        monkeypatch.setattr(adiabatic, "evolve", recorded)
        return runtime_to_target(instance, kind), walks

    def test_every_probe_goes_through_evolve(self, monkeypatch):
        # tracers swap ``qpc.adiabatic.evolve`` to count search steps, so
        # the search must reach it by that name on every walk of a probe
        t_star, walks = self.recorded_search(monkeypatch, GroverInstance("0" * 8), "linear")
        # replay doubling then bisection, each probe by the coarse rule, on
        # the recorded overlaps
        replay = iter(walks)
        decided = {"coarse": 0, "full": 0}

        def walk(total_time, steps):
            schedule, overlap = next(replay)
            assert (schedule.kind, schedule.total_time, schedule.steps) == (
                "linear", total_time, steps)
            return overlap

        def reaches(total_time):
            steps = default_steps(total_time)
            coarse = max(10, math.ceil(total_time / adiabatic._COARSE_DT["linear"]))
            if steps - 3 * coarse > adiabatic._COARSE_SAVING:
                o_k = walk(total_time, coarse)
                o_2k = walk(total_time, 2 * coarse)
                if abs(o_2k - 0.9) > (adiabatic._COARSE_MARGIN * abs(o_2k - o_k)
                                      + adiabatic._COARSE_FLOOR):
                    decided["coarse"] += 1
                    return o_2k >= 0.9
            decided["full"] += 1
            return walk(total_time, steps) >= 0.9

        lo, hi = 0.0, 1.0
        while not reaches(hi):
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-2 * hi:
            mid = 0.5 * (lo + hi)
            if reaches(mid):
                hi = mid
            else:
                lo = mid
        assert next(replay, None) is None
        assert hi == t_star == RUNTIMES["linear"][8]
        assert decided["coarse"] > 5 and decided["full"] > 5

    def test_linear_n12_search_steps(self, monkeypatch):
        # a full-step walk on every probe summed 2,285,280 steps
        t_star, walks = self.recorded_search(monkeypatch, GroverInstance("0" * 12), "linear")
        assert t_star == RUNTIMES["linear"][12]
        assert sum(schedule.steps for schedule, _ in walks) <= 400_000

    # about a quarter of the examples probe a T long enough for coarse walks
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 12),
        bits=st.integers(0, (1 << 12) - 1),
        kind=st.sampled_from(["linear", "local"]),
        # the target sits 10**-digits of the way from 1 back to 1/N
        digits=st.floats(1e-3, 9.0),
        log_tol=st.floats(-4.0, math.log10(0.3)),
        log_cap=st.floats(2.0, math.log10(5e4)),
    )
    def test_same_runtime_as_full_step_search(self, n, bits, kind, digits, log_tol, log_cap):
        inst = GroverInstance(format(bits % (1 << n), f"0{n}b"))
        target = 1.0 - (1.0 - 1.0 / inst.size) * 10.0 ** -digits
        options = {"rel_tol": 10.0 ** log_tol, "time_cap": 10.0 ** log_cap}
        try:
            expected = full_step_search(inst, kind, target, **options)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                runtime_to_target(inst, kind, target, **options)
        else:
            assert runtime_to_target(inst, kind, target, **options) == expected

    def test_exact_target_rejected(self):
        with pytest.raises(ValueError):
            runtime_to_target(GroverInstance("00"), "local", 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            runtime_to_target(GroverInstance("00"), "cubic")

    @pytest.mark.parametrize(
        "option, bad",
        [("rel_tol", 0.0), ("rel_tol", -0.1), ("rel_tol", 1.0), ("rel_tol", 1.5),
         ("rel_tol", math.nan), ("rel_tol", math.inf),
         ("time_cap", 0.0), ("time_cap", -1.0), ("time_cap", math.nan),
         ("time_cap", math.inf)],
    )
    def test_search_options_checked_before_any_probe(self, monkeypatch, option, bad):
        # rel_tol = 0 used to bisect forever and rel_tol = nan to skip bisection
        probes = []

        def counted(instance, schedule):
            probes.append(schedule)
            raise AssertionError("probe run before the options were checked")

        monkeypatch.setattr(adiabatic, "evolve", counted)
        with pytest.raises(ValueError, match=option):
            runtime_to_target(GroverInstance("01"), "linear", **{option: bad})
        assert probes == []


class TestReport:
    def test_overlap_range_enforced(self):
        with pytest.raises(ValueError):
            EvolutionReport(
                schedule=Schedule("linear", 1.0, 10),
                final_overlap=1.5,
                min_gap_seen=0.5,
                final_norm=1.0,
            )

    def test_gap_positivity_enforced(self):
        with pytest.raises(ValueError):
            EvolutionReport(
                schedule=Schedule("linear", 1.0, 10),
                final_overlap=0.5,
                min_gap_seen=0.0,
                final_norm=1.0,
            )

    @pytest.mark.parametrize(
        "field, bad",
        [("min_gap_seen", math.nan), ("final_norm", math.nan),
         ("final_norm", math.inf), ("final_norm", -math.inf)],
    )
    def test_nan_gap_and_non_finite_norm_rejected(self, field, bad):
        fields = dict(
            schedule=Schedule("linear", 1.0, 10),
            final_overlap=0.5,
            min_gap_seen=0.5,
            final_norm=1.0,
        )
        fields[field] = bad
        with pytest.raises(ValueError):
            EvolutionReport(**fields)
