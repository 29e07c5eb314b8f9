"""Adiabatic search on projector Hamiltonians.

The interpolation is ``H(lam) = (1 - lam) (I - |psi0><psi0|) + lam (I -
|s><s|)`` where ``|psi0>`` is the uniform superposition over N = 2**n basis
states and ``|s>`` the marked state.  The dynamics never leaves the plane
spanned by ``|s>`` and ``|psi0>``: in the orthonormal basis ``{|s>,
|s_perp>}`` the Hamiltonian restricts to a real symmetric 2x2 block while
the orthogonal complement sits at constant energy 1.  All production
routines therefore work in that 2x2 block; ``evolve_dense`` walks the full
2**n-dimensional space and exists to cross-check the reduction.

Time evolution uses the midpoint rule: per step the propagator is the exact
exponential ``exp(-i H(lam_mid) dt)``; without its global phase, which
changes neither overlap nor norm, it is a real unit quaternion, and
``evolve`` multiplies the steps pairwise as four float64 rows.  Two
schedule shapes are supported: ``"linear"`` (lam proportional to t) and
``"local"`` (d lam / dt proportional to gap(lam)**2, i.e. the walk slows
where the gap closes), both in closed form.  ``default_steps`` is the one
rule for the number of midpoint steps of a run of length T, shared by
``runtime_to_target`` (whose probes take coarser walks first where their
error estimate settles the probe) and ``qpc grover``; ``MAX_STEPS`` caps a
run's steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .program_ir import MAX_DENSE_QUBITS, _check_integer

#: Largest search instance accepted (desk-scale bound).
MAX_QUBITS = 14

#: Most midpoint steps of one run, a time guard: about 0.26 s of ``evolve``
#: at 0.058 us per step (2-core Xeon VM, one BLAS thread).  Its memory does
#: not grow with the steps.
MAX_STEPS = 4_500_000

#: Largest instance ``evolve_dense`` walks; each step diagonalizes H.
_DENSE_EVOLVE_QUBITS = 8

SCHEDULE_KINDS = ("linear", "local")


@dataclass(frozen=True)
class GroverInstance:
    """Search instance identified by its marked basis state (a bitstring)."""

    marked: str

    def __post_init__(self) -> None:
        if not self.marked or any(ch not in "01" for ch in self.marked):
            raise ValueError(f"marked state {self.marked!r} is not a bitstring")
        if not 2 <= len(self.marked) <= MAX_QUBITS:
            raise ValueError(f"instance size {len(self.marked)} outside [2, {MAX_QUBITS}]")

    @property
    def n(self) -> int:
        return len(self.marked)

    @property
    def size(self) -> int:
        return 1 << self.n


def _check_total_time(total_time: float) -> None:
    if not (math.isfinite(total_time) and total_time > 0.0):
        raise ValueError(f"total_time must be positive, got {total_time}")


@dataclass(frozen=True)
class Schedule:
    """Annealing schedule: shape, total time, number of midpoint steps."""

    kind: str
    total_time: float
    steps: int

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        _check_total_time(self.total_time)
        _check_integer(self.steps, "steps")
        if not 10 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps = {self.steps} outside [10, {MAX_STEPS}]")


@dataclass(frozen=True, eq=False)
class EvolutionReport:
    """Outcome of one annealing run; ``schedule_lambdas`` gives lam at any
    time of it."""

    schedule: Schedule
    final_overlap: float     # |<marked|psi(T)>|**2
    min_gap_seen: float      # smallest instantaneous gap among the midpoints
    final_norm: float        # should stay 1 to float accuracy

    def __post_init__(self) -> None:
        if not -1e-12 <= self.final_overlap <= 1.0 + 1e-9:
            raise ValueError(f"overlap {self.final_overlap} outside [0, 1]")
        if not (self.min_gap_seen > 0.0 and math.isfinite(self.final_norm)):
            raise ValueError(f"gap {self.min_gap_seen} not > 0 or norm {self.final_norm} not finite")


def _block_terms(n: int, lam: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sz, q, omega)`` of H(lam) on span{|s>, |s_perp>} written as
    ``s0 I + sz Z + q X``, with ``omega = sqrt(sz**2 + q**2)``."""
    c = 2.0 ** (-n / 2.0)
    c_perp = math.sqrt(1.0 - c * c)
    lam = np.asarray(lam, dtype=float)
    rest = 1.0 - lam
    sz = 0.5 * ((1.0 - rest * c * c - lam) - (1.0 - rest * c_perp * c_perp))
    q = -rest * c * c_perp
    return sz, q, np.sqrt(sz * sz + q * q)


def gap(instance: GroverInstance, lam: float | np.ndarray) -> float | np.ndarray:
    """Instantaneous spectral gap E1 - E0 of H(lam).

    The block eigenvalues are s0 -+ omega; the complement eigenvalue 1 never
    dips under the upper block level, so the gap is the block splitting
    2 omega.
    """
    gaps = 2.0 * _block_terms(instance.n, lam)[2]
    return gaps if gaps.ndim else float(gaps)


def min_gap(instance: GroverInstance) -> tuple[float, float]:
    """Minimum of the gap over lam in [0, 1], as ``(gap_min, lam_star)``.

    gap(lam)^2 = 1 - 4 (1 - 1/N) lam (1 - lam) is smallest at lam = 1/2,
    where the gap is 1/sqrt(N) (Roland & Cerf, PRA 65, 042308 (2002)).
    """
    return gap(instance, 0.5), 0.5


def hamiltonian(instance: GroverInstance, lam: float) -> np.ndarray:
    """Dense H(lam) as a real symmetric matrix, for n up to
    ``program_ir.MAX_DENSE_QUBITS``."""
    if instance.n > MAX_DENSE_QUBITS:
        raise ValueError(
            f"n = {instance.n} exceeds the dense limit of {MAX_DENSE_QUBITS} qubits"
        )
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam = {lam} outside [0, 1]")
    dim = instance.size
    psi0 = np.full(dim, 1.0 / math.sqrt(dim))
    h = np.eye(dim) - (1.0 - lam) * np.outer(psi0, psi0)
    s = int(instance.marked, 2)
    h[s, s] -= lam
    return h


def schedule_lambdas(
    instance: GroverInstance, schedule: Schedule, times: np.ndarray
) -> np.ndarray:
    """lam at the given times for this schedule shape.

    The local schedule is the closed-form solution of d lam / dt proportional
    to gap(lam)**2 (Roland & Cerf, PRA 65, 042308 (2002)): with
    r = sqrt(N - 1) and f = t / T,
    ``lam(f) = 1/2 + tan((2f - 1) atan(r)) / (2r)``.
    """
    frac = np.asarray(times, dtype=float) / schedule.total_time
    frac = np.clip(frac, 0.0, 1.0)
    if schedule.kind == "linear":
        return frac
    r = math.sqrt(instance.size - 1)
    return np.clip(0.5 + np.tan((2.0 * frac - 1.0) * math.atan(r)) / (2.0 * r), 0.0, 1.0)


#: Row i holds the coefficient of p_j q_k, at column 4 j + k, in component i
#: of the product p q of two SU(2) elements stored as ``(a, x, y, z)``.
_HAMILTON = np.array([
    [1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1],
    [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0],
    [0, 0, 1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, 1, 0, 0, 0]], dtype=float)


#: Midpoint steps ``evolve`` builds and multiplies at once (a power of two).
_STEP_BLOCK = 1 << 13


def _su2_product(rows: np.ndarray) -> np.ndarray:
    """Product ``rows[:, -1] ... rows[:, 0]`` of the SU(2) elements ``a - i (x X
    + y Y + z Z)`` stored as columns ``(a, x, y, z)``, by pairwise reduction."""
    while rows.shape[1] > 1:
        k = rows.shape[1]
        even = k - (k % 2)
        paired = _HAMILTON @ (rows[:, None, 1:even:2] * rows[None, :, 0:even:2]).reshape(16, -1)
        rows = np.concatenate([paired, rows[:, even:]], axis=1) if k % 2 else paired
    return rows[:, 0]


def evolve(instance: GroverInstance, schedule: Schedule) -> EvolutionReport:
    """Anneal |psi0> through H(lam(t)) inside the invariant 2D plane.

    A step is ``exp(-i s0 dt) (cos(omega dt) - i sin(omega dt) (q X + sz Z) /
    omega)`` with omega >= 2**(-n/2) / 2; its gap is ``2 omega``, bitwise.
    The steps are built and multiplied ``_STEP_BLOCK`` at a time, then the
    block products are multiplied: as the block size is a power of two,
    the same pairwise tree as over all steps at once, in block-sized
    temporaries."""
    k = schedule.steps
    dt = schedule.total_time / k
    blocks = []
    min_omega = math.inf
    for first in range(0, k, _STEP_BLOCK):
        mids = (np.arange(first, min(first + _STEP_BLOCK, k)) + 0.5) * dt
        sz, q, omega = _block_terms(instance.n, schedule_lambdas(instance, schedule, mids))
        ang = omega * dt
        sinc = np.sin(ang) / omega
        rows = np.stack([np.cos(ang), sinc * q, np.zeros(len(ang)), sinc * sz])
        blocks.append(_su2_product(rows))
        min_omega = min(min_omega, float(np.min(omega)))
    a, x, y, z = _su2_product(np.stack(blocks, axis=1))
    u = np.array([[a - 1j * z, -y - 1j * x], [y - 1j * x, a + 1j * z]])
    c = 2.0 ** (-instance.n / 2.0)
    psi = u @ np.array([c, math.sqrt(1.0 - c * c)])
    return EvolutionReport(
        schedule=schedule,
        final_overlap=float(abs(psi[0]) ** 2),
        min_gap_seen=2.0 * min_omega,
        final_norm=float(np.linalg.norm(psi)),
    )


def evolve_dense(instance: GroverInstance, schedule: Schedule) -> EvolutionReport:
    """Same midpoint walk in the full 2**n space; cross-check path.

    Exponentials come from eigendecompositions of the dense H(lam), so this
    is slow and kept to n <= 8.
    """
    if instance.n > _DENSE_EVOLVE_QUBITS:
        raise ValueError(f"dense cross-check limited to {_DENSE_EVOLVE_QUBITS} qubits")
    k = schedule.steps
    dt = schedule.total_time / k
    mids = (np.arange(k) + 0.5) * dt
    lams = schedule_lambdas(instance, schedule, mids)
    dim = instance.size
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    marked = int(instance.marked, 2)
    min_seen = math.inf
    for lam in lams:
        h = hamiltonian(instance, float(lam))
        evals, vects = np.linalg.eigh(h)
        psi = vects @ (np.exp(-1j * evals * dt) * (vects.conj().T @ psi))
        min_seen = min(min_seen, float(evals[1] - evals[0]))
    return EvolutionReport(
        schedule=schedule,
        final_overlap=float(abs(psi[marked]) ** 2),
        min_gap_seen=min_seen,
        final_norm=float(np.linalg.norm(psi)),
    )


def default_steps(total_time: float) -> int:
    """Midpoint steps for a run of length ``total_time``: one per 0.05 time
    units, clipped to [200, 500000].  A time that is not finite and
    positive raises ``Schedule``'s ValueError."""
    _check_total_time(total_time)
    return int(np.clip(np.ceil(total_time / 0.05), 200, 500_000))


#: Coarse probes of ``runtime_to_target``.  A probe first walks with k and
#: 2k steps, k = max(10, ceil(T / _COARSE_DT[kind])), when that saves more
#: than ``_COARSE_SAVING`` steps against ``default_steps(T)`` (one call of
#: ``evolve`` costs about 1200 steps).  The gap is at most 1, so omega dt
#: <= 1/2; the local schedule also moves lam by up to (pi / 2) sqrt(N) / T
#: per time unit, near 1/2 at the runtimes searched, so it takes half
#: steps.  The 2k walk decides when the target lies farther from its
#: overlap than ``_COARSE_MARGIN`` times the two walks' difference plus
#: ``_COARSE_FLOOR`` (roundoff near overlap 1).  In the midpoint rule's
#: second-order range the 2k walk is a third of that difference from the
#: full walk; over 58,000 sampled probes (n = 2..14, T from 100 to 170,000)
#: it was at most 6.1 times it away, where more than 1e-9.
_COARSE_DT = {"linear": 1.0, "local": 0.5}
_COARSE_SAVING = 2000
_COARSE_MARGIN = 10.0
_COARSE_FLOOR = 1e-9


def runtime_to_target(
    instance: GroverInstance,
    kind: str,
    target: float = 0.9,
    *,
    rel_tol: float = 1e-2,
    time_cap: float = 1e6,
) -> float:
    """A total time T whose run reaches ``target`` overlap, located to
    ``rel_tol``.

    A probe decides whether the run of length T reaches the target by the
    overlap of a ``default_steps(T)`` walk.  Where it saves work it first
    walks with k and 2k coarse steps and decides from the 2k walk alone if
    the target lies well outside the two walks' difference, the midpoint
    rule's error estimate; it falls back to the ``default_steps(T)`` walk
    otherwise (see ``_COARSE_DT``).  T doubles from 1 until a probe
    reaches the target, then bisection keeps a probe that reaches it
    (returned) within ``rel_tol`` of one that does not.
    The overlap is not monotone in T, so this is a crossing, not
    necessarily the smallest T that reaches the target.  Raises
    RuntimeError if ``time_cap`` is hit first.  ``rel_tol`` must lie in
    (0, 1) and ``time_cap`` be finite and positive; both are checked
    before the first probe.
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    if not 1.0 / instance.size < target < 1.0:
        raise ValueError(
            f"target {target} must sit strictly between 1/N and 1"
        )
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol = {rel_tol} must lie in (0, 1)")
    if not 0.0 < time_cap < math.inf:
        raise ValueError(f"time_cap = {time_cap} must be finite and positive")

    def reaches(total_time: float) -> bool:
        steps = default_steps(total_time)
        coarse = max(10, math.ceil(total_time / _COARSE_DT[kind]))
        if steps - 3 * coarse > _COARSE_SAVING:
            o_k = evolve(instance, Schedule(kind, total_time, coarse)).final_overlap
            o_2k = evolve(instance, Schedule(kind, total_time, 2 * coarse)).final_overlap
            if abs(o_2k - target) > _COARSE_MARGIN * abs(o_2k - o_k) + _COARSE_FLOOR:
                return o_2k >= target
        return evolve(instance, Schedule(kind, total_time, steps)).final_overlap >= target

    lo = 0.0
    hi = 1.0
    while not reaches(hi):
        lo = hi
        hi *= 2.0
        if hi > time_cap:
            raise RuntimeError(
                f"no {kind} schedule under T = {time_cap} reaches overlap {target}"
            )
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi
