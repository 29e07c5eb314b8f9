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
exponential ``exp(-i H(lam_mid) dt)``.  Two schedule shapes are supported:
``"linear"`` (lam proportional to t) and ``"local"`` (d lam / dt
proportional to gap(lam)**2, i.e. the walk slows where the gap closes),
both in closed form.  ``default_steps`` is the one rule for the number of
midpoint steps of a run of length T, shared by ``runtime_to_target`` and
``qpc grover``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Dense-matrix guard: 2**12 x 2**12 floats is already ~134 MB.
MAX_DENSE_QUBITS = 12

#: Largest search instance accepted (desk-scale bound).
MAX_QUBITS = 14

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


@dataclass(frozen=True)
class Schedule:
    """Annealing schedule: shape, total time, number of midpoint steps."""

    kind: str
    total_time: float
    steps: int

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.total_time) and self.total_time > 0.0):
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 10:
            raise ValueError(f"steps = {self.steps} is below the minimum of 10")


@dataclass(frozen=True, eq=False)
class EvolutionReport:
    """Outcome of one annealing run.

    ``lambdas`` is the midpoint lam trace actually used, one per step.
    """

    schedule: Schedule
    final_overlap: float     # |<marked|psi(T)>|**2
    min_gap_seen: float      # smallest instantaneous gap among the midpoints
    final_norm: float        # should stay 1 to float accuracy
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        if not -1e-12 <= self.final_overlap <= 1.0 + 1e-9:
            raise ValueError(f"overlap {self.final_overlap} outside [0, 1]")
        if self.min_gap_seen <= 0.0:
            raise ValueError(f"non-positive gap {self.min_gap_seen}")
        trace = np.asarray(self.lambdas, dtype=float)
        trace.setflags(write=False)
        object.__setattr__(self, "lambdas", trace)


def _block(n: int, lam: float | np.ndarray) -> np.ndarray:
    """Restriction of H(lam) to span{|s>, |s_perp>} as a stack of 2x2 blocks."""
    c = 2.0 ** (-n / 2.0)
    q = math.sqrt(1.0 - c * c)
    lam = np.asarray(lam, dtype=float)
    h = np.empty(lam.shape + (2, 2), dtype=float)
    h[..., 0, 0] = 1.0 - (1.0 - lam) * c * c - lam
    h[..., 0, 1] = -(1.0 - lam) * c * q
    h[..., 1, 0] = h[..., 0, 1]
    h[..., 1, 1] = 1.0 - (1.0 - lam) * q * q
    return h


def gap(instance: GroverInstance, lam: float | np.ndarray) -> float | np.ndarray:
    """Instantaneous spectral gap E1 - E0 of H(lam).

    The block eigenvalues are (1 -+ d)/2 with d the discriminant below; the
    complement eigenvalue 1 never dips under the upper block level, so the
    gap is the block splitting itself.
    """
    h = _block(instance.n, lam)
    diff = h[..., 0, 0] - h[..., 1, 1]
    disc = np.sqrt(diff * diff + 4.0 * h[..., 0, 1] ** 2)
    return disc if disc.ndim else float(disc)


def min_gap(
    instance: GroverInstance,
    *,
    grid_points: int = 1001,
    refine_rounds: int = 3,
) -> tuple[float, float]:
    """Numerical minimum of the gap over lam in [0, 1].

    Coarse grid scan followed by zoom refinement around the running argmin;
    returns ``(gap_min, lam_star)``.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    lo, hi = 0.0, 1.0
    best_lam = 0.5
    best_gap = math.inf
    for _ in range(refine_rounds + 1):
        xs = np.linspace(lo, hi, grid_points)
        gs = np.asarray(gap(instance, xs))
        i = int(np.argmin(gs))
        if gs[i] < best_gap:
            best_gap = float(gs[i])
            best_lam = float(xs[i])
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, grid_points - 1)]
    return best_gap, best_lam


def hamiltonian(
    instance: GroverInstance, lam: float, max_qubits: int = MAX_DENSE_QUBITS
) -> np.ndarray:
    """Dense H(lam) as a real symmetric matrix (guarded by ``max_qubits``)."""
    if instance.n > max_qubits:
        raise ValueError(
            f"n = {instance.n} exceeds the dense limit of {max_qubits} qubits"
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


def _midpoint_propagators(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for a stack of real symmetric 2x2 matrices, closed form."""
    p = h[..., 0, 0]
    q = h[..., 0, 1]
    r = h[..., 1, 1]
    s0 = 0.5 * (p + r)
    sz = 0.5 * (p - r)
    omega = np.sqrt(sz * sz + q * q)
    ang = omega * dt
    cos = np.cos(ang)
    # sin(x)/x is safe at 0 via the series limit
    sinc = np.where(omega > 1e-300, np.sin(ang) / np.where(omega > 1e-300, omega, 1.0), dt)
    u = np.empty(h.shape, dtype=complex)
    u[..., 0, 0] = cos - 1j * sinc * sz
    u[..., 0, 1] = -1j * sinc * q
    u[..., 1, 0] = u[..., 0, 1]
    u[..., 1, 1] = cos + 1j * sinc * sz
    return np.exp(-1j * s0 * dt)[..., None, None] * u


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[-1] @ ... @ mats[0] by pairwise tree reduction."""
    while mats.shape[0] > 1:
        k = mats.shape[0]
        even = k - (k % 2)
        paired = np.matmul(mats[1:even:2], mats[0:even:2])
        mats = np.concatenate([paired, mats[even:]], axis=0) if k % 2 else paired
    return mats[0]


def evolve(instance: GroverInstance, schedule: Schedule) -> EvolutionReport:
    """Anneal |psi0> through H(lam(t)) inside the invariant 2D plane."""
    k = schedule.steps
    dt = schedule.total_time / k
    mids = (np.arange(k) + 0.5) * dt
    lams = schedule_lambdas(instance, schedule, mids)
    blocks = _block(instance.n, lams)
    u = _ordered_product(_midpoint_propagators(blocks, dt))
    c = 2.0 ** (-instance.n / 2.0)
    psi = u @ np.array([c, math.sqrt(1.0 - c * c)], dtype=complex)
    gaps = np.asarray(gap(instance, lams))
    edges = np.linspace(0.0, schedule.total_time, k + 1)
    return EvolutionReport(
        schedule=schedule,
        final_overlap=float(abs(psi[0]) ** 2),
        min_gap_seen=float(np.min(gaps)),
        final_norm=float(np.linalg.norm(psi)),
        lambdas=schedule_lambdas(instance, schedule, edges),
    )


def evolve_dense(
    instance: GroverInstance, schedule: Schedule, max_qubits: int = 8
) -> EvolutionReport:
    """Same midpoint walk in the full 2**n space; cross-check path.

    Exponentials come from eigendecompositions of the dense H(lam), so this
    is slow and kept to small n.
    """
    if instance.n > max_qubits:
        raise ValueError(f"dense cross-check limited to {max_qubits} qubits")
    k = schedule.steps
    dt = schedule.total_time / k
    mids = (np.arange(k) + 0.5) * dt
    lams = schedule_lambdas(instance, schedule, mids)
    dim = instance.size
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    marked = int(instance.marked, 2)
    min_seen = math.inf
    for lam in lams:
        h = hamiltonian(instance, float(lam), max_qubits=max_qubits)
        evals, vects = np.linalg.eigh(h)
        psi = vects @ (np.exp(-1j * evals * dt) * (vects.conj().T @ psi))
        min_seen = min(min_seen, float(evals[1] - evals[0]))
    edges = np.linspace(0.0, schedule.total_time, k + 1)
    return EvolutionReport(
        schedule=schedule,
        final_overlap=float(abs(psi[marked]) ** 2),
        min_gap_seen=min_seen,
        final_norm=float(np.linalg.norm(psi)),
        lambdas=schedule_lambdas(instance, schedule, edges),
    )


def default_steps(total_time: float) -> int:
    """Midpoint steps for a run of length ``total_time``: one per 0.05 time
    units, clipped to [200, 500000].  An infinite time clips to the cap
    (``Schedule`` then rejects it) instead of raising OverflowError."""
    return int(np.clip(np.ceil(total_time / 0.05), 200, 500_000))


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

    Each probe runs ``evolve`` with ``default_steps(T)`` steps.  T doubles
    from 1 until a probe reaches the target, then bisection keeps a probe
    that reaches it (returned) within ``rel_tol`` of one that does not.
    The overlap is not monotone in T, so this is a crossing, not
    necessarily the smallest T that reaches the target.  Raises
    RuntimeError if ``time_cap`` is hit first.
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    if not 1.0 / instance.size < target < 1.0:
        raise ValueError(
            f"target {target} must sit strictly between 1/N and 1"
        )

    def overlap_at(total_time: float) -> float:
        schedule = Schedule(kind, total_time, default_steps(total_time))
        return evolve(instance, schedule).final_overlap

    lo = 0.0
    hi = 1.0
    while overlap_at(hi) < target:
        lo = hi
        hi *= 2.0
        if hi > time_cap:
            raise RuntimeError(
                f"no {kind} schedule under T = {time_cap} reaches overlap {target}"
            )
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if overlap_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
