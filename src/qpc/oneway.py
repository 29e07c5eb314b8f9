"""Measurement-based execution of gate programs on cluster states.

A gate program is lowered to a ``MeasurementPattern``: a graph of qubits
(vertices) prepared in ``(|0> + |1>)/sqrt(2)`` (inputs carry basis states
instead), entangled by CZ along the edges, then measured vertex by vertex in
bases ``|+_theta>, |-_theta>`` with ``|+-_theta> = (|0> +- e^{i theta}|1>)/
sqrt(2)``.  Each measurement angle is adapted at runtime to earlier outcomes:

    device angle = (-1)^s * base_angle + pi * t

where ``s`` and ``t`` are XORs of the outcomes listed in the step's
``s_domain`` and ``t_domain``.  Unmeasured vertices are the outputs; the
``x/z_corrections`` sets give, per output, which outcomes decide the final
Pauli fix-up.

Lowering: a rotation ``exp(-i theta . sigma)`` is split as
``Rz(gamma) Rx(beta) Rz(alpha)`` and realized by a four-measurement chain
with base angles ``(-alpha, -beta, -gamma, 0)``; a CZ gate becomes a direct
edge between the two wire frontiers.  Every rotation therefore adds exactly
four vertices, so a compiled pattern has ``wires + 4 * rotations`` vertices.

Simulation runs on one batched engine (``_run_batch``): a batch of
branches, each a state over the active vertices and a weight.  Every step is
measured at its base angle, and outcome 1 applies the step's byproducts to
the branch state at once (signal shifting; Danos, Kashefi & Panangaden,
J. ACM 54 (2007)), which is exact because ``<+-_theta| = <+-_a| X^s Z^t``
up to a phase for the device angle ``theta`` of base angle ``a``.
Vertices are activated only when first touched (valid because CZ edges
commute with everything acting on other vertices).  The policies differ only
in how each measurement outcome is chosen:

* ``"enumerate-all"`` -- exact mixture over all measurement branches.  Every
  branch is split on every outcome, and branches whose states agree up to
  phase are merged.  On a compiled pattern the byproducts of each outcome
  undo its effect on the state, so both halves of a split merge again and
  one branch stays live at every wire count.
* chosen outcomes -- a branch takes outcome 1 when its number for the step
  is at least its probability of outcome 0, or the reachable outcome if the
  other has probability ~0.  ``"seeded-random"`` follows one branch on
  seeded uniform draws; ``branch_determinism_check`` forces 0/1 numbers.

Determinism of a pattern is certified without simulation when its domains
are exactly those induced by a causal flow (``_flow_certificate``; Danos &
Kashefi, PRA 74, 052310 (2006)).  Compiled patterns always are: each chain
vertex's flow successor is the next vertex on its wire.  Other patterns
fall back to the exhaustive check over all 2^measurements assignments.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .program_ir import CZGate, Program, RotationGate, _check_integer
from .statevec import (
    Distribution,
    ReadoutSpec,
    marginal_probabilities,
    total_variation_distance,
)

_SQRT2 = math.sqrt(2.0)
_BASIS = np.eye(2, dtype=complex)
_PLUS = np.array([1.0, 1.0], dtype=complex) / _SQRT2
_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)  # outcome 0 / 1 projector signs
_DROP_TOL = 1e-14          # conditional branch probability treated as zero
_MERGE_TOL = 1e-11         # max overlap deficit for states considered equal
_FORCE_TOL = 1e-12         # a chosen outcome below this probability is unreachable

#: Register guard for pattern simulation (active vertices at any instant).
MAX_ACTIVE = 24


class BranchLimitError(RuntimeError):
    """Raised when enumeration would exceed the configured branch budget."""


@dataclass(frozen=True)
class MeasureStep:
    """One adaptive measurement: vertex, base angle, dependency domains."""

    vertex: int
    angle: float
    s_domain: frozenset[int] = field(default_factory=frozenset)
    t_domain: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"non-finite angle {self.angle}")
        object.__setattr__(self, "s_domain", frozenset(self.s_domain))
        object.__setattr__(self, "t_domain", frozenset(self.t_domain))


@dataclass(frozen=True)
class MeasurementPattern:
    """Validated measurement pattern.

    ``inputs`` and ``outputs`` are ordered, one vertex per logical wire.
    Every non-output vertex is measured exactly once, in ``steps`` order;
    dependency domains may only reference vertices measured strictly
    earlier.  ``x_corrections[j]`` / ``z_corrections[j]`` hold the outcome
    sets fixing output ``outputs[j]``.
    """

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    steps: tuple[MeasureStep, ...]
    x_corrections: tuple[frozenset[int], ...]
    z_corrections: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        norm_edges = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge {e} leaves the vertex set")
            norm_edges.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm_edges))
        for name, seq in (("inputs", self.inputs), ("outputs", self.outputs)):
            if len(set(seq)) != len(seq):
                raise ValueError(f"duplicate vertex in {name} {seq}")
            if not set(seq) <= self.vertices:
                raise ValueError(f"{name} {seq} leave the vertex set")
        if len(self.inputs) != len(self.outputs):
            raise ValueError(
                f"{len(self.inputs)} inputs vs {len(self.outputs)} outputs; "
                "one of each per wire"
            )
        measured = [st.vertex for st in self.steps]
        if len(set(measured)) != len(measured):
            raise ValueError("a vertex is measured twice")
        expected = self.vertices - set(self.outputs)
        if set(measured) != expected:
            raise ValueError(
                "measured vertices must be exactly the non-outputs; "
                f"got {sorted(set(measured))}, expected {sorted(expected)}"
            )
        seen: set[int] = set()
        for st in self.steps:
            if not (st.s_domain | st.t_domain) <= seen:
                raise ValueError(
                    f"step for vertex {st.vertex} references outcomes not yet measured"
                )
            seen.add(st.vertex)
        for name, corr in (
            ("x_corrections", self.x_corrections),
            ("z_corrections", self.z_corrections),
        ):
            if len(corr) != len(self.outputs):
                raise ValueError(f"{name} must list one set per output")
            for cs in corr:
                if not frozenset(cs) <= set(measured):
                    raise ValueError(f"{name} reference unmeasured vertices")
        object.__setattr__(
            self, "x_corrections", tuple(frozenset(c) for c in self.x_corrections)
        )
        object.__setattr__(
            self, "z_corrections", tuple(frozenset(c) for c in self.z_corrections)
        )

    @property
    def wires(self) -> int:
        return len(self.outputs)

    @functools.cached_property
    def _plan(self) -> _Plan:
        # Built on first simulation and kept: the pattern is immutable.
        return _Plan(self)


# ---------------------------------------------------------------------------
# lowering


def zxz_euler(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma) with Rz(gamma) Rx(beta) Rz(alpha) = u
    up to global phase.  ``u`` must be a 2x2 unitary."""
    mat = np.asarray(u, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {mat.shape}")
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(abs(det) - 1.0) > 1e-9:
        raise ValueError("matrix is not unitary")
    su = mat / cmath.sqrt(det)
    a, b = su[0, 0], su[0, 1]
    c, d = su[1, 0], su[1, 1]
    beta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(b) < 1e-14:
        # diagonal: a pure Z rotation
        return (cmath.phase(d) - cmath.phase(a), beta, 0.0)
    if abs(a) < 1e-14:
        # anti-diagonal: X rotation by pi conjugated by Z
        return (cmath.phase(b) - cmath.phase(c), beta, 0.0)
    # d = cos(beta/2) e^{i(alpha+gamma)/2} and ib = sin(beta/2) e^{i(alpha-gamma)/2}
    # with both trig factors > 0 here, so each phase is a half-sum directly
    # (halving a wrapped phase difference would be off by pi on wrap-around).
    half_sum = cmath.phase(d)
    half_diff = cmath.phase(1j * b)
    return (half_sum + half_diff, beta, half_sum - half_diff)


def compile_to_pattern(program: Program) -> MeasurementPattern:
    """Lower a gate program to an equivalent measurement pattern.

    Wire j starts at input vertex j.  Rotations extend the wire by four
    vertices; CZ gates toggle a direct edge between the two frontiers (two
    identical CZs cancel).  Dependency domains implement the running Pauli
    frame: a measured chain vertex feeds the s-domain of the next step and
    the t-domain of the one after, and a CZ mixes each wire's X frame into
    the partner's Z frame.
    """
    wires = program.width
    frontier = list(range(wires))
    x_frame: list[frozenset[int]] = [frozenset()] * wires
    z_frame: list[frozenset[int]] = [frozenset()] * wires
    edges: set[tuple[int, int]] = set()
    steps: list[MeasureStep] = []
    next_vertex = wires

    def toggle_edge(u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        if key in edges:
            edges.remove(key)
        else:
            edges.add(key)

    for gate in program.gates:
        if isinstance(gate, CZGate):
            c, t = gate.control, gate.target
            toggle_edge(frontier[c], frontier[t])
            z_frame[c] = z_frame[c] ^ x_frame[t]
            z_frame[t] = z_frame[t] ^ x_frame[c]
        else:
            w = gate.target
            alpha, beta, gamma = zxz_euler(gate.matrix())
            for base in (-alpha, -beta, -gamma, 0.0):
                u = frontier[w]
                v = next_vertex
                next_vertex += 1
                toggle_edge(u, v)
                steps.append(
                    MeasureStep(u, base, s_domain=x_frame[w], t_domain=z_frame[w])
                )
                z_frame[w] = x_frame[w]
                x_frame[w] = frozenset((u,))
                frontier[w] = v
    vertices = frozenset(range(next_vertex))
    return MeasurementPattern(
        vertices=vertices,
        edges=frozenset(edges),
        inputs=tuple(range(wires)),
        outputs=tuple(frontier),
        steps=tuple(steps),
        x_corrections=tuple(x_frame),
        z_corrections=tuple(z_frame),
    )


# ---------------------------------------------------------------------------
# determinism certificate


def _flow_certificate(pattern: MeasurementPattern) -> bool:
    """Whether the pattern is the standard pattern of a causal flow.

    The candidate flow ``f`` is read off the X domains: every measured
    vertex ``i`` must sit in exactly one ``s_domain`` or ``x_corrections``
    set, and the vertex owning that set is ``f(i)``.  It must satisfy
    ``i ~ f(i)`` with ``f(i)`` not an input, and every ``t_domain`` /
    ``z_corrections`` set must equal ``{j : f(j) ~ v, j != v}`` for its
    vertex ``v``.  The flow's order conditions, with the measurement order
    as the flow order and outputs last, then hold already: pattern
    validation puts ``i`` before ``f(i)`` (``i`` is in its s domain) and
    before every other neighbour ``v`` of ``f(i)`` (``i`` is in its t
    domain).  Such a pattern gives the same corrected output on every
    branch (Danos & Kashefi, PRA 74, 052310 (2006)).  Time is linear in the
    pattern size.
    """
    x_sets = [(st.vertex, st.s_domain) for st in pattern.steps]
    x_sets += zip(pattern.outputs, pattern.x_corrections)
    flow: dict[int, int] = {}
    for owner, domain in x_sets:
        for i in domain:
            if i in flow:
                return False
            flow[i] = owner
    if len(flow) != len(pattern.steps):
        return False
    nbrs: dict[int, set[int]] = {v: set() for v in pattern.vertices}
    for u, v in pattern.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    inputs = set(pattern.inputs)
    induced: dict[int, set[int]] = {}
    for i, f in flow.items():
        if f not in nbrs[i] or f in inputs:
            return False
        for v in nbrs[f] - {i}:
            induced.setdefault(v, set()).add(i)
    z_sets = [(st.vertex, st.t_domain) for st in pattern.steps]
    z_sets += zip(pattern.outputs, pattern.z_corrections)
    return all(domain == induced.get(v, set()) for v, domain in z_sets)


# ---------------------------------------------------------------------------
# simulation engine


def _check_run(pattern: MeasurementPattern, s_in: str, readout: ReadoutSpec) -> None:
    if len(s_in) != len(pattern.inputs) or any(ch not in "01" for ch in s_in):
        raise ValueError(
            f"input {s_in!r} does not match the {len(pattern.inputs)} pattern inputs"
        )
    if max(readout.qubits) >= pattern.wires:
        raise ValueError(
            f"readout {readout.qubits} outside the {pattern.wires} pattern wires"
        )


#: A register operation.  An int activates a vertex as the new last axis, in
#: the basis state of that input index, or in |+> for -1; a ``(shape, index)``
#: pair applies a CZ by negating ``vecs.reshape((B,) + shape)[index]``.
_Op = Union[int, tuple[tuple[int, ...], tuple[object, ...]]]


class _Plan:
    """The part of a pattern run that does not depend on outcomes.

    Vertices are activated when first touched, which is valid because CZ
    edges commute with everything acting on other vertices.  Activation
    order and axis positions are therefore structural, and one plan serves
    every branch, input and policy.

    Outcome 1 of step ``i`` applies X to every vertex whose s domain or X
    correction holds the measured vertex, and Z to every vertex whose t
    domain or Z correction does.  These act on the state after every CZ, so
    an X on ``w`` also brings a Z on each ``k`` whose edge ``(w, k)`` is
    still pending (``CZ X_w = X_w Z_k CZ``).  An X on an inactive |+>
    vertex and a Z on an inactive input change only a branch's phase and
    are dropped; a Z on an inactive |+> vertex or an X on an inactive input
    activates that vertex in the step's preparation.  ``xmask[i]`` and
    ``zmask[i]`` are the resulting X and Z targets as bit masks over the
    register after the step.

    A step is *fused* when the measured vertex has a neighbour that is not
    active yet and not an input: that neighbour's |+> preparation and their
    CZ are folded into the measurement (``_run_batch``), so the register is
    never doubled first.  Compiled patterns fuse every step.
    """

    def __init__(self, pattern: MeasurementPattern) -> None:
        steps = pattern.steps
        # exp(-i a) of each step's base angle a
        self.phases = np.exp(-1j * np.array([st.angle for st in steps]))
        # x_on[m] / z_on[m]: the vertices whose X / Z domain holds vertex m
        x_on: dict[int, list[int]] = {}
        z_on: dict[int, list[int]] = {}
        owners = [(st.vertex, st.s_domain, st.t_domain) for st in steps]
        owners += zip(pattern.outputs, pattern.x_corrections, pattern.z_corrections)
        for w, s_set, t_set in owners:
            for on, domain in ((x_on, s_set), (z_on, t_set)):
                for m in domain:
                    on.setdefault(m, []).append(w)
        input_index = {v: j for j, v in enumerate(pattern.inputs)}
        active: list[int] = []
        pending = set(pattern.edges)
        by_vertex: dict[int, list[tuple[int, int]]] = {}
        for edge in pattern.edges:
            by_vertex.setdefault(edge[0], []).append(edge)
            by_vertex.setdefault(edge[1], []).append(edge)

        def activate(v: int, ops: list[_Op]) -> None:
            if len(active) + 1 > MAX_ACTIVE:
                raise BranchLimitError(
                    f"pattern needs more than {MAX_ACTIVE} simultaneously active vertices"
                )
            ops.append(input_index.get(v, -1))
            active.append(v)

        def touch(v: int, ops: list[_Op]) -> None:
            if v not in active:
                activate(v, ops)
            for edge in by_vertex.get(v, ()):
                if edge not in pending:
                    continue
                other = edge[1] if edge[0] == v else edge[0]
                if other not in active:
                    activate(other, ops)
                index: list[object] = [slice(None)] * (len(active) + 1)
                index[1 + active.index(v)] = 1
                index[1 + active.index(other)] = 1
                ops.append(((2,) * len(active), tuple(index)))
                pending.remove(edge)

        def fresh_neighbour(v: int) -> Optional[int]:
            """Claim the edge to a neighbour of ``v`` that a fused step can
            prepare, if there is one."""
            for edge in by_vertex.get(v, ()):
                other = edge[1] if edge[0] == v else edge[0]
                if edge in pending and other not in active and other not in input_index:
                    pending.remove(edge)
                    return other
            return None

        self.prepare: list[list[_Op]] = []
        self.axis: list[int] = []
        self.fused: list[bool] = []
        self.xmask: list[int] = []
        self.zmask: list[int] = []
        for st in steps:
            fresh = fresh_neighbour(st.vertex)
            ops: list[_Op] = []
            touch(st.vertex, ops)
            xs, zs = set(x_on.get(st.vertex, ())), set(z_on.get(st.vertex, ()))
            for w in xs:  # an X passes the CZs still to come as a Z on the far end
                zs ^= {e[1] if e[0] == w else e[0] for e in by_vertex.get(w, ()) if e in pending}
            for targets, needs_input in ((xs, True), (zs, False)):
                for w in sorted(targets - set(active) - {fresh}):
                    if (w in input_index) == needs_input:
                        activate(w, ops)
                    else:
                        targets.discard(w)
            self.prepare.append(ops)
            self.axis.append(active.index(st.vertex))
            active.remove(st.vertex)
            if fresh is not None:
                active.append(fresh)
            self.fused.append(fresh is not None)
            top = len(active) - 1
            self.xmask.append(sum(1 << (top - active.index(w)) for w in xs))
            self.zmask.append(sum(1 << (top - active.index(w)) for w in zs))
        self.finish: list[_Op] = []
        for v in pattern.outputs:
            touch(v, self.finish)
        self.out_axis = [active.index(v) for v in pattern.outputs]


def _apply(vecs: np.ndarray, ops: list[_Op], local: list[np.ndarray]) -> np.ndarray:
    """Run register operations on a ``(B, 2^a)`` batch; ``local[j]`` is the
    one-qubit state an activation with index ``j`` appends."""
    for op in ops:
        if isinstance(op, int):
            vecs = (vecs[:, :, None] * local[op]).reshape(len(vecs), 2 * vecs.shape[1])
        else:
            shape, index = op
            vecs.reshape((len(vecs),) + shape)[index] *= -1.0
    return vecs


def _merge(vecs: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse rows whose states agree up to phase.

    Returns the kept rows' states and their summed weights.  Each round
    compares every unmatched row with the first unmatched row, which gives
    the same result as a greedy first-match merge.  Merging is only an
    optimization: a missed merge keeps extra branches but never changes the
    mixture, so the overlap tolerance is kept tight.
    """
    n = len(weights)
    owner = np.empty(n, dtype=np.intp)
    pending = np.arange(n)
    while pending.size:
        rep = pending[0]
        hit = np.abs(vecs[pending] @ vecs[rep].conj()) >= 1.0 - _MERGE_TOL
        hit[0] = True
        owner[pending[hit]] = rep
        pending = pending[~hit]
    kept = np.flatnonzero(owner == np.arange(n))
    return vecs[kept], np.bincount(owner, weights=weights, minlength=n)[kept]


def _run_batch(
    pattern: MeasurementPattern,
    s_in: str,
    readout: ReadoutSpec,
    draws: Optional[np.ndarray],
    branch_limit: float = math.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the pattern on a batch of branches; the engine behind every policy.

    Row b of the batch is one branch: its state over the active vertices
    (``vecs[b]``, shape ``(B, 2^a)``) and its weight.  Each step is
    measured at its base angle, both projections are taken for all rows at
    once, and the outcome-1 projections get the step's byproducts (see
    ``_Plan``; a fused step has probability 1/2 for either outcome).
    ``draws`` picks the outcomes:

    * ``None`` splits every row into both outcomes and drops rows below
      ``_DROP_TOL``; rows whose states agree up to phase are then merged,
      and more than ``branch_limit`` rows raise BranchLimitError;
    * a ``(B, k)`` array runs B rows from one start, and row b takes
      outcome 1 at step i when ``draws[b, i]`` is at least its probability
      of outcome 0.  An outcome of probability below ``_FORCE_TOL`` is
      unreachable, and the row takes the other one; chosen rows never drop.

    Returns the rows' weights, shape ``(B,)``, and their corrected readout
    marginals, shape ``(B, 2^m)``.
    """
    _check_run(pattern, s_in, readout)
    plan = pattern._plan
    local = [_BASIS[int(ch)] for ch in s_in] + [_PLUS]
    vecs = np.ones((1 if draws is None else len(draws), 1), dtype=complex)
    weights = np.ones(len(vecs))
    for idx in range(len(pattern.steps)):
        vecs = _apply(vecs, plan.prepare[idx], local)
        b = len(vecs)
        psi = vecs.reshape(b, 1 << plan.axis[idx], 2, -1)
        # proj[0] / proj[1]: projections onto |+_a> / |-_a> at the base angle a
        proj = (psi[:, :, 0] + _SIGNS * (plan.phases[idx] * psi[:, :, 1])) / _SQRT2
        fused = plan.fused[idx]
        if fused:
            # A fresh |+> neighbour w of the measured vertex enters as the
            # new last axis with their CZ folded in: outcome o leaves
            # proj[o] on w = 0 and proj[1 - o] on w = 1, each with
            # probability 1/2 and already normalized.
            post = np.empty(proj.shape + (2,), dtype=complex)
            post[..., 0] = proj
            post[..., 1] = proj[::-1]
            post = post.reshape(2, b, -1)
            p = np.full((2, b), 0.5)
        else:
            post = proj.reshape(2, b, -1)
            flat = post.view(np.float64)
            p = np.einsum("oij,oij->oi", flat, flat)
        x, z = plan.xmask[idx], plan.zmask[idx]
        if x or z:  # outcome 1's byproducts: X as a gather, Z as a sign vector
            index = np.arange(post.shape[2])
            parity = index & z
            for shift in (16, 8, 4, 2, 1):  # parity of up to 32 bits (MAX_ACTIVE)
                parity ^= parity >> shift
            post[1] = post[1][:, index ^ x] * (1.0 - 2.0 * (parity & 1))
        if draws is None:
            vecs, p = post.reshape(2 * b, -1), p.reshape(-1)
            weights = np.concatenate((weights, weights))
            if not fused:
                keep = p >= _DROP_TOL
                if not keep.all():
                    vecs, p, weights = vecs[keep], p[keep], weights[keep]
        else:
            one = draws[:, idx] >= p[0]
            if not fused:
                one ^= np.where(one, p[1], p[0]) < _FORCE_TOL
            vecs, p = np.where(one[:, None], post[1], post[0]), np.where(one, p[1], p[0])
        if not fused:
            vecs = vecs / np.sqrt(p)[:, None]
        weights = weights * p
        if draws is None:
            vecs, weights = _merge(vecs, weights)
            if len(weights) > branch_limit:
                raise BranchLimitError(
                    f"{len(weights)} branches exceed the limit of {branch_limit}"
                )
    vecs = _apply(vecs, plan.finish, local)
    axes = tuple(plan.out_axis[q] for q in readout.qubits)
    return weights, marginal_probabilities(vecs.real**2 + vecs.imag**2, len(plan.out_axis), axes)


def simulate_pattern(
    pattern: MeasurementPattern,
    s_in: str,
    readout: Optional[ReadoutSpec] = None,
    *,
    policy: str = "enumerate-all",
    seed: int = 0,
    branch_limit: int = 1 << 20,
) -> Distribution:
    """Readout distribution of a pattern run on basis input ``s_in``.

    ``"enumerate-all"`` returns the exact mixture over measurement branches.
    It splits every branch at every measurement, applies each outcome's
    byproducts to its branch state, drops branches of probability below
    ``_DROP_TOL``, and merges branches whose states agree up to phase.  A
    compiled pattern keeps one live branch; more than ``branch_limit`` (an
    integer, at least 1) live branches raise BranchLimitError.
    ``"seeded-random"`` follows one branch at the cost of a single run: at
    each step it draws ``u`` from ``numpy.random.default_rng(seed)`` and
    takes outcome 1 when ``u`` is at least the probability of outcome 0,
    except that an outcome of probability below ``_FORCE_TOL`` is never
    taken.  It equals the mixture whenever the pattern is deterministic,
    which compiled patterns are (see ``branch_determinism_check``).
    ``readout`` defaults to all wires in order.
    """
    _check_integer(branch_limit, "branch_limit")
    _check_integer(seed, "seed")
    if branch_limit < 1:
        raise ValueError(f"branch_limit = {branch_limit} must be at least 1")
    if readout is None:
        readout = ReadoutSpec(tuple(range(pattern.wires)))
    if policy == "enumerate-all":
        weights, marg = _run_batch(pattern, s_in, readout, None, branch_limit)
        return Distribution.from_probabilities(weights @ marg)
    if policy == "seeded-random":
        draws = np.random.default_rng(seed).random((1, len(pattern.steps)))
        _, marg = _run_batch(pattern, s_in, readout, draws)
        return Distribution.from_probabilities(marg[0])
    raise ValueError(f"unknown policy {policy!r}")


#: Forced assignments the exhaustive check simulates as one batch; bounds
#: the batch's memory when 2^k is large.
_FORCED_BATCH = 1 << 10


def branch_determinism_check(
    pattern: MeasurementPattern,
    s_in: str,
    readout: Optional[ReadoutSpec] = None,
    *,
    mode: str = "auto",
    samples: int = 32,
    seed: int = 0,
    tol: float = 1e-10,
    exhaustive_limit: int = 1 << 20,
) -> bool:
    """Whether every measurement branch yields the same corrected readout.

    ``mode="auto"`` returns True at once when the pattern carries a causal
    flow certificate (its domains are exactly those a causal flow induces,
    which holds for every compiled pattern, and proves determinism); other
    patterns get the exhaustive check.  ``"exhaustive"`` simulates all 2^k
    forced outcome assignments of the k measured vertices, refusing above
    ``exhaustive_limit`` (an integer; also when ``"auto"`` falls back to
    it); ``"sampled"`` simulates ``samples`` (an integer, at least 1)
    seeded random assignments.  A forced outcome of probability below
    ``_FORCE_TOL`` is unreachable, and its branch follows the reachable
    outcome instead.  Every branch must agree with the first within total
    variation distance ``tol`` (finite, at least 0).
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_integer(samples, "samples")
    _check_integer(seed, "seed")
    _check_integer(exhaustive_limit, "exhaustive_limit")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"samples = {samples} must be at least 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol = {tol} must be finite and at least 0")
    if readout is None:
        readout = ReadoutSpec(tuple(range(pattern.wires)))
    _check_run(pattern, s_in, readout)
    if mode == "auto" and _flow_certificate(pattern):
        return True
    k = len(pattern.steps)
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        batches = [np.unique(rng.integers(0, 2, size=(samples, k)), axis=0)]
    elif (1 << k) > exhaustive_limit:
        raise BranchLimitError(
            f"2**{k} assignments exceed the exhaustive limit {exhaustive_limit}"
        )
    else:
        bit = np.arange(k)
        batches = (
            (np.arange(lo, min(lo + _FORCED_BATCH, 1 << k))[:, None] >> bit) & 1
            for lo in range(0, 1 << k, _FORCED_BATCH)
        )
    margs = (_run_batch(pattern, s_in, readout, forced)[1] for forced in batches)
    dists = (Distribution.from_probabilities(row) for marg in margs for row in marg)
    reference = next(dists)  # chosen rows never drop, so there is a first
    return all(total_variation_distance(reference, dist) <= tol for dist in dists)


# ---------------------------------------------------------------------------
# serialization

_FORMAT_TAG = "oneway-pattern/1"


def pattern_to_json(pattern: MeasurementPattern) -> str:
    """Canonical JSON form (sorted vertices/edges, steps in order)."""
    doc = {
        "format": _FORMAT_TAG,
        "vertices": sorted(pattern.vertices),
        "edges": sorted(list(e) for e in pattern.edges),
        "inputs": list(pattern.inputs),
        "outputs": list(pattern.outputs),
        "steps": [
            {
                "vertex": st.vertex,
                "angle": st.angle,
                "s": sorted(st.s_domain),
                "t": sorted(st.t_domain),
            }
            for st in pattern.steps
        ],
        "corrections": [
            {"output": out, "x": sorted(xs), "z": sorted(zs)}
            for out, xs, zs in zip(
                pattern.outputs, pattern.x_corrections, pattern.z_corrections
            )
        ],
    }
    return json.dumps(doc, sort_keys=True)


def _json_int(value: object) -> int:
    # bool is a subclass of int, so ``false`` would pass a plain isinstance.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def _json_ints(values: object) -> list[int]:
    if not isinstance(values, list):
        raise ValueError(f"expected a JSON list of integers, got {values!r}")
    return [_json_int(v) for v in values]


def _json_angle(value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"expected a JSON number for an angle, got {value!r}")
    return float(value)


def _json_edge(value: object) -> tuple[int, int]:
    pair = _json_ints(value)
    if len(pair) != 2:
        raise ValueError(f"an edge is a pair of vertices, got {value!r}")
    return pair[0], pair[1]


def pattern_from_json(text: str) -> MeasurementPattern:
    """Inverse of ``pattern_to_json``; revalidates everything.

    Vertices, edge ends, domain entries and correction outputs must be JSON
    integers and angles JSON numbers; booleans and strings are rejected
    rather than coerced.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_TAG:
        raise ValueError(f"missing or unknown format tag (expected {_FORMAT_TAG!r})")
    try:
        steps = tuple(
            MeasureStep(
                vertex=_json_int(st["vertex"]),
                angle=_json_angle(st["angle"]),
                s_domain=frozenset(_json_ints(st["s"])),
                t_domain=frozenset(_json_ints(st["t"])),
            )
            for st in doc["steps"]
        )
        corr = doc["corrections"]
        outputs = tuple(_json_ints(doc["outputs"]))
        by_output = {_json_int(c["output"]): c for c in corr}
        if len(by_output) != len(corr) or set(by_output) != set(outputs):
            raise ValueError("corrections must cover each output exactly once")
        return MeasurementPattern(
            vertices=frozenset(_json_ints(doc["vertices"])),
            edges=frozenset(_json_edge(e) for e in doc["edges"]),
            inputs=tuple(_json_ints(doc["inputs"])),
            outputs=outputs,
            steps=steps,
            x_corrections=tuple(
                frozenset(_json_ints(by_output[o]["x"])) for o in outputs
            ),
            z_corrections=tuple(
                frozenset(_json_ints(by_output[o]["z"])) for o in outputs
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed pattern document: {exc!r}") from None
