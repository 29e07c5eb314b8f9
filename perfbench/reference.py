"""Benchmark-owned numpy references used to check every job's output.

Nothing here calls qpc: gates come from the generated gate lists, not from
the parsed program, and marginals are built by binning basis indices rather
than by summing tensor axes as the engine does.
"""

from __future__ import annotations

import math

import numpy as np

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def rotation(k: tuple[int, int, int], m: int) -> np.ndarray:
    """exp(-i theta . sigma) with theta_a = 2 pi k_a / 2^m."""
    theta = np.array(k, dtype=float) * (2.0 * math.pi / (1 << m))
    r = float(np.linalg.norm(theta))
    if r == 0.0:
        return np.eye(2, dtype=complex)
    axis = sum(t / r * p for t, p in zip(theta, _PAULI))
    return math.cos(r) * np.eye(2, dtype=complex) - 1j * math.sin(r) * axis


def statevector(gates, n: int, s_in: str) -> np.ndarray:
    """Final amplitudes of a generated gate list on |s_in>; qubit 0 is the MSB."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[int(s_in, 2)] = 1.0
    for g in gates:
        if g[0] == "R":
            _, q, k, m = g
            u = rotation(k, m)
            view = psi.reshape(1 << q, 2, 1 << (n - 1 - q))
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
            view[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1
        else:
            lo, hi = sorted(g[1:])
            view = psi.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - 1 - hi))
            view[:, 1, :, 1, :] *= -1.0
    return psi


def marginal(psi: np.ndarray, n: int, qubits) -> np.ndarray:
    """Readout probabilities over ``qubits`` (first listed = leftmost bit)."""
    idx = np.arange(1 << n, dtype=np.int64)
    key = np.zeros(1 << n, dtype=np.int64)
    m = len(qubits)
    for j, q in enumerate(qubits):
        key |= ((idx >> (n - 1 - q)) & 1) << (m - 1 - j)
    return np.bincount(key, weights=np.abs(psi) ** 2, minlength=1 << m)


def entries_to_array(entries, m: int) -> np.ndarray:
    """Dense probability array from a ``{bitstring: p}`` map of width ``m``."""
    out = np.zeros(1 << m)
    for key, p in entries.items():
        if len(key) != m:
            raise ValueError(f"outcome {key!r} does not have width {m}")
        out[int(key, 2)] = p
    return out


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(p - q)))


def multinomial_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The draw ``qpc.sample`` documents: multinomial over sorted outcomes, seeded."""
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def payload_state(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)])


def transported(payload: np.ndarray, length: int, site: int) -> np.ndarray:
    """Chain state with ``payload`` on ``site`` and |0> on every other cell."""
    psi = np.zeros(1 << length, dtype=complex)
    bit = 1 << (length - 1 - site)
    psi[0] = payload[0]
    psi[bit] = payload[1]
    return psi


def anneal_overlap(n: int, lams: np.ndarray, dt: float) -> tuple[float, float]:
    """(|<s|psi(T)>|^2, norm) of the midpoint walk inside span{|s>, |s_perp>}.

    Builds the 2x2 restriction of H(lam) = (1-lam)(1-|psi0><psi0|) +
    lam(1-|s><s|) and exponentiates each midpoint block by eigendecomposition.
    """
    c = 2.0 ** (-n / 2.0)
    q = math.sqrt(1.0 - c * c)
    psi0 = np.array([c, q])
    s = np.array([1.0, 0.0])
    psi = psi0.astype(complex)
    for lam in lams:
        h = (1.0 - lam) * (np.eye(2) - np.outer(psi0, psi0)) + lam * (np.eye(2) - np.outer(s, s))
        evals, vecs = np.linalg.eigh(h)
        psi = vecs @ (np.exp(-1j * evals * dt) * (vecs.T @ psi))
    return float(abs(psi[0]) ** 2), float(np.linalg.norm(psi))
