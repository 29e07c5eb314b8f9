"""Dense reference for global-control scripts, for the tests only.

This is the per-instruction code that ran every script on the whole 2**L
vector before chains held frames: a pulse copies the state and runs the
in-place kernel on every matching cell or pair; a bulk measurement bins
the marginal over the species' cells by Hamming weight, draws once and
collapses a copy; cooling is ``statevec.measure_and_flip``.  Each step ends
in ``PureState._adopt``, so its norm is checked as before.  It shares the
script parser, the pair list and the kernels with ``qpc.global_control``,
and nothing else.
"""

import math

import numpy as np

from qpc.global_control import SpeciesPulse, _parse_script, adjacent_pairs
from qpc.statevec import PureState, _apply_in_place, marginal_probabilities, measure_and_flip


def pulse(chain, state, operation):
    """The state after one species or pair pulse on every target."""
    if isinstance(operation, SpeciesPulse):
        targets = [(c,) for c in chain.cells_of(operation.species)]
    else:
        targets = adjacent_pairs(chain, operation.first, operation.second)
    vec = np.array(state.amplitudes)
    for qubits in targets:
        _apply_in_place(vec, state.n, qubits, operation.matrix)
    return PureState._adopt(state.n, vec)


def weight_probabilities(state, cells):
    """Hamming weight of each configuration of ``cells`` and the
    probability of each weight, 0 to len(cells)."""
    configs = np.arange(1 << len(cells))
    config_weight = np.zeros(len(configs), dtype=np.int64)
    for j in range(len(cells)):
        config_weight += (configs >> j) & 1
    marginal = marginal_probabilities(state.probabilities(), state.n, cells)
    return config_weight, np.bincount(config_weight, weights=marginal, minlength=len(cells) + 1)


def bulk_measure(state, cells, rng):
    """(weight, collapsed state) of one bulk measurement of ``cells``."""
    config_weight, w_probs = weight_probabilities(state, cells)
    draw = np.clip(w_probs, 0.0, None)
    w = int(rng.choice(len(w_probs), p=draw / draw.sum()))
    scale = np.where(config_weight == w, 1.0 / math.sqrt(w_probs[w]), 0.0)
    vec = np.array(state.amplitudes)
    tensor = vec.reshape((2,) * state.n)
    tensor *= scale.reshape([2 if c in cells else 1 for c in range(state.n)])
    return w, PureState._adopt(state.n, vec)


def run_script(chain, text, seed=0):
    """(final dense state, events) of a script, one generator for all draws."""
    script = _parse_script(chain, text)
    rng = np.random.default_rng(seed)
    state = chain.state
    for operation, event in script:
        if event["op"] == "measure":
            event["weight"], state = bulk_measure(state, chain.cells_of(operation), rng)
        elif event["op"] == "cool":
            state = measure_and_flip(state, chain.cells_of(operation), rng)
        else:
            state = pulse(chain, state, operation)
    return state, [event for _, event in script]
