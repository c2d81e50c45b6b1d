"""Dense statevector simulation for equivalence checking at desk scale.

A state on n qubits is a vector of 2**n amplitudes with qubit 0 as the high
bit of the index; a batch of B states is the C-contiguous (2**n, B) matrix
holding them as columns.  A one-qubit gate is one matrix product over a
reshaped view of the batch, and `cx` and `swap` permute its rows, so each
gate costs one numpy call whatever the batch width.
"""
from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit
from .qasm import eval_param

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ],
        dtype=complex,
    )


def gate_matrix(name: str, params: tuple[str, ...]) -> np.ndarray:
    """The 2x2 matrix of a one-qubit gate (`cx` and `swap` are row permutations)."""
    if name in _FIXED_1Q:
        return _FIXED_1Q[name]
    vals = [eval_param(p) for p in params]
    if name == "rx":
        return _u3(vals[0], -math.pi / 2, math.pi / 2)
    if name == "ry":
        return _u3(vals[0], 0.0, 0.0)
    if name == "rz":
        return np.array(
            [[np.exp(-1j * vals[0] / 2), 0], [0, np.exp(1j * vals[0] / 2)]], dtype=complex
        )
    if name == "u1":
        return np.array([[1, 0], [0, np.exp(1j * vals[0])]], dtype=complex)
    if name == "u2":
        return _u3(math.pi / 2, vals[0], vals[1])
    if name == "u3":
        return _u3(vals[0], vals[1], vals[2])
    raise ValueError(f"no matrix for gate '{name}'")


def _permutation(name: str, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Row order that applies `cx` or `swap` on n qubits: new[i] = old[perm[i]]."""
    a, b = (n - 1 - q for q in qubits)  # bit positions, qubit 0 the high bit
    idx = np.arange(1 << n)
    if name == "cx":
        return idx ^ (((idx >> a) & 1) << b)
    if name == "swap":
        differ = ((idx >> a) ^ (idx >> b)) & 1
        return idx ^ ((differ << a) | (differ << b))
    raise ValueError(f"no row permutation for gate '{name}'")


def simulate(circuit: Circuit, batch: np.ndarray) -> np.ndarray:
    """Run the circuit on a (2**n, B) batch whose columns are states and
    return the batch of outputs; measures and barriers are skipped."""
    n = circuit.num_qubits
    batch = np.ascontiguousarray(batch, dtype=complex)
    perms: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
    for g in circuit.gates:
        if g.name in ("measure", "barrier"):
            continue
        if len(g.qubits) == 1:
            q = g.qubits[0]
            shape = batch.shape
            batch = np.matmul(gate_matrix(g.name, g.params),
                              batch.reshape(1 << q, 2, -1)).reshape(shape)
        else:
            key = (g.name, g.qubits)
            perm = perms.get(key)
            if perm is None:
                perm = perms[key] = _permutation(g.name, g.qubits, n)
            batch = batch[perm]
    return batch
