"""Gate-order invariants of both dependency DAGs on seeded random circuits."""
import random

import pytest

from swapsat.circuit import Circuit, Gate, extract_cnot_slice
from swapsat.coupling import linear_graph
from swapsat.encoder import EncodeOptions
from swapsat.synthesis import build_dag, synthesize

UNARY = ["x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1", "u2", "u3"]
ANGLES = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3}


def random_circuit(rng: random.Random, n: int, length: int) -> Circuit:
    """Unary gates, barriers, CNOTs and input swaps, then maybe measures."""
    gates = []
    for _ in range(length):
        r = rng.random()
        if r < 0.45:
            gates.append(Gate("swap" if rng.random() < 0.1 else "cx",
                              tuple(rng.sample(range(n), 2))))
        elif r < 0.55:
            gates.append(Gate("barrier", tuple(sorted(rng.sample(range(n), rng.randint(1, n))))))
        else:
            name = rng.choice(UNARY)
            gates.append(Gate(name, (rng.randrange(n),), ("0.5",) * ANGLES.get(name, 0)))
    cregs = ()
    if rng.random() < 0.5:
        cregs = (("c", n),)
        gates += [Gate("measure", (q,), cbits=(("c", q),))
                  for q in rng.sample(range(n), rng.randint(1, n))]
    return Circuit(n, tuple(Gate(g.name, g.qubits, g.params, g.cbits, i)
                            for i, g in enumerate(gates)), cregs=cregs)


def role(gate: Gate, q: int) -> str | None:
    """How a gate acts on qubit q: 'z', 'x', or None when it commutes with nothing."""
    if gate.name == "cx":
        return "z" if gate.qubits[0] == q else "x"
    if gate.name in ("z", "s", "sdg", "t", "tdg", "rz", "u1"):
        return "z"
    if gate.name in ("x", "rx"):
        return "x"
    return None


def brute_force_relaxed(circuit: Circuit) -> list[set[int]]:
    """Immediate successors between cnot ids: gate a obstructs a later gate b
    when on some shared qubit they do not both act Z-like or both X-like;
    cnot i precedes j when a chain of obstructions leads from i to j."""
    gates = circuit.gates
    obstructs = {(a.index, b.index) for a in gates for b in gates if a.index < b.index
                 and any(role(a, q) is None or role(a, q) != role(b, q)
                         for q in set(a.qubits) & set(b.qubits))}
    reach = set(obstructs)
    for k in range(len(gates)):
        reach |= {(a, b) for (a, k1) in reach if k1 == k for (k2, b) in reach if k2 == k}
    src = [g.index for g in gates if g.is_binary()]
    before = {(i, j) for i, a in enumerate(src) for j, b in enumerate(src) if (a, b) in reach}
    return [{j for j in range(len(src)) if (i, j) in before
             and not any((i, k) in before and (k, j) in before for k in range(len(src)))}
            for i in range(len(src))]


@pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
def test_gate_order_invariants_on_random_circuits(relaxed):
    rng = random.Random(14)
    for trial in range(150):
        n = rng.randint(2, 4)
        circuit = random_circuit(rng, n, rng.randint(0, 20))
        dag = build_dag(extract_cnot_slice(circuit), circuit, relaxed)
        assert all(i < j for i in range(len(dag)) for j in dag.suc[i])
        assert all(i in dag.suc[j] for i in range(len(dag)) for j in dag.pre[i])
        if relaxed:
            assert [set(s) for s in dag.suc] == brute_force_relaxed(circuit)
        if trial % 3 == 0 and 1 <= len(dag) <= 6:
            plan = synthesize(circuit, linear_graph(n), EncodeOptions(relaxed=relaxed)).plan
            assert all(list(s.cnots) == sorted(s.cnots) for s in plan.steps)
