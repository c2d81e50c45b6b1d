"""Circuit IR: gates, circuits, CNOT slices, and gate-count/depth metrics.

The circuit is a flat, ordered gate list over logical qubits.  Everything is
immutable after construction so circuits can be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass

UNARY_GATES = frozenset(
    {"x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1", "u2", "u3"}
)
BINARY_GATES = frozenset({"cx", "swap"})
SUPPORTED_GATES = UNARY_GATES | BINARY_GATES | {"measure", "barrier"}

# Number of angle parameters each parametric gate takes.
GATE_PARAM_COUNTS = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3}


class CircuitError(ValueError):
    """Invalid gate usage; `gate` is the failing gate's index."""

    def __init__(self, message: str, gate: int):
        super().__init__(message)
        self.gate = gate


@dataclass(frozen=True)
class Gate:
    """One gate application.

    params holds the angle expressions as source text (round-trip fidelity),
    cbits holds classical targets for measure gates.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[str, ...] = ()
    cbits: tuple[tuple[str, int], ...] = ()
    index: int = -1

    def is_unary(self) -> bool:
        return self.name in UNARY_GATES

    def is_binary(self) -> bool:
        return self.name in BINARY_GATES


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    name: str = "circuit"
    qreg_name: str = "q"
    cregs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        measured: set[int] = set()
        for i, g in enumerate(self.gates):
            def fail(problem: str):
                raise CircuitError(f"gate {i} ({g.name}) {problem}", i)

            if g.index != i:
                fail(f"has index {g.index}")
            if g.name not in SUPPORTED_GATES:
                fail("is not supported")
            if len(set(g.qubits)) != len(g.qubits):
                fail("has a repeated qubit")
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                fail("addresses qubit out of range")
            if g.name in UNARY_GATES and len(g.qubits) != 1:
                fail("must act on 1 qubit")
            if g.name in BINARY_GATES and len(g.qubits) != 2:
                fail("must act on 2 qubits")
            expected = GATE_PARAM_COUNTS.get(g.name, 0)
            if len(g.params) != expected:
                fail(f"takes {expected} parameter(s), got {len(g.params)}")
            if g.name == "measure":
                measured.update(g.qubits)
            elif g.name != "barrier" and measured.intersection(g.qubits):
                # Final-mapping relabeling assumes end-of-circuit readout.
                fail("follows a measure on its qubit")

    def count(self, name: str) -> int:
        return sum(1 for g in self.gates if g.name == name)

    @property
    def cx_count(self) -> int:
        return self.count("cx")

    @property
    def cnot_equivalent(self) -> int:
        """CNOT-equivalent count: each swap gate stands for 3 CNOTs."""
        return self.cx_count + 3 * self.count("swap")


@dataclass(frozen=True)
class CnotSlice:
    """The 2-qubit gates of a circuit, in order, with unary gates stripped.

    Input swap gates participate: they need connectivity like a cx.  Entry i is
    (control, data, original gate index); cnot ids are 0..m-1.
    """

    cnots: tuple[tuple[int, int, int], ...]
    names: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.cnots)

    def pair(self, i: int) -> tuple[int, int]:
        c, d, _src = self.cnots[i]
        return (c, d)

    def is_cx(self, i: int) -> bool:
        return self.names[i] == "cx"

    def logical_pairs(self) -> list[tuple[int, int]]:
        """Unordered logical pairs occurring in some slice entry, sorted."""
        return sorted({tuple(sorted((c, d))) for c, d, _ in self.cnots})


def extract_cnot_slice(circuit: Circuit) -> CnotSlice:
    cnots = []
    names = []
    for g in circuit.gates:
        if g.is_binary():
            cnots.append((g.qubits[0], g.qubits[1], g.index))
            names.append(g.name)
    return CnotSlice(tuple(cnots), tuple(names))


def circuit_depth(circuit: Circuit) -> int:
    """Longest chain of qubit-sharing gates; barriers fence at zero cost."""
    front = [0] * circuit.num_qubits
    for g in circuit.gates:
        qubits = g.qubits if g.qubits else tuple(range(circuit.num_qubits))
        if g.name == "barrier":
            d = max((front[q] for q in qubits), default=0)
            for q in qubits:
                front[q] = d
        else:
            d = max(front[q] for q in qubits) + 1
            for q in qubits:
                front[q] = d
    return max(front, default=0)
