"""Strict and relaxed dependency DAGs over the CNOT slice.

The strict DAG orders qubit-sharing 2-qubit gates by source position.  The
relaxed DAG drops orderings that gate commutation rules allow to be swapped:
CNOTs sharing their control or their data qubit commute, Z-like unary gates
commute through a control, X-like unary gates commute through a data qubit.
Barriers fence everything on their qubits in both DAGs.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, CnotSlice, extract_cnot_slice

# Role of a gate on one of its qubits, for commutation purposes.
_Z_LIKE = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "u1"})
_X_LIKE = frozenset({"x", "rx"})


@dataclass(frozen=True)
class DepDag:
    """Immediate predecessor/successor relation over cnot ids."""

    pre: tuple[frozenset[int], ...]
    suc: tuple[frozenset[int], ...]
    kind: str  # "strict" | "relaxed"

    def __len__(self) -> int:
        return len(self.pre)

    def closure(self) -> list[set[int]]:
        """Transitive closure: reach[i] = all cnots reachable from i."""
        n = len(self.pre)
        reach: list[set[int]] = [set() for _ in range(n)]
        for i in reversed(range(n)):
            for j in self.suc[i]:
                reach[i].add(j)
                reach[i] |= reach[j]
        return reach


def _immediate_from_edges(n: int, edges: set[tuple[int, int]]):
    """Reduce an edge set to immediate edges (transitive reduction)."""
    suc_full: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        suc_full[i].add(j)
    reach: list[set[int]] = [set() for _ in range(n)]
    for i in reversed(range(n)):
        for j in sorted(suc_full[i]):
            reach[i].add(j)
            reach[i] |= reach[j]
    pre: list[set[int]] = [set() for _ in range(n)]
    suc: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in suc_full[i]:
            # j is immediate unless reachable through another successor
            if not any(j in reach[k] for k in suc_full[i] if k != j):
                suc[i].add(j)
                pre[j].add(i)
    return pre, suc


def build_dependency_dag(slice_: CnotSlice, circuit: Circuit) -> DepDag:
    """Strict DAG: immediate edges between qubit-sharing slice gates of the
    circuit, with its barriers acting as ordering fences between them."""
    n = len(slice_)
    pre: list[set[int]] = [set() for _ in range(n)]
    suc: list[set[int]] = [set() for _ in range(n)]
    by_src = {src: i for i, (_c, _d, src) in enumerate(slice_.cnots)}
    # frontier[q]: cnot ids the next gate on q must depend on
    frontier: dict[int, set[int]] = {q: set() for q in range(circuit.num_qubits)}
    for g in circuit.gates:
        if g.index in by_src:
            i = by_src[g.index]
            for q in g.qubits:
                for p in frontier[q]:
                    if p != i:
                        pre[i].add(p)
                        suc[p].add(i)
                frontier[q] = {i}
        elif g.name == "barrier":
            fenced = set()
            for q in g.qubits:
                fenced |= frontier[q]
            for q in g.qubits:
                frontier[q] = set(fenced)
    return DepDag(tuple(frozenset(s) for s in pre), tuple(frozenset(s) for s in suc), "strict")


def _role(gate_name: str, qubit_pos: int) -> str:
    """Commutation role of a gate on one of its qubits: 'z', 'x' or 'block'."""
    if gate_name == "cx":
        return "z" if qubit_pos == 0 else "x"
    if gate_name in _Z_LIKE:
        return "z"
    if gate_name in _X_LIKE:
        return "x"
    # h/y/u2/u3/swap/measure/barrier obstruct everything on their qubits
    return "block"


def obstruction_successors(circuit: Circuit) -> list[set[int]]:
    """Direct obstruction edges between gate indices: a later gate on a shared
    qubit obstructs unless both act Z-like or both act X-like there."""
    suc_g: list[set[int]] = [set() for _ in range(len(circuit.gates))]
    on_qubit: dict[int, list[tuple[int, str]]] = {q: [] for q in range(circuit.num_qubits)}
    for g in circuit.gates:
        for pos, q in enumerate(g.qubits):
            on_qubit[q].append((g.index, _role(g.name, pos)))
    for seq in on_qubit.values():
        for a in range(len(seq)):
            gi, ri = seq[a]
            for b in range(a + 1, len(seq)):
                gj, rj = seq[b]
                if ri == "block" or rj == "block" or ri != rj:
                    suc_g[gi].add(gj)
    return suc_g


def build_relaxed_dag(circuit: Circuit) -> DepDag:
    """Relaxed DAG computed on the full circuit, before unary-gate removal.

    Two gates sharing a qubit obstruct each other there unless both act
    Z-like or both act X-like on it.  A dependency between two slice gates
    exists iff some obstruction path connects them; the result keeps only
    immediate edges.
    """
    slice_ = extract_cnot_slice(circuit)
    ng = len(circuit.gates)
    suc_g = obstruction_successors(circuit)
    # gate-level reachability
    reach: list[set[int]] = [set() for _ in range(ng)]
    for gi in reversed(range(ng)):
        for gj in suc_g[gi]:
            reach[gi].add(gj)
            reach[gi] |= reach[gj]
    # restrict to slice gates
    src_of = [src for (_c, _d, src) in slice_.cnots]
    id_of = {src: i for i, src in enumerate(src_of)}
    edges = set()
    for i, src in enumerate(src_of):
        for tgt in reach[src]:
            if tgt in id_of:
                edges.add((i, id_of[tgt]))
    pre, suc = _immediate_from_edges(len(slice_), edges)
    return DepDag(tuple(frozenset(s) for s in pre), tuple(frozenset(s) for s in suc), "relaxed")
