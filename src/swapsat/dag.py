"""Strict and relaxed dependency DAGs over the CNOT slice.

`gate_successors` is the one statement of which gates must keep their
order.  The strict rule keeps every gate after the previous gate on each of
its qubits; a barrier is a gate on every qubit it spans, so it fences them.
The relaxed rule drops orderings that gate commutation allows to be
swapped: CNOTs sharing their control or their data qubit commute, Z-like
unary gates commute through a control, X-like unary gates commute through a
data qubit.  Both DAGs, and where `reconstruct` places unary gates, derive
from it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, CnotSlice

# Role of a gate on one of its qubits, for commutation purposes.
_Z_LIKE = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "u1"})
_X_LIKE = frozenset({"x", "rx"})


@dataclass(frozen=True)
class DepDag:
    """Dependency edges over cnot ids: pre[i] go before i, suc[i] after it.

    Every edge runs from a lower to a higher id, so id order is a
    topological order of the DAG and of any subset of its nodes.  The
    relaxed DAG holds immediate edges only; the strict one links each CNOT
    to the nearest earlier CNOTs on its qubits, which can include an edge
    that others imply.
    """

    pre: tuple[frozenset[int], ...]
    suc: tuple[frozenset[int], ...]

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


def gate_successors(circuit: Circuit, relaxed: bool) -> list[set[int]]:
    """For each gate index, the later gates that must stay after it.

    Strict: the next gate on each of its qubits.  Relaxed: every later gate
    on a shared qubit, unless both act Z-like there or both act X-like.
    """
    suc: list[set[int]] = [set() for _ in circuit.gates]
    on_qubit: list[list[tuple[int, str]]] = [[] for _ in range(circuit.num_qubits)]
    for g in circuit.gates:
        for pos, q in enumerate(g.qubits):
            role = _role(g.name, pos)
            for earlier, other in on_qubit[q] if relaxed else on_qubit[q][-1:]:
                if not relaxed or role != other or role == "block":
                    suc[earlier].add(g.index)
            on_qubit[q].append((g.index, role))
    return suc


def slice_successors(slice_: CnotSlice, circuit: Circuit, relaxed: bool) -> list[set[int]]:
    """For each gate index, the cnot ids that must stay after it: the nearest
    ones along `gate_successors`, found through non-slice gates (strict), or
    every one it reaches (relaxed)."""
    id_of = {src: i for i, (_c, _d, src) in enumerate(slice_.cnots)}
    suc = gate_successors(circuit, relaxed)
    after: list[set[int]] = [set() for _ in suc]
    for g in reversed(range(len(suc))):
        for s in suc[g]:
            if s in id_of:
                after[g].add(id_of[s])
            if s not in id_of or relaxed:
                after[g] |= after[s]
    return after


def _dag(suc: list[set[int]]) -> DepDag:
    pre: list[set[int]] = [set() for _ in suc]
    for i, later in enumerate(suc):
        for j in later:
            pre[j].add(i)
    return DepDag(tuple(frozenset(s) for s in pre), tuple(frozenset(s) for s in suc))


def build_dependency_dag(slice_: CnotSlice, circuit: Circuit) -> DepDag:
    """Strict DAG: each slice gate's nearest later slice gates on its qubits,
    through unary gates, measures and barriers."""
    after = slice_successors(slice_, circuit, relaxed=False)
    return _dag([after[src] for (_c, _d, src) in slice_.cnots])


def build_relaxed_dag(slice_: CnotSlice, circuit: Circuit) -> DepDag:
    """Relaxed DAG: a slice gate depends on another iff an obstruction path
    connects them; only immediate edges are kept."""
    after = slice_successors(slice_, circuit, relaxed=True)
    reach = [after[src] for (_c, _d, src) in slice_.cnots]
    suc: list[set[int]] = []
    for later in reach:
        # ascending ids: each j reached through another reached k has k < j
        immediate: set[int] = set()
        covered: set[int] = set()
        for j in sorted(later):
            if j not in covered:
                immediate.add(j)
                covered |= reach[j]
        suc.append(immediate)
    return _dag(suc)
