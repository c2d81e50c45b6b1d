"""Independent checks: structural replay, unitary equivalence, and a
brute-force BFS oracle for the minimal SWAP/bridge count."""
from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from .circuit import Circuit, extract_cnot_slice
from .coupling import CouplingGraph, distance2_pairs
from .encoder import EncodeOptions
from .simulator import simulate
from .synthesis import Bridge, Plan, Swap, _apply_swap, build_dag

# basis states simulated at once: 1 MB per complex array at 2**10 rows
_BLOCK = 64


@dataclass(frozen=True)
class VerifyReport:
    connectivity_ok: bool
    dependency_ok: bool
    mapping_consistent: bool
    gate_counts_ok: bool
    first_violation: str | None = None

    def passes(self) -> bool:
        return (self.connectivity_ok and self.dependency_ok
                and self.mapping_consistent and self.gate_counts_ok)


def check_structural(original: Circuit, mapped: Circuit, coupling: CouplingGraph,
                     plan: Plan, relaxed: bool = False) -> VerifyReport:
    violations: dict[str, str] = {}

    def fail(kind: str, msg: str) -> None:
        violations.setdefault(kind, msg)

    # (a) connectivity of every 2-qubit gate
    for g in mapped.gates:
        if g.is_binary() and not coupling.connected(*g.qubits):
            fail("connectivity", f"gate {g.index} ({g.name}) on non-edge {g.qubits}")

    # (c) emission order is a linear extension of the dependency DAG
    slice_ = extract_cnot_slice(original)
    dag = build_dag(slice_, original, relaxed)
    emission = [i for s in plan.steps for i in s.cnots]
    if sorted(emission) != list(range(len(slice_))):
        fail("dependency", "plan does not schedule each CNOT exactly once")
    else:
        pos = {cid: k for k, cid in enumerate(emission)}
        for i in range(len(slice_)):
            for j in dag.pre[i]:
                if pos[j] > pos[i]:
                    fail("dependency", f"cnot {i} emitted before its predecessor {j}")

    # (b) replay the plan against the mapped gate stream, when every CNOT id
    # and place it would read is one of the circuit's and the device's
    n_l, n_p = original.num_qubits, coupling.num_physical
    if any(not 0 <= cid < len(slice_) for cid in emission):
        fail("mapping", "plan schedules a cnot id the circuit does not have")
    for which, places in (("initial", plan.initial_map), ("final", plan.final_map)):
        distinct = len(places) == len(set(places)) == n_l
        if not distinct or not all(0 <= p < n_p for p in places):
            fail("mapping", f"{which} map {list(places)} does not place the "
                 f"{n_l} qubits on distinct device qubits")
    mapping = list(plan.initial_map)
    stream = [g for g in mapped.gates if g.is_binary()]
    k = 0

    def take():
        nonlocal k
        if k >= len(stream):
            return None
        g = stream[k]
        k += 1
        return g

    for t, step in enumerate(plan.steps if "mapping" not in violations else ()):
        if isinstance(step.action, Swap):
            g = take()
            if g is None or g.name != "swap" or set(g.qubits) != {step.action.p, step.action.q}:
                fail("mapping", f"step {t}: expected swap on "
                     f"({step.action.p},{step.action.q}), got {g}")
                break
            _apply_swap(mapping, step.action.p, step.action.q)
        for cid in step.cnots:
            c, d = slice_.pair(cid)
            pc, pd = mapping[c], mapping[d]
            if isinstance(step.action, Bridge) and step.action.cnot_id == cid:
                m = step.action.middle_phys
                expect = [("cx", (m, pd)), ("cx", (pc, m)), ("cx", (m, pd)), ("cx", (pc, m))]
                if (step.action.control_phys, step.action.data_phys) != (pc, pd):
                    fail("mapping", f"step {t}: bridge endpoints disagree with mapping")
                for name, qubits in expect:
                    g = take()
                    if g is None or g.name != name or g.qubits != qubits:
                        fail("mapping", f"step {t}: bridge ladder mismatch at {g}")
                        break
            else:
                g = take()
                name = slice_.names[cid]
                ok = g is not None and g.name == name and (
                    g.qubits == (pc, pd) or (name == "swap" and g.qubits == (pd, pc))
                )
                if not ok:
                    fail("mapping", f"step {t}: cnot {cid} expected {name} on "
                         f"({pc},{pd}), got {g}")
        if "mapping" in violations:
            break
    if "mapping" not in violations:
        if k != len(stream):
            fail("mapping", f"{len(stream) - k} unexplained 2-qubit gates in mapped circuit")
        elif mapping != list(plan.final_map):
            fail("mapping", "replayed final mapping disagrees with plan")

    # (d) CNOT-count accounting and (e) unary gate multiset
    added = 3 * (plan.swaps + plan.bridges)
    if mapped.cnot_equivalent != original.cnot_equivalent + added:
        fail("counts", f"mapped CNOT weight {mapped.cnot_equivalent} != "
             f"original {original.cnot_equivalent} + {added}")
    unaries = lambda c: Counter((g.name, g.params) for g in c.gates if g.is_unary())
    if unaries(mapped) != unaries(original):
        fail("counts", "unary gate multiset not preserved")

    first = None
    for kind in ("connectivity", "dependency", "mapping", "counts"):
        if kind in violations:
            first = violations[kind]
            break
    return VerifyReport(
        connectivity_ok="connectivity" not in violations,
        dependency_ok="dependency" not in violations,
        mapping_consistent="mapping" not in violations,
        gate_counts_ok="counts" not in violations,
        first_violation=first,
    )


def check_unitary_equivalence(original: Circuit, mapped: Circuit,
                              initial_map, final_map, limit: int = 10) -> bool | None:
    """Whether `mapped` implements `original`, or None when it uses more than
    `limit` physical qubits (with a warning).

    Used qubits are the images of both maps plus every qubit a mapped gate
    touches; the others never leave |0> and are left out.  Logical qubit l
    enters on physical qubit initial_map[l] and must leave on final_map[l];
    every other used qubit is an ancilla that starts in |0> and must end in
    |0>.  The verdict is True exactly when, on that placed subspace, the
    mapped circuit equals the original up to one global phase, so every input
    state, not only the basis states simulated, comes out right.

    Both circuits run once on all 2**n_l basis states, in column blocks of
    `_BLOCK` to bound memory.  For basis state b let o_b be the overlap of
    the wanted output with the mapped one, and phi = sum(o) / |sum(o)|.  Two
    isometries agree up to one phase exactly when every o_b equals one
    unit-modulus phi, which is what is tested, to 1e-9.
    """
    used = set(initial_map) | set(final_map)
    for g in mapped.gates:
        if g.name not in ("measure", "barrier"):
            used.update(g.qubits)
    if len(used) > limit:
        warnings.warn(f"unitary check skipped: {len(used)} used qubits > limit {limit}")
        return None
    compact = {p: i for i, p in enumerate(sorted(used))}
    n_u = len(used)
    n_l = original.num_qubits

    # mapped circuit restricted to the used qubits
    small_gates = []
    for g in mapped.gates:
        if g.name in ("measure", "barrier"):
            continue
        small_gates.append(replace(g, qubits=tuple(compact[q] for q in g.qubits),
                                   index=len(small_gates)))
    small = Circuit(n_u, tuple(small_gates), mapped.name)

    def placed(pmap) -> np.ndarray:
        """Row of each logical basis state in the used-qubit space, logical l
        on the used qubit of pmap[l] and ancillas |0> (qubit 0 the high bit)."""
        basis = np.arange(1 << n_l)
        rows = np.zeros_like(basis)
        for l in range(n_l):
            rows |= ((basis >> (n_l - 1 - l)) & 1) << (n_u - 1 - compact[pmap[l]])
        return rows

    rows_in, rows_out = placed(initial_map), placed(final_map)
    overlaps = []
    for lo in range(0, 1 << n_l, _BLOCK):
        cols = np.arange(lo, min(lo + _BLOCK, 1 << n_l))
        basis = np.zeros((1 << n_l, len(cols)), dtype=complex)
        basis[cols, cols - lo] = 1.0
        want = simulate(original, basis)
        basis = np.zeros((1 << n_u, len(cols)), dtype=complex)
        basis[rows_in[cols], cols - lo] = 1.0
        got = simulate(small, basis)
        overlaps.append(np.einsum("rb,rb->b", want.conj(), got[rows_out]))
    overlaps = np.concatenate(overlaps)
    total = overlaps.sum()
    # a sum far from zero makes phi a unit phase; all o_b = 0 must fail
    if abs(total) < len(overlaps) / 2:
        return False
    phi = total / abs(total)
    return bool(np.all(np.abs(overlaps - phi) < 1e-9))


def oracle_min_swaps(circuit: Circuit, coupling: CouplingGraph,
                     options: EncodeOptions = EncodeOptions(), cap: int = 20) -> int | None:
    """Breadth-first search over (mapping, executed-set) states.

    Every state is closed under free execution of ready CNOTs whose images
    are adjacent; transitions are one SWAP (mode-checked) or one bridge of a
    ready distance-2 CNOT.  Returns the minimal transition count, or None
    when no solution exists within `cap` transitions.
    """
    slice_ = extract_cnot_slice(circuit)
    dag = build_dag(slice_, circuit, options.relaxed)
    m = len(slice_)
    n_l, n_p = circuit.num_qubits, coupling.num_physical
    if n_l > n_p:
        raise ValueError("more logical than physical qubits")
    edges = sorted(coupling.edges)
    dist2 = distance2_pairs(coupling) if options.bridges else {}
    all_done = (1 << m) - 1

    def closure(mapping: tuple[int, ...], done: int) -> int:
        changed = True
        while changed:
            changed = False
            for i in range(m):
                if done >> i & 1:
                    continue
                if any(not (done >> j & 1) for j in dag.pre[i]):
                    continue
                c, d = slice_.pair(i)
                if coupling.connected(mapping[c], mapping[d]):
                    done |= 1 << i
                    changed = True
        return done

    frontier: set[tuple[tuple[int, ...], int]] = set()
    for perm in permutations(range(n_p), n_l):
        frontier.add((perm, closure(perm, 0)))
    visited = set(frontier)
    depth = 0
    while depth <= cap:
        for (_mapping, done) in frontier:
            if done == all_done:
                return depth
        depth += 1
        if depth > cap or not frontier:
            break
        nxt = set()
        for mapping, done in frontier:
            occupied = set(mapping)
            for (p, q) in edges:
                if options.ancillary:
                    if p not in occupied and q not in occupied:
                        continue
                elif p not in occupied or q not in occupied:
                    continue
                new_map = list(mapping)
                _apply_swap(new_map, p, q)
                state = (tuple(new_map), closure(tuple(new_map), done))
                if state not in visited:
                    visited.add(state)
                    nxt.add(state)
            for i in range(m):
                if done >> i & 1 or not slice_.is_cx(i):
                    continue
                if any(not (done >> j & 1) for j in dag.pre[i]):
                    continue
                c, d = slice_.pair(i)
                pc, pd = mapping[c], mapping[d]
                if (min(pc, pd), max(pc, pd)) in dist2:
                    state = (mapping, closure(mapping, done | 1 << i))
                    if state not in visited:
                        visited.add(state)
                        nxt.add(state)
        frontier = nxt
    return None
