"""Reference checks for mapped circuits, written without any swapsat code.

Everything here works on plain data: gate tuples ``(name, qubits, params,
cbits)``, platform edge sets and the emitted OpenQASM text of a routed
circuit.  The checks are

- ``bfs_optimum``: breadth-first minimal action count over (placement,
  executed-gates) states, starting from every initial placement;
- ``subgraph_optimum``: the same search over the connected induced subgraphs
  of ``n + k`` nodes of a large device, which is exact for circuits whose
  two-qubit gates connect all their active qubits;
- ``replay``: re-executes a routed circuit gate by gate on device edges, in
  an order the strict or relaxed dependency rules allow, and returns the
  inserted SWAP and bridge counts;
- ``statevector_equal``: dense simulation of the original and the routed
  circuit on the used physical qubits;
- ``depth``: circuit depth (a swap or a measure counts as one gate);
- ``monotonicity_violations``: option-monotonicity of optimal counts.
"""
from __future__ import annotations

import cmath
import json
import math
import re
from itertools import permutations
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    """A routed result disagrees with the reference."""


Z_LIKE = frozenset({"z", "s", "sdg", "t", "tdg", "rz", "u1"})
X_LIKE = frozenset({"x", "rx"})
TWO_QUBIT = frozenset({"cx", "swap"})

# -- platforms ---------------------------------------------------------------

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "swapsat" / "data"


def platform_edges(spec: str) -> tuple[int, frozenset]:
    """(qubit count, normalised edge set) for linear-N, grid-RxC or a bundled device."""
    if spec.startswith("linear-"):
        n = int(spec[len("linear-"):])
        return n, frozenset((i, i + 1) for i in range(n - 1))
    if spec.startswith("grid-"):
        rows, cols = (int(x) for x in spec[len("grid-"):].split("x"))
        edges = set()
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    edges.add((i, i + 1))
                if r + 1 < rows:
                    edges.add((i, i + cols))
        return rows * cols, frozenset(edges)
    data = json.loads((DATA_DIR / f"{spec}.json").read_text())
    return data["num_qubits"], frozenset((min(u, v), max(u, v)) for u, v in data["edges"])


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- QASM --------------------------------------------------------------------

_GATE_RE = re.compile(r"^([a-z][a-z0-9]*)\s*(?:\(([^)]*)\))?\s+(.+)$")
_ARG_RE = re.compile(r"^[A-Za-z_]\w*\[(\d+)\]$")


def parse_qasm(text: str) -> tuple[int, list[tuple]]:
    """(qubit count, gates) of a single-register OpenQASM 2.0 program."""
    num_qubits = 0
    gates = []
    for raw in text.replace("\n", " ").split(";"):
        stmt = raw.strip()
        if not stmt or stmt.startswith(("OPENQASM", "include", "creg")):
            continue
        if stmt.startswith("qreg"):
            num_qubits = int(stmt[stmt.index("[") + 1:stmt.index("]")])
            continue
        if stmt.startswith("measure"):
            src, dst = (s.strip() for s in stmt[len("measure"):].split("->"))
            q = int(_ARG_RE.match(src).group(1))
            creg = dst[:dst.index("[")].strip()
            gates.append(("measure", (q,), (), ((creg, int(dst[dst.index("[") + 1:-1])),)))
            continue
        m = _GATE_RE.match(stmt)
        if not m:
            raise ValueError(f"cannot parse statement {stmt!r}")
        name, params, args = m.group(1), m.group(2), m.group(3)
        qubits = tuple(int(_ARG_RE.match(a.strip()).group(1)) for a in args.split(","))
        ptuple = tuple(p.strip() for p in params.split(",")) if params else ()
        gates.append((name, qubits, ptuple, ()))
    return num_qubits, gates


def emit_qasm(num_qubits: int, gates, reg: str = "q") -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg {reg}[{num_qubits}];"]
    cregs = sorted({c for g in gates for (c, _i) in g[3]})
    for c in cregs:
        size = 1 + max(i for g in gates for (cc, i) in g[3] if cc == c)
        lines.append(f"creg {c}[{size}];")
    for name, qubits, params, cbits in gates:
        if name == "measure":
            lines.append(f"measure {reg}[{qubits[0]}] -> {cbits[0][0]}[{cbits[0][1]}];")
        else:
            p = f"({','.join(params)})" if params else ""
            lines.append(f"{name}{p} " + ",".join(f"{reg}[{q}]" for q in qubits) + ";")
    return "\n".join(lines) + "\n"


# -- dependency rules --------------------------------------------------------

def _role(name: str, pos: int) -> str:
    if name == "cx":
        return "z" if pos == 0 else "x"
    if name in Z_LIKE:
        return "z"
    if name in X_LIKE:
        return "x"
    return "block"


def gate_predecessors(gates, relaxed: bool) -> list[int]:
    """pred[i]: bitmask of every gate that must come before gate i.

    Strict rules order every pair of gates sharing a qubit.  Relaxed rules
    let two gates pass each other on a shared qubit when both act Z-like or
    both act X-like there (a CNOT control is Z-like, its target X-like).
    """
    pred = [0] * len(gates)
    for i, (name_i, qubits_i, _p, _c) in enumerate(gates):
        for j in range(i):
            name_j, qubits_j = gates[j][0], gates[j][1]
            for pos_i, q in enumerate(qubits_i):
                if q not in qubits_j:
                    continue
                ri, rj = _role(name_i, pos_i), _role(name_j, qubits_j.index(q))
                if not relaxed or ri == "block" or ri != rj:
                    pred[i] |= (1 << j) | pred[j]
                    break
    return pred


def two_qubit_dag(gates, relaxed: bool) -> tuple[list[tuple], list[int]]:
    """The two-qubit gates (name, control, target) and their predecessor masks
    over two-qubit gate positions."""
    pred = gate_predecessors(gates, relaxed)
    idx = [i for i, g in enumerate(gates) if g[0] in TWO_QUBIT]
    pos = {gi: k for k, gi in enumerate(idx)}
    ops = [(gates[gi][0], gates[gi][1][0], gates[gi][1][1]) for gi in idx]
    cpred = []
    for gi in idx:
        mask = 0
        for gj in idx:
            if pred[gi] >> gj & 1:
                mask |= 1 << pos[gj]
        cpred.append(mask)
    return ops, cpred


# -- breadth-first optimum ---------------------------------------------------

def bfs_optimum(num_logical: int, gates, num_physical: int, edges, *, bridges: bool,
                relaxed: bool, ancillas: bool, cap: int = 12) -> int | None:
    """Least number of SWAP/bridge actions that route ``gates``, or None above ``cap``.

    States are (placement, executed two-qubit gates); ready gates on adjacent
    qubits run for free, every transition is one SWAP on a device edge (with
    at least one placed qubit, both placed without ancillas) or one bridge of
    a ready CNOT whose qubits sit at distance two.
    """
    ops, cpred = two_qubit_dag(gates, relaxed)
    m = len(ops)
    full = (1 << m) - 1
    adj = [[False] * num_physical for _ in range(num_physical)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
    nbrs = _adjacency(num_physical, edges)
    dist2 = [[p != q and not adj[p][q] and bool(nbrs[p] & nbrs[q])
              for q in range(num_physical)] for p in range(num_physical)]
    edge_list = sorted(edges)
    bridgeable = [i for i, op in enumerate(ops) if op[0] == "cx"] if bridges else []

    def close(pos, done):
        for i in range(m):
            if not done >> i & 1 and done & cpred[i] == cpred[i]:
                _n, c, d = ops[i]
                if adj[pos[c]][pos[d]]:
                    done |= 1 << i
        return done

    layer = set()
    for pos in permutations(range(num_physical), num_logical):
        layer.add((pos, close(pos, 0)))
    seen = set(layer)
    for depth in range(cap + 1):
        if any(done == full for _pos, done in layer):
            return depth
        if depth == cap:
            return None
        nxt = set()
        for pos, done in layer:
            occupant = [-1] * num_physical
            for l, p in enumerate(pos):
                occupant[p] = l
            for p, q in edge_list:
                lp, lq = occupant[p], occupant[q]
                if lp < 0 and lq < 0:
                    continue
                if not ancillas and (lp < 0 or lq < 0):
                    continue
                new = list(pos)
                if lp >= 0:
                    new[lp] = q
                if lq >= 0:
                    new[lq] = p
                new = tuple(new)
                state = (new, close(new, done))
                if state not in seen:
                    seen.add(state)
                    nxt.add(state)
            for i in bridgeable:
                if done >> i & 1 or done & cpred[i] != cpred[i]:
                    continue
                _n, c, d = ops[i]
                if dist2[pos[c]][pos[d]]:
                    state = (pos, close(pos, done | 1 << i))
                    if state not in seen:
                        seen.add(state)
                        nxt.add(state)
        layer = nxt
    return None


def _connected_subsets(adj: list[set[int]], size: int):
    """Every connected node set of the given size, each once (ESU enumeration)."""
    def extend(sub, ext, root, border):
        if len(sub) == size:
            yield frozenset(sub)
            return
        ext = set(ext)
        while ext:
            w = ext.pop()
            new_ext = set(ext)
            for u in adj[w]:
                if u > root and u not in sub and u not in border:
                    new_ext.add(u)
            yield from extend(sub | {w}, new_ext, root, border | adj[w])

    for v in range(len(adj)):
        yield from extend({v}, {u for u in adj[v] if u > v}, v, adj[v] | {v})


def _canonical(nodes, adj) -> tuple:
    """Isomorphism-invariant certificate of a small induced subgraph: the least
    sorted edge list over all relabelings that list nodes by degree first."""
    nodes = sorted(nodes)
    deg = {v: len(adj[v] & set(nodes)) for v in nodes}
    groups = {}
    for v in nodes:
        groups.setdefault(deg[v], []).append(v)
    orders = [[]]
    for d in sorted(groups):
        orders = [o + list(p) for o in orders for p in permutations(groups[d])]
    best = None
    for order in orders:
        label = {v: i for i, v in enumerate(order)}
        cert = tuple(sorted((min(label[u], label[v]), max(label[u], label[v]))
                            for u in nodes for v in adj[u] if v in label and u < v))
        if best is None or cert < best:
            best = cert
    return (tuple(sorted(deg.values())), best)


def subgraph_optimum(num_logical: int, gates, num_physical: int, edges, *, bridges: bool,
                     relaxed: bool, cap: int = 4) -> int | None:
    """Exact optimum on a large device (ancillas on), from small subgraphs.

    With k actions an optimal plan touches at most n + k physical qubits: the
    n initial places, one new place per SWAP and one middle per bridge.  When
    the circuit's two-qubit gates connect all its active qubits those places
    form a connected set, which can be grown to n + k nodes.  So the optimum
    is the least k for which some connected induced subgraph of n + k nodes
    admits a plan of k actions.  Isomorphic subgraphs are searched once.
    """
    adj = _adjacency(num_physical, edges)
    for k in range(cap + 1):
        size = min(num_logical + k, num_physical)
        done_shapes = set()
        for nodes in _connected_subsets(adj, size):
            cert = _canonical(nodes, adj)
            if cert in done_shapes:
                continue
            done_shapes.add(cert)
            local = {v: i for i, v in enumerate(sorted(nodes))}
            sub_edges = [(local[u], local[v]) for u, v in edges if u in local and v in local]
            found = bfs_optimum(num_logical, gates, size, sub_edges, bridges=bridges,
                                relaxed=relaxed, ancillas=True, cap=k)
            if found is not None:
                return k
    return None


def interaction_connected(num_logical: int, gates) -> bool:
    """True when the two-qubit gates connect every qubit that takes part in one."""
    active = {q for g in gates if g[0] in TWO_QUBIT for q in g[1]}
    if not active:
        return True
    adj = _adjacency(num_logical, {tuple(sorted(g[1])) for g in gates if g[0] in TWO_QUBIT})
    start = next(iter(active))
    seen, todo = {start}, [start]
    while todo:
        for u in adj[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == active


# -- replay ------------------------------------------------------------------

def _is_ladder(mapped, k, adj_set, nbrs):
    """(control, middle, target) when mapped[k:k+4] is a bridge ladder
    cx(m,t) cx(c,m) cx(m,t) cx(c,m) with c and t at distance two."""
    if k + 4 > len(mapped):
        return None
    g = mapped[k:k + 4]
    if any(x[0] != "cx" for x in g):
        return None
    (m, t), (c, m2) = g[0][1], g[1][1]
    if m2 != m or g[2][1] != (m, t) or g[3][1] != (c, m):
        return None
    if c == t or (min(c, t), max(c, t)) in adj_set or m not in (nbrs[c] & nbrs[t]):
        return None
    return c, m, t


def replay(original_gates, num_logical: int, mapped_text: str, initial_map, final_map,
           edges, *, relaxed: bool, ancillas: bool) -> tuple[int, int]:
    """Re-execute a routed circuit and return its (swaps, bridges).

    Starting from ``initial_map`` (logical -> physical), every two-qubit gate
    must sit on a device edge; a swap moves the placement (between two placed
    qubits unless ancillas are allowed); four CNOTs forming a ladder across a
    distance-two pair stand for one bridged CNOT; every other gate is read
    back as a logical gate, which must be pending and have all of its
    dependency-rule predecessors done.  The replay must use up every original
    gate and end at ``final_map``.  Raises CheckError otherwise.
    """
    n_phys, mapped = parse_qasm(mapped_text)
    adj_set = set(edges)
    nbrs = _adjacency(n_phys, edges)
    pred = gate_predecessors(original_gates, relaxed)
    if len(initial_map) != num_logical or len(set(initial_map)) != num_logical:
        raise CheckError("initial placement is not injective")
    if any(not 0 <= p < n_phys for p in initial_map):
        raise CheckError("initial placement leaves the device")

    def run(k, pos, done, swaps, bridges):
        occupant = {p: l for l, p in enumerate(pos)}
        while k < len(mapped):
            name, qubits, params, cbits = mapped[k]
            if name in TWO_QUBIT and (min(qubits), max(qubits)) not in adj_set:
                raise CheckError(f"gate {k} ({name} {qubits}) is not on a device edge")
            if name == "swap":
                p, q = qubits
                if not ancillas and (p not in occupant or q not in occupant):
                    raise CheckError(f"gate {k}: swap with an unplaced qubit without ancillas")
                if p not in occupant and q not in occupant:
                    raise CheckError(f"gate {k}: swap of two unplaced qubits")
                lp, lq = occupant.pop(p, None), occupant.pop(q, None)
                pos = list(pos)
                if lp is not None:
                    pos[lp] = q
                    occupant[q] = lp
                if lq is not None:
                    pos[lq] = p
                    occupant[p] = lq
                swaps += 1
                k += 1
                continue
            ladder = _is_ladder(mapped, k, adj_set, nbrs)
            if ladder is not None:
                c, _m, t = ladder
                if c in occupant and t in occupant:
                    gi = _match(original_gates, pred, done, ("cx", (occupant[c], occupant[t]), (), ()))
                    if gi is not None:
                        try:
                            return run(k + 4, pos, done | 1 << gi, swaps, bridges + 1)
                        except CheckError:
                            pass  # read the four CNOTs one by one instead
            if any(q not in occupant for q in qubits):
                raise CheckError(f"gate {k} ({name} {qubits}) acts on an unplaced qubit")
            logical = (name, tuple(occupant[q] for q in qubits), params, cbits)
            gi = _match(original_gates, pred, done, logical)
            if gi is None:
                raise CheckError(f"gate {k} ({name} {qubits}) is not a ready gate of the circuit")
            done |= 1 << gi
            k += 1
        if done != (1 << len(original_gates)) - 1:
            missing = [i for i in range(len(original_gates)) if not done >> i & 1]
            raise CheckError(f"original gates {missing[:5]} never executed")
        if tuple(pos) != tuple(final_map):
            raise CheckError(f"replay ends at {tuple(pos)}, plan says {tuple(final_map)}")
        return swaps, bridges

    return run(0, tuple(initial_map), 0, 0, 0)


def _match(gates, pred, done, logical) -> int | None:
    """Earliest pending gate equal to ``logical`` whose predecessors are done."""
    for i, g in enumerate(gates):
        if not done >> i & 1 and g == logical and done & pred[i] == pred[i]:
            return i
    return None


# -- statevector -------------------------------------------------------------

_S2 = 1 / math.sqrt(2)


_FIXED = {
    "x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]], "z": [[1, 0], [0, -1]],
    "h": [[_S2, _S2], [_S2, -_S2]], "s": [[1, 0], [0, 1j]], "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
    "tdg": [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
}


def _unitary(name: str, params) -> np.ndarray:
    """Matrix of a single-qubit gate of the workloads; rz takes a decimal angle."""
    if name == "rz":
        theta = float(params[0])
        return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
    return np.array(_FIXED[name], dtype=complex)


def simulate(num_qubits: int, gates, state: np.ndarray) -> np.ndarray:
    """Apply gates to a state of shape (2,) * num_qubits; axis q is qubit q."""
    for name, qubits, params, _cbits in gates:
        if name == "measure":
            continue
        if name == "cx":
            c, t = qubits
            s = np.moveaxis(state, (c, t), (0, 1)).copy()
            s[1] = s[1][::-1].copy()
            state = np.moveaxis(s, (0, 1), (c, t))
        elif name == "swap":
            state = np.swapaxes(state, *qubits)
        else:
            q = qubits[0]
            state = np.moveaxis(np.tensordot(_unitary(name, params), state, axes=([1], [q])), 0, q)
    return state


def statevector_equal(original_gates, num_logical: int, mapped_text: str, initial_map,
                      final_map, *, max_qubits: int = 8, samples: int = 2,
                      seed: int = 7) -> bool | None:
    """Compare both circuits on random inputs; None when more than
    ``max_qubits`` physical qubits are used.  Unplaced qubits start in |0>
    and must end there."""
    _n, mapped = parse_qasm(mapped_text)
    used = sorted(set(initial_map) | {q for g in mapped if g[0] != "measure" for q in g[1]})
    if len(used) > max_qubits:
        return None
    local = {p: i for i, p in enumerate(used)}
    small = [(g[0], tuple(local[q] for q in g[1]), g[2], g[3]) for g in mapped
             if g[0] != "measure"]
    n_u = len(used)
    rng = np.random.default_rng(seed)

    def embed(logical_state, placement):
        full = logical_state
        for _ in range(n_u - num_logical):
            full = np.stack([full, np.zeros_like(full)], axis=-1)
        order = [local[placement[l]] for l in range(num_logical)]
        order += [i for i in range(n_u) if i not in order]
        return np.moveaxis(full, list(range(n_u)), order)

    for _ in range(samples):
        psi = rng.normal(size=2 ** num_logical) + 1j * rng.normal(size=2 ** num_logical)
        psi = (psi / np.linalg.norm(psi)).reshape((2,) * num_logical)
        want = embed(simulate(num_logical, original_gates, psi), final_map)
        got = simulate(n_u, small, embed(psi, initial_map))
        if abs(np.vdot(want.ravel(), got.ravel())) < 1 - 1e-9:
            return False
    return True


# -- depth and monotonicity --------------------------------------------------

def depth(num_qubits: int, gates) -> int:
    """Longest chain of qubit-sharing gates."""
    front = [0] * num_qubits
    for _name, qubits, _p, _c in gates:
        d = max(front[q] for q in qubits) + 1
        for q in qubits:
            front[q] = d
    return max(front, default=0)


def monotonicity_violations(counts: dict) -> list[str]:
    """Broken option orderings among optimal action counts.

    ``counts`` maps (circuit, platform, combo, ancillas) to the count, where
    combo is S, SB, SR or SBR.  Extra freedom may never cost actions:
    SB <= S, SR <= S, SBR <= min(SB, SR), and without ancillas >= with them.
    """
    out = []
    for (circ, plat, combo, anc), value in counts.items():
        below = {"SB": ["S"], "SR": ["S"], "SBR": ["SB", "SR", "S"]}.get(combo, [])
        for other in below:
            ref = counts.get((circ, plat, other, anc))
            if ref is not None and value > ref:
                out.append(f"{circ}/{plat}: {combo}={value} > {other}={ref} (ancillas={anc})")
        if not anc:
            ref = counts.get((circ, plat, combo, True))
            if ref is not None and value < ref:
                out.append(f"{circ}/{plat}/{combo}: no ancillas {value} < ancillas {ref}")
    return out
