"""Synthesis loop, model decoding, and circuit reconstruction.

synthesize() asks, for k = 0, 1, ..., whether k actions suffice under the
"nothing delayed" assumption; the first satisfiable k is the minimal number
of inserted SWAP/bridge actions, with the preceding UNSAT answers (per
subgraph shape, or on the whole device) as the optimality certificate.
"""
from __future__ import annotations

import time
import weakref
from dataclasses import dataclass

from .circuit import Circuit, CnotSlice, Gate, circuit_depth, extract_cnot_slice
from .coupling import (CouplingGraph, connected_sets, induced_edges, induced_subgraph,
                       reachable, shape_invariant, spans)
from .dag import DepDag, build_dependency_dag, build_relaxed_dag, slice_successors
from .encoder import EncodeOptions, TwoWayEncoder
from .solver import Status, make_solver


class SynthesisError(RuntimeError):
    """Internal inconsistency while decoding or reconstructing."""


@dataclass(frozen=True)
class Swap:
    p: int
    q: int


@dataclass(frozen=True)
class Bridge:
    cnot_id: int
    control_phys: int
    middle_phys: int
    data_phys: int


@dataclass(frozen=True)
class PlanStep:
    action: Swap | Bridge | None  # None only at step 0
    cnots: tuple[int, ...]  # cnot ids in emission order


@dataclass(frozen=True)
class Plan:
    initial_map: tuple[int, ...]  # logical -> physical
    steps: tuple[PlanStep, ...]
    final_map: tuple[int, ...]

    @property
    def swaps(self) -> int:
        return sum(1 for s in self.steps if isinstance(s.action, Swap))

    @property
    def bridges(self) -> int:
        return sum(1 for s in self.steps if isinstance(s.action, Bridge))


@dataclass(frozen=True)
class Limits:
    time_limit: float | None = None  # total wall-clock budget in seconds
    max_steps: int | None = None


@dataclass
class MappedResult:
    plan: Plan | None
    mapped_circuit: Circuit | None
    metrics: dict


def plan_to_dict(plan: Plan) -> dict:
    steps = []
    for s in plan.steps:
        if isinstance(s.action, Swap):
            action = {"type": "swap", "p": s.action.p, "q": s.action.q}
        elif isinstance(s.action, Bridge):
            action = {"type": "bridge", "cnot": s.action.cnot_id,
                      "control": s.action.control_phys,
                      "middle": s.action.middle_phys, "data": s.action.data_phys}
        else:
            action = None
        steps.append({"action": action, "cnots": list(s.cnots)})
    return {"initial_map": list(plan.initial_map), "steps": steps,
            "final_map": list(plan.final_map)}


def _ints(values) -> tuple[int, ...]:
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise TypeError(f"expected integers, got {list(values)!r}")
    return values


def plan_from_dict(data: dict) -> Plan:
    """The plan `plan_to_dict` wrote; ValueError on a missing or ill-typed field."""
    try:
        steps = []
        for s in data["steps"]:
            a = s["action"]
            if a is None:
                action = None
            elif a["type"] == "swap":
                action = Swap(*_ints((a["p"], a["q"])))
            elif a["type"] == "bridge":
                action = Bridge(*_ints((a["cnot"], a["control"], a["middle"], a["data"])))
            else:
                raise ValueError(f"unknown plan action {a!r}")
            steps.append(PlanStep(action, _ints(s["cnots"])))
        return Plan(_ints(data["initial_map"]), tuple(steps), _ints(data["final_map"]))
    except KeyError as exc:
        raise ValueError(f"malformed plan: missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed plan: {exc}") from None


def _apply_swap(mapping: list[int], p: int, q: int) -> None:
    for l, phys in enumerate(mapping):
        if phys == p:
            mapping[l] = q
        elif phys == q:
            mapping[l] = p


def build_dag(slice_: CnotSlice, circuit: Circuit, relaxed: bool) -> DepDag:
    """The relaxed or the strict dependency DAG of the circuit's CNOT slice."""
    if relaxed:
        return build_relaxed_dag(slice_, circuit)
    return build_dependency_dag(slice_, circuit)


def decode_model(model: list[bool], encoder: TwoWayEncoder, t_final: int) -> Plan:
    """The plan of a model; a step's CNOTs are emitted in id order, which
    every dependency DAG respects."""
    reg = encoder.reg
    n_l, n_p = encoder.n_l, encoder.n_p
    slice_ = encoder.slice

    def mapping_at(t: int) -> list[int]:
        mapping = [-1] * n_l
        for l in range(n_l):
            hits = [p for p in range(n_p) if model[reg.map_var[(l, p, t)]]]
            if len(hits) != 1:
                raise SynthesisError(f"logical {l} mapped to {len(hits)} places at t={t}")
            mapping[l] = hits[0]
        if len(set(mapping)) != n_l:
            raise SynthesisError(f"mapping at t={t} is not injective")
        return mapping

    initial = mapping_at(0)
    mapping = list(initial)
    steps = []
    for t in range(t_final + 1):
        group = {i for i in range(encoder.m) if model[reg.cnot[(i, t)]]}
        action: Swap | Bridge | None = None
        if t >= 1:
            swaps_true = [e for e in encoder.edges if model[reg.swap[(e, t)]]]
            bridges_true = [i for i in encoder.bridgeable if model[reg.bridge[(i, t)]]]
            if len(swaps_true) + len(bridges_true) != 1:
                raise SynthesisError(f"step {t} has {len(swaps_true)} swaps and "
                                     f"{len(bridges_true)} bridges in the model")
            if swaps_true:
                p, q = swaps_true[0]
                action = Swap(p, q)
                _apply_swap(mapping, p, q)
            else:
                i = bridges_true[0]
                c, d = slice_.pair(i)
                pc, pd = mapping[c], mapping[d]
                key = (min(pc, pd), max(pc, pd))
                middles = encoder.bridge_paths.get(key)
                if not middles:
                    raise SynthesisError(f"bridge at step {t} on non-distance-2 pair {key}")
                action = Bridge(i, pc, middles[0], pd)
        steps.append(PlanStep(action, tuple(sorted(group))))
        # sanity: model mapping agrees with the replayed one
        if mapping_at(t) != mapping:
            raise SynthesisError(f"mapping replay diverges from model at t={t}")

    seen = [i for s in steps for i in s.cnots]
    if sorted(seen) != list(range(encoder.m)):
        raise SynthesisError("each CNOT must be scheduled in exactly one step")
    return Plan(tuple(initial), tuple(steps), tuple(mapping))


def reconstruct(plan: Plan, circuit: Circuit, relaxed: bool, num_physical: int) -> Circuit:
    slice_ = extract_cnot_slice(circuit)
    emission = [i for s in plan.steps for i in s.cnots]
    pos = {cid: k for k, cid in enumerate(emission)}
    after = slice_successors(slice_, circuit, relaxed)
    # each unary gate goes, in source order, just before the first emitted
    # cnot that must stay after it (None: at the end).  The nearest such
    # cnots suffice, since the emission respects the DAG.
    before: dict[int | None, list[Gate]] = {}
    for g in circuit.gates:
        if g.is_unary():
            first = min(after[g.index], key=pos.__getitem__, default=None)
            before.setdefault(first, []).append(g)

    mapping = list(plan.initial_map)
    out: list[Gate] = []

    def emit(name: str, qubits, params=(), cbits=()) -> None:
        out.append(Gate(name, tuple(qubits), tuple(params), tuple(cbits), len(out)))

    def emit_unaries_for(cid: int | None) -> None:
        for g in before.pop(cid, []):
            emit(g.name, (mapping[g.qubits[0]],), g.params)

    bridged = {s.action.cnot_id: s.action for s in plan.steps if isinstance(s.action, Bridge)}
    for t, step in enumerate(plan.steps):
        if isinstance(step.action, Swap):
            _apply_swap(mapping, step.action.p, step.action.q)
            emit("swap", (step.action.p, step.action.q))
        for cid in step.cnots:
            emit_unaries_for(cid)
            c, d = slice_.pair(cid)
            pc, pd = mapping[c], mapping[d]
            if cid in bridged:
                br = bridged[cid]
                if (br.control_phys, br.data_phys) != (pc, pd):
                    raise SynthesisError(f"bridge endpoints disagree with mapping at t={t}")
                m = br.middle_phys
                emit("cx", (m, pd))
                emit("cx", (pc, m))
                emit("cx", (m, pd))
                emit("cx", (pc, m))
            else:
                emit(slice_.names[cid], (pc, pd))
    if mapping != list(plan.final_map):
        raise SynthesisError("replayed final mapping disagrees with plan")
    emit_unaries_for(None)
    if before:
        raise SynthesisError("unary gates left unplaced")
    for g in circuit.gates:
        if g.name == "measure":
            emit("measure", (mapping[g.qubits[0]],), cbits=g.cbits)
    return Circuit(num_physical, tuple(out), circuit.name + "_mapped",
                   circuit.qreg_name, circuit.cregs)


def compute_metrics(plan: Plan | None, original: Circuit, mapped: Circuit | None,
                    status: str, step_times: list[float], total_time: float,
                    lower_bound: int = 0, shapes: list[int] = (),
                    device_levels: list[int] = ()) -> dict:
    metrics = {
        "status": status,
        "step_times": [round(x, 6) for x in step_times],
        "shapes": list(shapes),
        "device_levels": list(device_levels),
        "total_time": round(total_time, 6),
    }
    if plan is None:
        metrics["lower_bound"] = lower_bound
        return metrics
    swaps, bridges = plan.swaps, plan.bridges
    metrics.update(
        swaps=swaps,
        bridges=bridges,
        added_cnots=3 * (swaps + bridges),
        cnot_total=mapped.cnot_equivalent,
        depth_before=circuit_depth(original),
        depth_after=circuit_depth(mapped),
    )
    return metrics


class _Stopped(Exception):
    """The step budget or the time limit ran out before an optimal answer."""


def _interaction_connected(slice_: CnotSlice) -> bool:
    """True when the two-qubit gates connect every qubit that takes part in one."""
    adj: dict[int, set[int]] = {}
    for a, b in slice_.logical_pairs():
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return not adj or len(reachable(adj, next(iter(adj)))) == len(adj)


# The shape catalogue: device -> {size: shapes of a completed enumeration, or
# None}.  Entries are found by value equality, so an equal device loaded again
# reads the same entry, and each is dropped with the device object it was
# stored under.  An entry holds no reference to its device.
_catalogue: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _level_shapes(coupling: CouplingGraph, size: int, deadline: float | None
                  ) -> list[tuple[tuple[int, ...], CouplingGraph]] | None:
    """One node set per maximal isomorphism class of connected `size`-node
    subgraphs, densest first, each with its induced subgraph.

    None once the classes found total at least the device's node count:
    solving them would then cost more than solving the device.  This stop
    rule counts every class, maximal or not, so that it needs no complete
    enumeration.  Each distinct local edge list joins the first class of
    its `shape_invariant` whose first edge list `spans` it, which with
    equal edge counts means the two are isomorphic, so every merge rests
    on an embedding found; else it starts a class.  The classes are
    ordered by the invariant's first two fields, edge count and then
    sorted degree sequence, both descending, ties in enumeration order.

    A class is dropped when it is isomorphic to a proper spanning subgraph
    of another ("dominated"); only the maximal ones are kept.  With every
    lower level refuted, a plan on a dominated shape A with k actions is a
    plan on its dominating shape B with k actions: B's extra edges let each
    gate run at the same step or earlier, never later, so an eager schedule
    on B executes at least what A's executes by each step; a bridge whose
    ends are adjacent on B would become a plain CNOT, leaving fewer than k
    actions, which the lower levels rule out; and without ancillas the
    SWAPs act on the same occupied places.  So refuting B refutes A, and A
    is SAT only if B is.  A dominating shape has more edges, so it comes
    before every shape it dominates, and comparing a class only with the
    maximal ones kept so far is enough, since domination is transitive.
    The first SAT shape in this order is therefore always maximal, and the
    level's answer and plan are those of the full list.

    The result of a completed enumeration, None included, is kept in the
    device's catalogue entry, and later calls on an equal device return it
    without enumerating.  An enumeration stopped by the deadline keeps
    nothing.
    """
    levels = _catalogue.setdefault(coupling, {})
    if size in levels:
        return levels[size]
    adj = coupling.adjacency()
    seen: set[tuple] = set()  # local edge lists already classified
    buckets: dict[tuple, list[tuple]] = {}  # invariant -> its classes' edge lists
    found = []  # (invariant, node set, local edge list), one per class
    for nodes in connected_sets(coupling, size):
        if deadline is not None and time.monotonic() > deadline:
            raise _Stopped
        local = induced_edges(adj, nodes)
        if local in seen:
            continue
        seen.add(local)
        invariant = shape_invariant(size, local)
        bucket = buckets.setdefault(invariant, [])
        if any(spans(rep, local, size) for rep in bucket):
            continue
        bucket.append(local)
        found.append((invariant, nodes, local))
        if len(found) * size >= coupling.num_physical:
            levels[size] = None
            return None

    shapes, kept = [], []  # the maximal classes' (node set, graph) and edge lists
    for _, nodes, edges in sorted(found, key=lambda c: c[0][:2], reverse=True):
        if not any(spans(big, edges, size) for big in kept):
            kept.append(edges)
            shapes.append((nodes, induced_subgraph(coupling, nodes)))
    levels[size] = shapes
    return shapes


def _lift(plan: Plan, nodes: tuple[int, ...]) -> Plan:
    """A plan on the subgraph induced by `nodes`, in device labels."""
    steps = []
    for s in plan.steps:
        a = s.action
        if isinstance(a, Swap):
            a = Swap(nodes[a.p], nodes[a.q])
        elif isinstance(a, Bridge):
            a = Bridge(a.cnot_id, nodes[a.control_phys], nodes[a.middle_phys],
                       nodes[a.data_phys])
        steps.append(PlanStep(a, s.cnots))
    return Plan(tuple(nodes[p] for p in plan.initial_map), tuple(steps),
                tuple(nodes[p] for p in plan.final_map))


def synthesize(
    circuit: Circuit,
    coupling: CouplingGraph,
    options: EncodeOptions = EncodeOptions(),
    limits: Limits = Limits(),
    solver_spec: str = "internal",
) -> MappedResult:
    """The least k such that k actions suffice, proven by refuting k-1, ..., 0.

    A plan with k actions uses at most n+k places: the n initial ones, one
    new place per SWAP, one middle per bridge.  When the two-qubit gates
    connect all active qubits, the places those qubits visit are connected;
    idle qubits can sit anywhere else, since with every smaller k refuted
    no action moves them alone.  So on a connected device, level k is
    decided on the distinct connected induced subgraphs ("shapes") of n+k
    nodes: UNSAT when every shape is, SAT with the first satisfiable
    shape's plan in device labels.  Only the maximal shapes are solved: a
    shape isomorphic to a proper spanning subgraph of another is SAT only
    if that one is, once the lower levels are refuted, and it comes after
    that one in the densest-first order, so skipping it changes neither
    the level's answer nor its plan (`_level_shapes` gives the argument).
    The device is the single shape when n+k reaches its size, when either
    graph is disconnected, or when the shapes total at least its node
    count; its encoder is built at the first such level, and it and its
    solver grow from level to level.  A level's shapes come from the
    device's catalogue (`_level_shapes`), so they are enumerated once per
    device and size in a process.
    """
    start = time.monotonic()
    deadline = None if limits.time_limit is None else start + limits.time_limit
    slice_ = extract_cnot_slice(circuit)
    dag = build_dag(slice_, circuit, options.relaxed)
    n, n_p = circuit.num_qubits, coupling.num_physical
    device = None  # the whole device's (encoder, solver), grown from level to level
    splittable = coupling.is_connected() and _interaction_connected(slice_)

    step_times: list[float] = []
    shapes: list[int] = []
    device_levels: list[int] = []
    k = 0
    try:
        while True:
            if limits.max_steps is not None and k > limits.max_steps:
                raise _Stopped
            level = None
            if splittable and n + k < n_p:
                level = _level_shapes(coupling, n + k, deadline)
            for nodes, graph in level or [(None, coupling)]:
                if nodes is None and device is not None:
                    encoder, solver = device
                else:
                    encoder = TwoWayEncoder(n, slice_, dag, graph, options)
                    solver = make_solver(encoder.cnf, solver_spec)
                    if nodes is None:
                        device = encoder, solver
                while encoder.built_steps <= k:
                    encoder.build_step(encoder.built_steps)
                budget = None
                if deadline is not None:
                    # the budget covers enumeration and encoding as well as solving
                    budget = deadline - time.monotonic()
                    if budget <= 0:
                        raise _Stopped
                result = solver.solve([encoder.assumption_literal(k)], time_limit=budget)
                if len(step_times) == k:
                    step_times.append(0.0)
                    shapes.append(0)
                step_times[k] += result.stats["time"]
                shapes[k] += 1
                if nodes is None:
                    device_levels.append(k)
                if result.status is Status.SAT:
                    plan = decode_model(result.model, encoder, k)
                    if nodes is not None:
                        plan = _lift(plan, nodes)
                    mapped = reconstruct(plan, circuit, options.relaxed, n_p)
                    metrics = compute_metrics(plan, circuit, mapped, "optimal", step_times,
                                              time.monotonic() - start, shapes=shapes,
                                              device_levels=device_levels)
                    return MappedResult(plan, mapped, metrics)
                if result.status is Status.UNKNOWN:
                    raise _Stopped
            k += 1
    except _Stopped:
        return MappedResult(None, None, compute_metrics(
            None, circuit, None, "timeout", step_times, time.monotonic() - start,
            lower_bound=k, shapes=shapes, device_levels=device_levels))
