"""Per-time-step SAT constraints for parallel SWAP planning.

Each time step carries a fresh copy of the mapping variables plus the
current/advanced/delayed status of every 2-qubit gate.  Step 0 fixes the
initial placement; every later step applies exactly one SWAP (or bridge)
and a group of gates executable under the step's mapping.  An assumption
variable per step switches on the "nothing left delayed" goal so the
instance can grow monotonically across solver calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import CnotSlice
from .cnf import CnfInstance
from .coupling import CouplingGraph, distance2_pairs
from .dag import DepDag


class EncodingError(ValueError):
    """Infeasible input or misuse of the incremental interface."""


@dataclass(frozen=True)
class EncodeOptions:
    ancillary: bool = True
    bridges: bool = False
    relaxed: bool = False


@dataclass
class VarRegistry:
    """Maps (kind, indices, step) to SAT variable ids."""

    map_var: dict = field(default_factory=dict)       # (l, p, t)
    mapped: dict = field(default_factory=dict)        # (p, t)
    touch: dict = field(default_factory=dict)         # (p, t)
    swap: dict = field(default_factory=dict)          # ((p, p'), t)
    cnot: dict = field(default_factory=dict)          # (i, t)
    advance: dict = field(default_factory=dict)       # (i, t)
    delay: dict = field(default_factory=dict)         # (i, t)
    pair: dict = field(default_factory=dict)          # ((l, l'), t)
    pair2: dict = field(default_factory=dict)         # ((l, l'), t)
    bridge: dict = field(default_factory=dict)        # (i, t)
    assum: dict = field(default_factory=dict)         # t


class TwoWayEncoder:
    """Incremental builder: call build_step(0), build_step(1), ... in order."""

    def __init__(
        self,
        num_logical: int,
        slice_: CnotSlice,
        dag: DepDag,
        coupling: CouplingGraph,
        options: EncodeOptions = EncodeOptions(),
    ):
        if num_logical > coupling.num_physical:
            raise EncodingError(
                f"{num_logical} logical qubits cannot map onto "
                f"{coupling.num_physical} physical qubits"
            )
        self.n_l = num_logical
        self.n_p = coupling.num_physical
        self.slice = slice_
        self.dag = dag
        self.coupling = coupling
        self.options = options
        self.cnf = CnfInstance()
        self.reg = VarRegistry()
        self.edges = sorted(coupling.edges)
        self.nbrs = [sorted(a) for a in coupling.adjacency()]
        self.logical_pairs = slice_.logical_pairs()
        self.m = len(slice_)
        self.built_steps = 0
        self.bridge_paths = distance2_pairs(coupling) if options.bridges else {}
        self.bridgeable = [
            i for i in range(self.m) if slice_.is_cx(i) and self.bridge_paths
        ]
        self.pairs2 = sorted({self._pair_key(i) for i in self.bridgeable})
        self.dist2 = sorted(self.bridge_paths)
        self.nbrs2: list[list[int]] = [[] for _ in range(self.n_p)]
        for (p, q) in self.dist2:
            self.nbrs2[p].append(q)
            self.nbrs2[q].append(p)

    # -- variable allocation ----------------------------------------------

    def _alloc_step(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        for l in range(self.n_l):
            for p in range(self.n_p):
                reg.map_var[(l, p, t)] = cnf.new_var()
        for p in range(self.n_p):
            reg.mapped[(p, t)] = cnf.new_var()
        for i in range(self.m):
            reg.cnot[(i, t)] = cnf.new_var()
            reg.advance[(i, t)] = cnf.new_var()
            reg.delay[(i, t)] = cnf.new_var()
        for pair in self.logical_pairs:
            reg.pair[(pair, t)] = cnf.new_var()
        if t >= 1:
            for p in range(self.n_p):
                reg.touch[(p, t)] = cnf.new_var()
            for e in self.edges:
                reg.swap[(e, t)] = cnf.new_var()
            if self.bridgeable:
                for i in self.bridgeable:
                    reg.bridge[(i, t)] = cnf.new_var()
                for pair in self.pairs2:
                    reg.pair2[(pair, t)] = cnf.new_var()
        reg.assum[t] = cnf.new_var()

    # -- constraint families ----------------------------------------------

    def _mapping_constraints(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        for l in range(self.n_l):
            cnf.exactly_one([reg.map_var[(l, p, t)] for p in range(self.n_p)])
        for p in range(self.n_p):
            cnf.at_most_one([reg.map_var[(l, p, t)] for l in range(self.n_l)])

    def _mapped_pqubits(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        for p in range(self.n_p):
            mp = reg.mapped[(p, t)]
            row = [reg.map_var[(l, p, t)] for l in range(self.n_l)]
            for mv in row:
                cnf.add_clause([-mv, mp])
            cnf.add_clause([-mp] + row)

    def swap_constraints(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        swaps = [reg.swap[(e, t)] for e in self.edges]
        touches = [reg.touch[(p, t)] for p in range(self.n_p)]
        for e in self.edges:
            s = reg.swap[(e, t)]
            cnf.add_clause([-s, reg.touch[(e[0], t)]])
            cnf.add_clause([-s, reg.touch[(e[1], t)]])
        if self.bridgeable:
            cnf.exactly_one(swaps + [reg.bridge[(i, t)] for i in self.bridgeable])
            # a qubit is touched only by a SWAP on one of its edges, so the
            # one SWAP touches exactly its ends and a bridge touches nothing
            for p in range(self.n_p):
                cnf.add_clause([-touches[p]] + [reg.swap[((min(p, q), max(p, q)), t)]
                                                for q in self.nbrs[p]])
        else:
            cnf.exactly_one(swaps)
            cnf.exactly_k(touches, 2)
        # mapping update under the chosen SWAP
        for (p, q) in self.edges:
            s = reg.swap[((p, q), t)]
            for l in range(self.n_l):
                prev_p, prev_q = reg.map_var[(l, p, t - 1)], reg.map_var[(l, q, t - 1)]
                cur_p, cur_q = reg.map_var[(l, p, t)], reg.map_var[(l, q, t)]
                cnf.add_clause([-s, -prev_p, cur_q])
                cnf.add_clause([-s, prev_p, -cur_q])
                cnf.add_clause([-s, -prev_q, cur_p])
                cnf.add_clause([-s, prev_q, -cur_p])
        # frame: untouched qubits keep their mapping
        for p in range(self.n_p):
            u = reg.touch[(p, t)]
            for l in range(self.n_l):
                prev, cur = reg.map_var[(l, p, t - 1)], reg.map_var[(l, p, t)]
                cnf.add_clause([u, -prev, cur])
                cnf.add_clause([u, prev, -cur])

    def ancillary_constraints(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        for (p, q) in self.edges:
            s = reg.swap[((p, q), t)]
            if self.options.ancillary:
                cnf.add_clause([-s, reg.mapped[(p, t)], reg.mapped[(q, t)]])
            else:
                cnf.add_clause([-s, reg.mapped[(p, t)]])
                cnf.add_clause([-s, reg.mapped[(q, t)]])

    def _near_constraints(self, pv: int, l: int, lp: int, t: int,
                          near: list[tuple[int, int]], nbrs: list[list[int]]) -> None:
        """pv <-> the images of l and lp form a pair in `near`.

        "pair => near" takes one neighbourhood clause per physical qubit and
        direction; each logical qubit sits on exactly one place, so this is
        equivalent to forbidding every pair outside `near`, in linear size.
        """
        cnf, mv = self.cnf, self.reg.map_var
        for (p, q) in near:
            cnf.add_clause([-mv[(l, p, t)], -mv[(lp, q, t)], pv])
            cnf.add_clause([-mv[(l, q, t)], -mv[(lp, p, t)], pv])
        for a, b in ((l, lp), (lp, l)):
            for p in range(self.n_p):
                cnf.add_clause([-pv, -mv[(a, p, t)]] + [mv[(b, q, t)] for q in nbrs[p]])

    def cnot_connection_constraints(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        for (l, lp) in self.logical_pairs:
            self._near_constraints(reg.pair[((l, lp), t)], l, lp, t, self.edges, self.nbrs)
        for i in range(self.m):
            pv = reg.pair[(self._pair_key(i), t)]
            if t >= 1 and (i, t) in reg.bridge:
                cnf.add_clause([-reg.cnot[(i, t)], pv, reg.bridge[(i, t)]])
            else:
                cnf.add_clause([-reg.cnot[(i, t)], pv])

    def bridge_constraints(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        for (l, lp) in self.pairs2:
            self._near_constraints(reg.pair2[((l, lp), t)], l, lp, t, self.dist2, self.nbrs2)
        for i in self.bridgeable:
            b = reg.bridge[(i, t)]
            cnf.add_clause([-b, reg.cnot[(i, t)]])
            cnf.add_clause([-b, reg.pair2[(self._pair_key(i), t)]])

    def cnot_dependency_constraints(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        for i in range(self.m):
            c, a, d = reg.cnot[(i, t)], reg.advance[(i, t)], reg.delay[(i, t)]
            cnf.exactly_one([c, a, d])
            for j in self.dag.pre[i]:
                cnf.add_clause([-c, reg.advance[(j, t)], reg.cnot[(j, t)]])
                cnf.add_clause([-a, reg.advance[(j, t)]])
            for j in self.dag.suc[i]:
                cnf.add_clause([-c, reg.cnot[(j, t)], reg.delay[(j, t)]])
                cnf.add_clause([-d, reg.delay[(j, t)]])
            if t == 0:
                cnf.add_clause([-a])  # nothing can be advanced before step 0
            else:
                prev_c, prev_a = reg.cnot[(i, t - 1)], reg.advance[(i, t - 1)]
                prev_d = reg.delay[(i, t - 1)]
                cnf.add_clause([-a, prev_c, prev_a])
                cnf.add_clause([-prev_d, c, d])
                # advanced <-> executed earlier; forces the canonical
                # delayed*/current/advanced* pattern in every model
                cnf.add_clause([-prev_c, a])
                cnf.add_clause([-prev_a, a])
            # a gate may only wait if it is unconnected or blocked upstream
            blockers = [-reg.pair[(self._pair_key(i), t)]]
            blockers += [reg.delay[(j, t)] for j in self.dag.pre[i]]
            cnf.add_clause([-d] + blockers)

    def _pair_key(self, i: int) -> tuple[int, int]:
        c, d = self.slice.pair(i)
        return tuple(sorted((c, d)))

    def _assumption(self, t: int) -> None:
        cnf, reg = self.cnf, self.reg
        alpha = reg.assum[t]
        delays = [reg.delay[(i, t)] for i in range(self.m)]
        for d in delays:
            cnf.add_clause([-alpha, -d])
        cnf.add_clause([alpha] + delays)

    # -- public interface --------------------------------------------------

    def build_step(self, t: int) -> None:
        if t != self.built_steps:
            raise EncodingError(f"steps must be built in order; next is {self.built_steps}")
        self._alloc_step(t)
        self._mapping_constraints(t)
        if t >= 1:
            self.swap_constraints(t)
            self.ancillary_constraints(t)
        self._mapped_pqubits(t)
        if t >= 1 and self.bridgeable:
            self.bridge_constraints(t)
        self.cnot_connection_constraints(t)
        self.cnot_dependency_constraints(t)
        self._assumption(t)
        self.built_steps = t + 1

    def assumption_literal(self, t: int) -> int:
        if t >= self.built_steps:
            raise EncodingError(f"step {t} not built yet")
        return self.reg.assum[t]
