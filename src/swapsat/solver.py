"""SAT solving: a bundled incremental CDCL solver and an external DIMACS backend.

The internal solver is bound to one CnfInstance and ingests newly appended
clauses on each solve() call, keeping learned clauses (sound because clauses
are only ever added).  Assumptions are handled as forced first decisions.
Its values and watch lists are indexed by the literal itself, so the
propagation loop does no sign or variable arithmetic per watched clause.
The external backend re-solves from scratch through a DIMACS subprocess with
assumptions emulated as unit clauses.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from heapq import heapify, heappop, heappush

from .cnf import CnfInstance


class Status(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


class SolverError(RuntimeError):
    """Internal inconsistency or backend failure."""


@dataclass
class SolveResult:
    status: Status
    model: list[bool] | None = None  # indexed 1..n, entry 0 unused
    stats: dict = field(default_factory=dict)


_TRUE, _FALSE, _UNDEF = 1, -1, 0


def _check_model(instance: CnfInstance, model: list[bool]) -> None:
    # holds[lit] is the value of lit: model[v] for v > 0 and, through
    # negative indexing, the negation of model[v] at holds[-v]; that needs
    # one model entry per variable, or holds[-v] would read another one
    if len(model) != instance.num_vars + 1:
        raise SolverError(f"model has {len(model) - 1} values for {instance.num_vars} variables")
    holds = model + [not x for x in reversed(model[1:])]
    for clause in instance.clauses:
        if not any(map(holds.__getitem__, clause)):
            raise SolverError(f"model does not satisfy clause {clause}")


class InternalSolver:
    """CDCL with two watched literals, first-UIP learning, VSIDS and restarts.

    Per-literal state lives in lists of 2n+1 slots indexed by the literal
    itself: ``val[lit]`` is the value of ``lit`` and, through Python's
    negative indexing, ``val[-lit]`` that of its negation (slot 0 is
    unused).  ``watches`` has the same layout.  Per-variable state
    (``level``, ``reason``, ``phase``, ``activity``) is indexed 1..n.
    """

    def __init__(self, instance: CnfInstance):
        self.instance = instance
        self.nvars = 0
        self.clauses: list[list[int] | None] = []
        self.learned: dict[int, float] = {}  # learned clause index -> activity
        self.val: list[int] = [_UNDEF]  # indexed by literal
        self.watches: list[list[int]] = [[]]  # indexed by literal
        self.level: list[int] = [0]
        self.reason: list[int | None] = [None]
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.root_conflict = False
        self.n_ingested = 0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.max_learned = 4000

    # -- state growth ------------------------------------------------------

    def _grow(self, nvars: int) -> None:
        old = self.nvars
        if nvars <= old:
            return
        added = nvars - old
        self.nvars = nvars
        # literals 1..old keep their slots and -old..-1 stay at the end, so
        # the new literals' slots go in between
        self.val[old + 1:old + 1] = [_UNDEF] * (2 * added)
        self.watches[old + 1:old + 1] = [[] for _ in range(2 * added)]
        self.level += [0] * added
        self.reason += [None] * added
        self.phase += [False] * added
        self.activity += [0.0] * added
        # every key in the heap is at most (0.0, old), so the new keys,
        # appended in increasing order, keep it ordered
        self.heap += [(0.0, v) for v in range(old + 1, nvars + 1)]

    def _ingest(self) -> None:
        self._grow(self.instance.num_vars)
        self._cancel_until(0)
        new = self.instance.clauses[self.n_ingested:]
        self.n_ingested += len(new)
        if self.root_conflict:
            return
        val, watches, clauses = self.val, self.watches, self.clauses
        for lits in new:
            # Ingestion happens at level 0: watched literals must not be
            # false already, or the clause would never wake its watchers.
            # Almost every clause can watch its first two literals as they
            # are; a root-false literal further on is never watched.
            if len(lits) > 1 and val[lits[0]] != _FALSE and val[lits[1]] != _FALSE:
                keep = list(lits)
            else:
                keep = [lit for lit in lits if val[lit] != _FALSE]
                if not keep:
                    self.root_conflict = True
                    return
                if len(keep) == 1:
                    if val[keep[0]] == _UNDEF:
                        self._enqueue(keep[0], None)
                    continue
                keep += [lit for lit in lits if val[lit] == _FALSE]
            ci = len(clauses)
            clauses.append(keep)
            watches[keep[0]].append(ci)
            watches[keep[1]].append(ci)
        if self._propagate() is not None:
            self.root_conflict = True

    # -- assignment / propagation -----------------------------------------

    def _enqueue(self, lit: int, reason: int | None) -> None:
        self.val[lit] = _TRUE
        self.val[-lit] = _FALSE
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> int | None:
        trail, val, watches, clauses = self.trail, self.val, self.watches, self.clauses
        level, reason = self.level, self.reason
        lvl = len(self.trail_lim)
        head = start = self.qhead
        confl = None
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            ws = watches[false_lit]
            kept = moved = 0  # watches kept in place and moved elsewhere
            for ci in ws:
                c = clauses[ci]
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                first_val = val[first]
                if first_val == _TRUE:
                    ws[kept] = ci
                    kept += 1
                    continue
                n = len(c)
                if n > 2:  # a binary clause has no other literal to watch
                    for k in range(2, n):
                        lit = c[k]
                        if val[lit] != _FALSE:
                            c[k] = c[1]
                            c[1] = lit
                            watches[lit].append(ci)
                            moved += 1
                            break
                    else:
                        lit = 0
                    if lit:
                        continue
                ws[kept] = ci
                kept += 1
                if first_val == _FALSE:
                    confl = ci
                    break
                val[first] = _TRUE
                val[-first] = _FALSE
                v = first if first > 0 else -first
                level[v] = lvl
                reason[v] = ci
                trail.append(first)
            if confl is not None:
                del ws[kept:kept + moved]
                break
            del ws[kept:]
        self.propagations += head - start
        self.qhead = head
        return confl

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        val, phase, activity, heap = self.val, self.phase, self.activity, self.heap
        for lit in self.trail[bound:]:
            val[lit] = val[-lit] = _UNDEF
            v = lit if lit > 0 else -lit
            # the saved phase is the sign of the variable's last assignment
            phase[v] = lit > 0
            heappush(heap, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        if len(heap) > 4 * self.nvars:
            # every unassigned variable's best entry already holds its
            # current activity, so dropping the others changes no decision
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable, keyed by its current activity."""
        val, activity = self.val, self.activity
        self.heap = [(-activity[v], v) for v in range(1, self.nvars + 1) if val[v] == _UNDEF]
        heapify(self.heap)

    # -- analysis ----------------------------------------------------------

    def _rescale_activity(self) -> None:
        activity = self.activity
        for u in range(1, self.nvars + 1):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        # the heap keys still hold the old scale
        self._rebuild_heap()

    def _bump_clause(self, ci: int) -> None:
        learned = self.learned
        if ci in learned:
            learned[ci] += self.cla_inc
            if learned[ci] > 1e20:
                for k in learned:
                    learned[k] *= 1e-20
                self.cla_inc *= 1e-20

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        clauses, trail, level, activity = self.clauses, self.trail, self.level, self.activity
        learnt = [0]
        # back: the highest level below the conflict level; kmax: the
        # position of its last literal in learnt, which gets watched
        back = kmax = 0
        seen = bytearray(self.nvars + 1)
        counter = 0
        p = 0  # no literal is 0
        index = len(trail)
        cur_level = len(self.trail_lim)
        var_inc = self.var_inc
        ci = confl
        while True:
            self._bump_clause(ci)
            for q in clauses[ci]:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if seen[v]:
                    continue
                lv = level[v]
                if lv:
                    seen[v] = 1
                    # every variable of an analysed clause is assigned, so
                    # its bump pushes no heap entry
                    activity[v] += var_inc
                    if activity[v] > 1e100:
                        self._rescale_activity()
                        var_inc = self.var_inc
                    if lv >= cur_level:
                        counter += 1
                    else:
                        if lv >= back:
                            back, kmax = lv, len(learnt)
                        learnt.append(q)
            index -= 1
            p = trail[index]
            while not seen[p if p > 0 else -p]:
                index -= 1
                p = trail[index]
            v = p if p > 0 else -p
            seen[v] = 0
            counter -= 1
            if not counter:
                break
            ci = self.reason[v]
        learnt[0] = -p
        if kmax:
            learnt[1], learnt[kmax] = learnt[kmax], learnt[1]
        self.var_inc /= 0.95
        self.cla_inc /= 0.999
        return learnt, back

    # -- learned clause management -----------------------------------------

    def _reduce_db(self) -> None:
        locked = {self.reason[abs(lit)] for lit in self.trail if self.reason[abs(lit)] is not None}
        learned = self.learned
        cand = [ci for ci in learned if ci not in locked and len(self.clauses[ci]) > 2]
        cand.sort(key=learned.__getitem__)
        for ci in cand[: len(cand) // 2]:
            self.clauses[ci] = None
            del learned[ci]
        # propagation never meets a deleted clause: its watches go now
        clauses = self.clauses
        for ws in self.watches:
            ws[:] = [ci for ci in ws if clauses[ci] is not None]

    # -- decisions ---------------------------------------------------------

    def _pick_branch_var(self) -> int | None:
        # every unassigned variable has a heap entry keyed by its activity
        heap, val = self.heap, self.val
        while heap:
            v = heappop(heap)[1]
            if val[v] == _UNDEF:
                return v
        return None

    @staticmethod
    def _luby(x: int) -> int:
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) >> 1
            seq -= 1
            x %= size
        return 1 << seq

    # -- main entry --------------------------------------------------------

    def solve(self, assumptions=(), time_limit: float | None = None) -> SolveResult:
        start = time.monotonic()
        assumptions = list(assumptions)
        self._ingest()
        stats = lambda: {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "time": time.monotonic() - start,
        }
        if self.root_conflict:
            return SolveResult(Status.UNSAT, stats=stats())
        for lit in assumptions:
            if not 0 < abs(lit) <= self.nvars:
                raise SolverError(f"assumption literal {lit} out of range")

        val = self.val
        restart_round = 0
        conflicts_this_round = 0
        budget = 100 * self._luby(restart_round)

        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_this_round += 1
                if len(self.trail_lim) == 0:
                    self.root_conflict = True
                    return SolveResult(Status.UNSAT, stats=stats())
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    # the negated UIP, assigned at the conflict level (at
                    # least 1), so it is unassigned after the backjump to 0
                    self._enqueue(learnt[0], None)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(ci)
                    self.watches[learnt[1]].append(ci)
                    self.learned[ci] = self.cla_inc
                    self._enqueue(learnt[0], ci)
                if len(self.learned) > self.max_learned:
                    self._reduce_db()
                    self.max_learned = int(self.max_learned * 1.3)
                if self.conflicts % 256 == 0 and time_limit is not None:
                    if time.monotonic() - start > time_limit:
                        return SolveResult(Status.UNKNOWN, stats=stats())
                continue

            if conflicts_this_round >= budget:
                conflicts_this_round = 0
                restart_round += 1
                budget = 100 * self._luby(restart_round)
                self._cancel_until(0)
                continue

            # a conflict-free search still looks at the clock; this comes
            # before the heap pop, which must be followed by a decision
            if self.decisions % 1024 == 0 and time_limit is not None:
                if time.monotonic() - start > time_limit:
                    return SolveResult(Status.UNKNOWN, stats=stats())

            # establish assumptions in order
            next_lit = None
            for lit in assumptions:
                if val[lit] == _FALSE:
                    return SolveResult(Status.UNSAT, stats=stats())
                if val[lit] == _UNDEF:
                    next_lit = lit
                    break
            if next_lit is None:
                v = self._pick_branch_var()
                if v is None:
                    model = [x == _TRUE for x in val[:self.nvars + 1]]
                    _check_model(self.instance, model)
                    # the next solve backtracks to level 0 as it ingests
                    return SolveResult(Status.SAT, model=model, stats=stats())
                next_lit = v if self.phase[v] else -v
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_lit, None)


def solve(instance: CnfInstance, assumptions=(), time_limit: float | None = None) -> SolveResult:
    """One-shot convenience wrapper around a fresh internal solver."""
    return InternalSolver(instance).solve(assumptions, time_limit)


class ExternalSolver:
    """DIMACS subprocess backend producing SAT-competition output.

    The command is a shell-style template; '{file}' is replaced by the CNF
    path, or the path is appended if no placeholder is present.  Assumptions
    are appended as unit clauses, so every call re-solves from scratch.
    """

    def __init__(self, instance: CnfInstance, command: str):
        self.instance = instance
        self.command = command

    def solve(self, assumptions=(), time_limit: float | None = None) -> SolveResult:
        start = time.monotonic()
        fd, path = tempfile.mkstemp(suffix=".cnf", prefix="swapsat_")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(self.instance.to_dimacs(assumptions))
            argv = shlex.split(self.command)
            if any("{file}" in a for a in argv):
                argv = [a.replace("{file}", path) for a in argv]
            else:
                argv.append(path)
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=time_limit
                )
            except subprocess.TimeoutExpired:
                return SolveResult(Status.UNKNOWN, stats={"time": time.monotonic() - start})
            except OSError as exc:
                raise SolverError(f"cannot run external solver {argv!r}: {exc}") from exc
        finally:
            os.unlink(path)
        return self._parse_output(proc, start)

    def _parse_output(self, proc, start: float) -> SolveResult:
        status = None
        lits: list[int] = []
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                verdict = line[2:].strip()
                if verdict == "SATISFIABLE":
                    status = Status.SAT
                elif verdict == "UNSATISFIABLE":
                    status = Status.UNSAT
                elif verdict in ("UNKNOWN", "INDETERMINATE"):
                    status = Status.UNKNOWN
            elif line.startswith("v "):
                for tok in line[2:].split():
                    lit = int(tok)
                    if lit != 0:
                        lits.append(lit)
        if status is None:
            raise SolverError(
                f"external solver produced no status line (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
        stats = {"time": time.monotonic() - start}
        if status is not Status.SAT:
            return SolveResult(status, stats=stats)
        model = [False] * (self.instance.num_vars + 1)
        for lit in lits:
            if abs(lit) <= self.instance.num_vars:
                model[abs(lit)] = lit > 0
        _check_model(self.instance, model)
        return SolveResult(Status.SAT, model=model, stats=stats)


def make_solver(instance: CnfInstance, spec: str = "internal"):
    """Build a solver bound to the instance from a CLI-style spec string."""
    if spec == "internal":
        return InternalSolver(instance)
    if spec.startswith("external:"):
        return ExternalSolver(instance, spec[len("external:"):])
    raise SolverError(f"unknown solver spec {spec!r}")
