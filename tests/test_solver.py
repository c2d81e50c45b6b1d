import random
import shlex
import sys
from heapq import heappush
from itertools import combinations, product

import pytest

from conftest import DIMACS_COMMAND
from swapsat.cnf import CnfInstance
from swapsat.solver import (
    ExternalSolver,
    InternalSolver,
    SolverError,
    Status,
    _check_model,
    make_solver,
    solve,
)


def brute_force_sat(instance, assumptions=()):
    n = instance.num_vars
    fixed = {abs(l): l > 0 for l in assumptions}
    for bits in product([False, True], repeat=n):
        assign = (False,) + bits
        if any(assign[v] != want for v, want in fixed.items()):
            continue
        if all(any(assign[l] if l > 0 else not assign[-l] for l in cl)
               for cl in instance.clauses):
            return True
    return False


def random_instance(rng, n_vars, n_clauses, width=3):
    cnf = CnfInstance()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        size = rng.randint(1, width)
        vars_ = rng.sample(range(1, n_vars + 1), min(size, n_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vars_])
    return cnf


def test_trivial_cases():
    cnf = CnfInstance()
    a = cnf.new_var()
    assert solve(cnf).status is Status.SAT  # no clauses
    cnf.add_clause([a])
    cnf.add_clause([-a])
    assert solve(cnf).status is Status.UNSAT


def test_differential_small_random():
    rng = random.Random(11)
    for _ in range(250):
        cnf = random_instance(rng, rng.randint(1, 8), rng.randint(1, 20))
        expected = brute_force_sat(cnf)
        result = solve(cnf)
        assert (result.status is Status.SAT) == expected
        if expected:
            assert result.model is not None  # solve() verified it already


def test_differential_with_assumptions():
    rng = random.Random(12)
    for _ in range(150):
        cnf = random_instance(rng, rng.randint(2, 7), rng.randint(1, 14))
        k = rng.randint(1, cnf.num_vars)
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, cnf.num_vars + 1), k)]
        expected = brute_force_sat(cnf, assumptions)
        assert (solve(cnf, assumptions).status is Status.SAT) == expected


def pigeonhole(holes):
    """PHP(holes+1, holes): unsatisfiable by the pigeonhole principle."""
    cnf = CnfInstance()
    var = {(p, h): cnf.new_var()
           for p in range(holes + 1) for h in range(holes)}
    for p in range(holes + 1):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1, p2 in combinations(range(holes + 1), 2):
            cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


@pytest.mark.parametrize("holes", [2, 3, 4, 5])
def test_pigeonhole_unsat(holes):
    assert solve(pigeonhole(holes)).status is Status.UNSAT


def test_incremental_reuse():
    cnf = CnfInstance()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([a, b])
    solver = InternalSolver(cnf)
    assert solver.solve().status is Status.SAT
    cnf.add_clause([-a])
    cnf.add_clause([-b, c])
    assert solver.solve([-c]).status is Status.UNSAT
    assert solver.solve([c]).status is Status.SAT
    # growing the instance after an assumption-UNSAT answer still works
    d = cnf.new_var()
    cnf.add_clause([c, d])
    result = solver.solve()
    assert result.status is Status.SAT
    assert result.model[b] and result.model[c]


def test_incremental_growth_rounds():
    """One solver over six rounds, each adding variables and clauses.

    The literal-indexed lists move their negative half whenever the
    instance grows, so every round's answer is checked by brute force.
    """
    rng = random.Random(14)
    sizes = [1] + [2] * 4 + [3] * 10 + [4] * 5
    for _ in range(20):
        cnf = CnfInstance()
        solver = InternalSolver(cnf)
        for _ in range(6):
            cnf.new_vars(2)
            n = cnf.num_vars
            for _ in range(4):
                vars_ = rng.sample(range(1, n + 1), min(rng.choice(sizes), n))
                cnf.add_clause([v if rng.random() < 0.5 else -v for v in vars_])
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, n + 1), rng.randint(0, 2))]
            result = solver.solve(assumptions)
            assert (result.status is Status.SAT) == brute_force_sat(cnf, assumptions)
            if result.status is Status.SAT:
                assert all(result.model[abs(l)] == (l > 0) for l in assumptions)


def test_assumption_out_of_range():
    cnf = CnfInstance()
    cnf.new_var()
    with pytest.raises(SolverError):
        InternalSolver(cnf).solve([5])


def test_check_model_reads_negative_literals():
    # a clause of negative literals only is read through the negated half
    # of the literal-indexed table
    cnf = CnfInstance()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([-a, -b])
    cnf.add_clause([a, b])
    _check_model(cnf, [False, True, False, False])
    _check_model(cnf, [False, False, True, True])
    with pytest.raises(SolverError, match=r"\[-1, -2\]"):
        _check_model(cnf, [False, True, True, False])
    with pytest.raises(SolverError, match=r"\[1, 2\]"):
        _check_model(cnf, [False, False, False, True])
    with pytest.raises(SolverError, match="2 values for 3 variables"):
        _check_model(cnf, [False, True, False])


def test_stats_populated():
    result = solve(pigeonhole(4))
    assert result.stats["conflicts"] > 0
    assert result.stats["time"] >= 0


def test_time_limit_unknown():
    cnf = pigeonhole(8)  # hard enough to exceed a microscopic budget
    result = InternalSolver(cnf).solve(time_limit=1e-4)
    assert result.status in (Status.UNKNOWN, Status.UNSAT)


def test_time_limit_without_conflicts():
    """A long conflict-free search still looks at the clock."""
    cnf = CnfInstance()
    x = cnf.new_vars(30000)
    for a, b in zip(x, x[1:]):
        cnf.add_clause([-a, b])
    assert InternalSolver(cnf).solve(time_limit=1e-3).status is Status.UNKNOWN


def test_activity_rescale_rebuilds_heap():
    """After an activity rescale every heap key is the current activity."""
    cnf = CnfInstance()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([a, b])
    cnf.add_clause([a, -b])
    solver = InternalSolver(cnf)
    solver._ingest()
    solver.activity[c] = 5.0
    heappush(solver.heap, (-5.0, c))  # what bumping the unassigned c leaves
    solver.trail_lim.append(len(solver.trail))
    solver._enqueue(-a, None)
    confl = solver._propagate()
    assert confl is not None
    solver.var_inc = 2e100  # bumping a and b passes the rescale threshold of 1e100
    solver._analyze(confl)
    assert solver.var_inc < 1e50
    assert all(key == -solver.activity[v] for key, v in solver.heap)


def test_external_backend_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        cnf = random_instance(rng, rng.randint(2, 6), rng.randint(1, 12))
        expected = brute_force_sat(cnf)
        ext = ExternalSolver(cnf, DIMACS_COMMAND + " {file}")
        result = ext.solve()
        assert (result.status is Status.SAT) == expected


def test_external_backend_assumptions():
    cnf = CnfInstance()
    a, b = cnf.new_vars(2)
    cnf.add_clause([a, b])
    ext = ExternalSolver(cnf, DIMACS_COMMAND)
    assert ext.solve([-a, -b]).status is Status.UNSAT
    result = ext.solve([-a])
    assert result.status is Status.SAT and result.model[b]


def test_external_backend_reads_the_instance_with_assumption_units(tmp_path):
    cnf = CnfInstance()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([a, -b])
    cnf.add_clause([b, c, -a])
    copy = tmp_path / "seen.cnf"
    script = "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2]); print('s UNKNOWN')"
    command = shlex.join([sys.executable, "-c", script, "{file}", str(copy)])
    assert ExternalSolver(cnf, command).solve([-c, b]).status is Status.UNKNOWN
    assert copy.read_text() == cnf.to_dimacs([-c, b])


def random_3sat(seed, n_vars, n_clauses):
    rng = random.Random(seed)
    cnf = CnfInstance()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        cnf.add_clause([v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n_vars + 1), 3)])
    return cnf


def check_learned_table(solver):
    """Every learned index is a live clause; no deleted one is watched."""
    assert all(solver.clauses[ci] is not None for ci in solver.learned)
    deleted = {ci for ci, c in enumerate(solver.clauses) if c is None}
    assert not deleted & solver.learned.keys()
    assert not any(deleted.intersection(ws) for ws in solver.watches)


@pytest.mark.parametrize("instance,expected", [
    (pigeonhole(5), Status.UNSAT),
    (pigeonhole(6), Status.UNSAT),
] + [(random_3sat(seed, 90, 378), None) for seed in range(8)],
    ids=["php5", "php6"] + [f"3sat-{seed}" for seed in range(8)])
def test_clause_deletion_keeps_answers_and_tables(instance, expected):
    solver = InternalSolver(instance)
    solver.max_learned = 50
    rounds = []
    reduce_db = solver._reduce_db

    def checked_reduce_db():
        reduce_db()
        check_learned_table(solver)
        rounds.append(len(solver.learned))

    solver._reduce_db = checked_reduce_db
    result = solver.solve()
    assert len(rounds) >= 2
    # no clause is deleted below the default limit on these instances
    reference = InternalSolver(instance).solve()
    assert result.status is (expected or reference.status)
    if result.status is Status.SAT:
        _check_model(instance, result.model)
        # the reduced database still answers later calls under assumptions
        for lit in (1, -2, 3):
            again = solver.solve([lit])
            assert again.status is InternalSolver(instance).solve([lit]).status
            if again.status is Status.SAT:
                assert again.model[abs(lit)] == (lit > 0)
        check_learned_table(solver)


def test_make_solver():
    cnf = CnfInstance()
    assert isinstance(make_solver(cnf, "internal"), InternalSolver)
    assert isinstance(make_solver(cnf, "external:foo"), ExternalSolver)
    with pytest.raises(SolverError):
        make_solver(cnf, "quantum")


def test_ingest_watches_no_root_false_literal():
    """Clauses whose first literals are false at level 0 watch the first two
    that are not, in clause order; the others watch their first two."""
    cnf = CnfInstance()
    a, b, c, d, e = cnf.new_vars(5)
    solver = InternalSolver(cnf)

    def ingest(lits_list, root_false):
        for lits in lits_list:
            cnf.add_clause(lits)
        start = len(solver.clauses)
        solver._ingest()
        stored = solver.clauses[start:]
        assert [c[:2] for c in stored] == [
            [lit for lit in lits if lit not in root_false][:2]
            for lits in lits_list if len(lits) > 1]
        assert [sorted(c) for c in stored] == [sorted(lits) for lits in lits_list
                                               if len(lits) > 1]
        for lit in range(-cnf.num_vars, cnf.num_vars + 1):
            if lit and solver.watches[lit]:
                assert solver.val[lit] != -1, lit

    ingest([[-a], [a, b, c], [b, a, c], [b, c, a], [a, c, b, d], [b, -a, c]], {a})
    assert solver.solve().status is Status.SAT
    # the second ingestion backtracks from the model and meets -a, propagated
    # already, and -e at level 0; a clause watching a would never wake
    ingest([[-e], [e, a, d, b], [d, e, b], [d, a, b], [c, a, e, b], [a, e, c, d],
            [c, d, e, a]], {a, e})
    assert solver.solve().status is Status.SAT


def heap_ordered(heap):
    return all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))


def test_grow_keeps_the_heap_ordered():
    for seed in range(6):
        cnf = random_3sat(100 + seed, 40, 170)
        solver = InternalSolver(cnf)
        result = solver.solve([1, -2, 3])
        assert solver.conflicts > 0
        # bumps and backjumps leave keys below zero in the heap
        solver._cancel_until(0)
        assert any(key < 0 for key, _ in solver.heap)
        old = solver.nvars
        cnf.new_vars(25)
        solver._grow(cnf.num_vars)
        assert heap_ordered(solver.heap)
        assert {(0.0, v) for v in range(old + 1, old + 26)} <= set(solver.heap)
        assert len(solver.val) == len(solver.watches) == 2 * (old + 25) + 1
        # the literal-indexed lists keep each old literal's slot
        assert solver.val[-old - 25] == solver.val[-old - 24] == 0
        if result.status is Status.SAT:
            assert solver.solve().status is Status.SAT


def test_sat_answer_leaves_a_reusable_solver():
    """After a SAT answer, new clauses and assumptions give the answers of
    a fresh solver, with valid models."""
    for seed in range(12):
        rng = random.Random(200 + seed)
        cnf = random_3sat(200 + seed, 30, 110)
        solver = InternalSolver(cnf)
        result = solver.solve([rng.choice((1, -1)) * rng.randint(1, 30)])
        for _ in range(4):
            if result.status is not Status.SAT:
                break
            cnf.new_vars(3)
            n = cnf.num_vars
            for _ in range(12):
                cnf.add_clause([v if rng.random() < 0.5 else -v
                                for v in rng.sample(range(1, n + 1), 3)])
            lit = rng.choice((1, -1)) * rng.randint(1, n)
            result = solver.solve([lit])
            fresh = InternalSolver(cnf).solve([lit])
            assert result.status is fresh.status
            if result.status is Status.SAT:
                _check_model(cnf, result.model)
                assert result.model[abs(lit)] == (lit > 0)
