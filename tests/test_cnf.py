from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsat.cnf import CnfError, CnfInstance
from swapsat.solver import solve


def enumerate_models(instance, over_vars):
    """Project all satisfying assignments onto `over_vars`.

    Enumerates the projection variables exhaustively and asks the solver
    whether each partial assignment extends to a model, so auxiliary
    variables never blow up the search.
    """
    models = set()
    for bits in product([False, True], repeat=len(over_vars)):
        assumptions = [v if b else -v for v, b in zip(over_vars, bits)]
        if solve(instance, assumptions).status.value == "SAT":
            models.add(bits)
    return models


def enumerate_full_models(instance):
    """All complete models, via blocking clauses on a working copy."""
    work = CnfInstance()
    work.num_vars = instance.num_vars
    work.clauses = [list(c) for c in instance.clauses]
    models = []
    while True:
        result = solve(work)
        if result.status.value != "SAT":
            return models
        model = tuple(result.model[1:])
        models.append(model)
        work.add_clause([-v if model[v - 1] else v
                        for v in range(1, work.num_vars + 1)])


def test_new_var_and_add_clause():
    cnf = CnfInstance()
    a, b = cnf.new_var(), cnf.new_var()
    cnf.add_clause([a, -b])
    assert cnf.num_vars == 2 and cnf.clauses == [[a, -b]]
    with pytest.raises(CnfError):
        cnf.add_clause([])
    with pytest.raises(CnfError):
        cnf.add_clause([3])
    with pytest.raises(CnfError):
        cnf.add_clause([0])


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3)])
def test_exactly_k_model_count(n, k):
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.exactly_k(lits, k)
    models = enumerate_models(cnf, lits)
    assert len(models) == comb(n, k)
    assert all(sum(m) == k for m in models)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_exactly_one_and_two(n):
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.exactly_one(lits)
    assert len(enumerate_models(cnf, lits)) == n

    cnf2 = CnfInstance()
    lits2 = cnf2.new_vars(n)
    cnf2.exactly_k(lits2, 2)
    assert len(enumerate_models(cnf2, lits2)) == comb(n, 2)


@pytest.mark.parametrize("n", [2, 4, 5, 7])
def test_at_most_one(n):
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.at_most_one(lits)
    assert len(enumerate_models(cnf, lits)) == n + 1


@pytest.mark.parametrize("n", range(2, 31))
def test_exactly_one_takes_the_smaller_at_most_one(n):
    # pairwise n(n-1)/2 against the counter's 7n-3, plus the at-least-one clause
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.exactly_one(lits)
    assert len(cnf.clauses) == 1 + min(n * (n - 1) // 2, 7 * n - 3)
    if n <= 14:
        assert cnf.num_vars == n
    else:
        assert cnf.num_vars == 3 * n


@pytest.mark.parametrize("n", range(5, 15))
def test_at_most_one_keeps_counter_above_four(n):
    # The per-place family keeps the counter.  Pairwise up to 14 literals
    # there made whole-device proofs longer: a random 8-qubit, 12-CNOT
    # circuit on sycamore54 went from 9,409 to 15,013 conflicts.
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.at_most_one(lits)
    assert len(cnf.clauses) == 7 * n - 3
    assert cnf.num_vars == 3 * n


@pytest.mark.parametrize("n", [5, 9])
def test_cardinality_model_counts_across_switch(n):
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.exactly_one(lits)
    assert enumerate_models(cnf, lits) == {tuple(i == j for j in range(n)) for i in range(n)}
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.at_most_one(lits)
    assert len(enumerate_models(cnf, lits)) == n + 1


def test_sequential_counter_aux_vars_are_determined():
    # biconditional definitions: each lits-assignment extends to exactly one model
    cnf = CnfInstance()
    lits = cnf.new_vars(5)
    cnf.exactly_k(lits, 2)
    full = enumerate_full_models(cnf)
    projected = {m[:5] for m in full}
    assert len(full) == len(projected) == comb(5, 2)
    # exactly_one just above the pairwise range uses the counter
    cnf = CnfInstance()
    lits = cnf.new_vars(15)
    cnf.exactly_one(lits)
    assert cnf.num_vars > 15
    full = enumerate_full_models(cnf)
    assert len(full) == len({m[:15] for m in full}) == 15


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(0, 7), data=st.data())
def test_exactly_k_solver_agreement(n, k, data):
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    if k > n:
        with pytest.raises(CnfError):
            cnf.exactly_k(lits, k)
        return
    cnf.exactly_k(lits, k)
    # pin a random subset of lits and compare satisfiability with arithmetic
    pins = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    chosen = data.draw(st.sets(st.sampled_from(lits), max_size=n))
    assumptions = [s * l for s, l in zip(pins, lits) if l in chosen]
    n_true = sum(1 for a in assumptions if a > 0)
    n_false = len(assumptions) - n_true
    feasible = n_true <= k and (n - n_false) >= k
    result = solve(cnf, assumptions)
    assert (result.status.value == "SAT") == feasible


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 18), data=st.data())
def test_exactly_one_solver_agreement(n, data):
    # both sides of the pairwise/counter switch at 14 literals
    cnf = CnfInstance()
    lits = cnf.new_vars(n)
    cnf.exactly_one(lits)
    pins = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    chosen = data.draw(st.sets(st.sampled_from(lits), max_size=n))
    assumptions = [s * l for s, l in zip(pins, lits) if l in chosen]
    n_true = sum(1 for a in assumptions if a > 0)
    n_false = len(assumptions) - n_true
    feasible = n_true <= 1 and n - n_false >= 1
    assert (solve(cnf, assumptions).status.value == "SAT") == feasible


def test_dimacs_roundtrip():
    cnf = CnfInstance()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([a, -b])
    cnf.add_clause([b, c, -a])
    text = cnf.to_dimacs()
    assert text.splitlines()[0] == "p cnf 3 2"
    again = CnfInstance.from_dimacs(text)
    assert again == cnf


def test_dimacs_units_follow_the_clauses():
    cnf = CnfInstance()
    a, b, c = cnf.new_vars(3)
    cnf.add_clause([a, -b])
    cnf.add_clause([b, c, -a])
    text = cnf.to_dimacs([-c, a])
    assert text.splitlines()[0] == "p cnf 3 4"
    again = CnfInstance.from_dimacs(text)
    assert again.num_vars == 3
    assert again.clauses == cnf.clauses + [[-c], [a]]
    assert cnf.to_dimacs(()) == cnf.to_dimacs()


def test_dimacs_parse_errors():
    with pytest.raises(CnfError):
        CnfInstance.from_dimacs("p cnf 2 1\n1 2")  # missing terminator
    with pytest.raises(CnfError):
        CnfInstance.from_dimacs("p dnf 2 1\n1 2 0\n")
    with pytest.raises(CnfError):
        CnfInstance.from_dimacs("p cnf 2 2\n1 2 0\n")  # count mismatch
    for text in ("p cnf x 1\n1 0\n", "p cnf 2 1.0\n1 0\n", "p cnf -1 0\n",
                 "p cnf 2 -1\n", "p cnf 2 1\n1 a 0\n", "p cnf 2 1\n1 2.0 0\n"):
        with pytest.raises(CnfError):
            CnfInstance.from_dimacs(text)
    parsed = CnfInstance.from_dimacs("c comment\np cnf 2 1\nc mid\n1 -2 0\n")
    assert parsed.clauses == [[1, -2]]
