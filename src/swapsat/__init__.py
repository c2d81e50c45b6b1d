"""SWAP-optimal quantum circuit layout synthesis via incremental SAT."""

from .circuit import Circuit, CircuitError, CnotSlice, Gate, circuit_depth, extract_cnot_slice
from .cnf import CnfError, CnfInstance
from .coupling import (
    BUILTIN_PLATFORMS,
    CouplingError,
    CouplingGraph,
    distance2_pairs,
    grid_graph,
    linear_graph,
    load_coupling,
)
from .dag import DepDag, build_dependency_dag, build_relaxed_dag
from .encoder import EncodeOptions, EncodingError, TwoWayEncoder, VarRegistry
from .qasm import QasmError, emit_qasm, parse_qasm
from .solver import ExternalSolver, InternalSolver, SolveResult, SolverError, Status, make_solver, solve
from .synthesis import (
    Bridge,
    Limits,
    MappedResult,
    Plan,
    PlanStep,
    Swap,
    SynthesisError,
    compute_metrics,
    decode_model,
    plan_from_dict,
    plan_to_dict,
    reconstruct,
    synthesize,
)
from .verify import VerifyReport, check_structural, check_unitary_equivalence, oracle_min_swaps

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PLATFORMS", "Bridge", "Circuit", "CircuitError",
    "CnfError", "CnfInstance", "CnotSlice", "CouplingError", "CouplingGraph",
    "DepDag", "EncodeOptions", "EncodingError", "ExternalSolver", "Gate",
    "InternalSolver", "Limits", "MappedResult", "Plan", "PlanStep", "QasmError",
    "SolveResult", "SolverError", "Status", "Swap", "SynthesisError",
    "TwoWayEncoder", "VarRegistry", "VerifyReport", "build_dependency_dag",
    "build_relaxed_dag", "check_structural", "check_unitary_equivalence",
    "circuit_depth", "compute_metrics", "decode_model", "distance2_pairs",
    "emit_qasm", "extract_cnot_slice", "grid_graph", "linear_graph",
    "load_coupling", "make_solver", "oracle_min_swaps", "parse_qasm",
    "plan_from_dict", "plan_to_dict", "reconstruct", "solve", "synthesize",
]
