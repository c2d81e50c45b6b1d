"""OpenQASM 2.0 parsing and emission for the supported gate subset.

Supported: one qreg, optional cregs, the fixed gate set, measure, barrier.
Parameter expressions are kept as source text and only validated (literals,
pi, + - * / and parentheses), so emit(parse(text)) is byte-stable on params.
"""
from __future__ import annotations

import ast
import math
import re

from .circuit import Circuit, CircuitError, Gate, SUPPORTED_GATES

KNOWN_UNSUPPORTED = {
    "ccx", "cswap", "ccz", "cz", "cy", "ch", "crz", "cu1", "cu3", "id", "sx", "sxdg",
    "reset", "u0", "rzz", "rxx",
}


class QasmError(ValueError):
    """Syntax or unsupported-construct error with source position."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_ALLOWED_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
    ast.USub, ast.UAdd, ast.Constant, ast.Name, ast.Load,
)


def eval_param(text: str) -> float:
    """Evaluate an angle expression restricted to literals, pi and + - * /."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad parameter expression {text!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_EXPR_NODES):
            raise ValueError(f"disallowed construct in parameter {text!r}")
        if isinstance(node, ast.Name) and node.id != "pi":
            raise ValueError(f"unknown symbol {node.id!r} in parameter {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric literal in parameter {text!r}")
    return float(eval(compile(tree, "<param>", "eval"), {"__builtins__": {}}, {"pi": math.pi}))


_QREG_RE = re.compile(r"^qreg\s+([a-zA-Z_][\w]*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([a-zA-Z_][\w]*)\s*\[\s*(\d+)\s*\]$")
_MEASURE_RE = re.compile(
    r"^measure\s+([a-zA-Z_][\w]*)\s*(\[\s*(\d+)\s*\])?\s*->\s*([a-zA-Z_][\w]*)\s*(\[\s*(\d+)\s*\])?$"
)
_APP_RE = re.compile(r"^([a-zA-Z_][\w]*)\s*(\(([^)]*)\))?\s*(.*)$")
_QUBIT_RE = re.compile(r"^([a-zA-Z_][\w]*)\s*(\[\s*(\d+)\s*\])?$")


def _statements(text: str):
    """Yield (statement, line_number) with comments stripped."""
    no_comments = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("//", 1)[0]
        no_comments.append((body, lineno))
    buf = ""
    buf_line = 1
    for body, lineno in no_comments:
        for ch in body:
            if not buf.strip():
                buf_line = lineno
            if ch == ";":
                stmt = buf.strip()
                if stmt:
                    yield stmt, buf_line
                buf = ""
            else:
                buf += ch
        buf += " "
    if buf.strip():
        raise QasmError(f"unterminated statement {buf.strip()!r}", buf_line)


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Syntax, registers and indices are checked here, gate validity by
    `Circuit`; either error carries the source line."""
    qreg_name = None
    num_qubits = 0
    cregs: list[tuple[str, int]] = []
    creg_sizes: dict[str, int] = {}
    gates: list[Gate] = []
    lines: list[int] = []  # source line of each gate
    saw_header = False

    def resolve_qubits(arglist: str, lineno: int) -> list[int]:
        qubits = []
        for part in arglist.split(","):
            part = part.strip()
            m = _QUBIT_RE.match(part)
            if not m:
                raise QasmError(f"bad qubit argument {part!r}", lineno)
            reg, _, idx = m.groups()
            if reg != qreg_name:
                raise QasmError(f"unknown register {reg!r}", lineno)
            if idx is None:
                raise QasmError("whole-register gate application is not supported", lineno)
            q = int(idx)
            if q >= num_qubits:
                raise QasmError(f"qubit index {q} out of range", lineno)
            qubits.append(q)
        return qubits

    for stmt, lineno in _statements(text):
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM":
            if stmt not in ("OPENQASM 2.0", "OPENQASM 2"):
                raise QasmError(f"unsupported version statement {stmt!r}", lineno)
            saw_header = True
            continue
        if head == "include":
            continue
        if head == "qreg":
            m = _QREG_RE.match(stmt)
            if not m:
                raise QasmError(f"bad qreg declaration {stmt!r}", lineno)
            if qreg_name is not None:
                raise QasmError("multiple qreg declarations are not supported", lineno)
            qreg_name = m.group(1)
            num_qubits = int(m.group(2))
            continue
        if head == "creg":
            m = _CREG_RE.match(stmt)
            if not m:
                raise QasmError(f"bad creg declaration {stmt!r}", lineno)
            cregs.append((m.group(1), int(m.group(2))))
            creg_sizes[m.group(1)] = int(m.group(2))
            continue
        if qreg_name is None:
            raise QasmError("statement before qreg declaration", lineno)
        if head == "measure":
            m = _MEASURE_RE.match(stmt)
            if not m:
                raise QasmError(f"bad measure statement {stmt!r}", lineno)
            qname, _, qidx, cname, _, cidx = m.groups()
            if qname != qreg_name:
                raise QasmError(f"unknown register {qname!r}", lineno)
            if cname not in creg_sizes:
                raise QasmError(f"unknown classical register {cname!r}", lineno)
            if qidx is None or cidx is None:
                raise QasmError("whole-register measure is not supported", lineno)
            q, c = int(qidx), int(cidx)
            if q >= num_qubits:
                raise QasmError(f"qubit index {q} out of range", lineno)
            if c >= creg_sizes[cname]:
                raise QasmError(f"classical index {c} out of range", lineno)
            gates.append(Gate("measure", (q,), (), ((cname, c),), len(gates)))
            lines.append(lineno)
            continue
        if head == "barrier":
            rest = stmt[len("barrier"):].strip()
            if rest in ("", qreg_name):
                qubits = tuple(range(num_qubits))
            else:
                qubits = tuple(resolve_qubits(rest, lineno))
            gates.append(Gate("barrier", qubits, (), (), len(gates)))
            lines.append(lineno)
            continue
        if head in ("if", "opaque", "gate", "reset") or head.startswith("if("):
            raise QasmError(f"unsupported construct '{head.split('(')[0]}'", lineno)

        m = _APP_RE.match(stmt)
        if not m:
            raise QasmError(f"cannot parse statement {stmt!r}", lineno)
        gname, _, paramtext, args = m.groups()
        if gname not in SUPPORTED_GATES or gname in ("measure", "barrier"):
            if gname in KNOWN_UNSUPPORTED:
                raise QasmError(f"unsupported instruction '{gname}' (decompose first)", lineno)
            raise QasmError(f"unknown instruction '{gname}'", lineno)
        params: tuple[str, ...] = ()
        if paramtext is not None:
            params = tuple(p.strip() for p in paramtext.split(","))
            for p in params:
                try:
                    eval_param(p)
                except ValueError as exc:
                    raise QasmError(str(exc), lineno) from exc
        qubits = tuple(resolve_qubits(args, lineno))
        gates.append(Gate(gname, qubits, params, (), len(gates)))
        lines.append(lineno)

    if not saw_header:
        raise QasmError("missing OPENQASM 2.0 header", 1)
    if qreg_name is None:
        raise QasmError("missing qreg declaration", 1)
    try:
        return Circuit(num_qubits, tuple(gates), name=name, qreg_name=qreg_name,
                       cregs=tuple(cregs))
    except CircuitError as exc:
        raise QasmError(str(exc), lines[exc.gate]) from exc


def emit_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    q = circuit.qreg_name
    lines.append(f"qreg {q}[{circuit.num_qubits}];")
    for cname, size in circuit.cregs:
        lines.append(f"creg {cname}[{size}];")
    for g in circuit.gates:
        if g.name == "measure":
            cname, cidx = g.cbits[0]
            lines.append(f"measure {q}[{g.qubits[0]}] -> {cname}[{cidx}];")
        elif g.name == "barrier":
            if g.qubits == tuple(range(circuit.num_qubits)):
                lines.append(f"barrier {q};")
            else:
                lines.append("barrier " + ",".join(f"{q}[{i}]" for i in g.qubits) + ";")
        else:
            params = f"({','.join(g.params)})" if g.params else ""
            lines.append(f"{g.name}{params} " + ",".join(f"{q}[{i}]" for i in g.qubits) + ";")
    return "\n".join(lines) + "\n"
