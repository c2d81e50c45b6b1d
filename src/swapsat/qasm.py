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
    try:
        value = float(eval(compile(tree, "<param>", "eval"), {"__builtins__": {}}, {"pi": math.pi}))
    except ArithmeticError as exc:
        raise ValueError(f"parameter {text!r} cannot be evaluated: {exc}") from exc
    if not math.isfinite(value):
        raise ValueError(f"parameter {text!r} is not finite")
    return value


_REG_RE = re.compile(r"^[qc]reg\s+([a-zA-Z_][\w]*)\s*\[\s*(\d+)\s*\]$")
_APP_RE = re.compile(r"^([a-zA-Z_][\w]*)\s*(\(([^)]*)\))?\s*(.*)$")
_OPERAND_RE = re.compile(r"^([a-zA-Z_][\w]*)\s*(\[\s*(\d+)\s*\])?$")


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
    """Syntax, registers and classical indices are checked here, gates and
    their qubits by `Circuit`; either error carries the source line."""
    qreg_name = None
    num_qubits = 0
    qreg_sizes: dict[str, int] = {}
    cregs: list[tuple[str, int]] = []
    creg_sizes: dict[str, int] = {}
    gates: list[Gate] = []
    lines: list[int] = []  # source line of each gate
    saw_header = False

    def operand(part: str, sizes: dict[str, int], lineno: int) -> tuple[str, int]:
        """The register, one of `sizes`, and the index of a `reg[i]` operand."""
        part = part.strip()
        m = _OPERAND_RE.match(part)
        if not m:
            raise QasmError(f"bad operand {part!r}", lineno)
        reg, _, idx = m.groups()
        if reg not in sizes:
            raise QasmError(f"unknown register {reg!r}", lineno)
        if idx is None:
            raise QasmError(f"whole-register operand {part!r} is not supported", lineno)
        return reg, int(idx)

    def qubits(arglist: str, lineno: int) -> tuple[int, ...]:
        return tuple(operand(part, qreg_sizes, lineno)[1] for part in arglist.split(","))

    for stmt, lineno in _statements(text):
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM":
            if stmt not in ("OPENQASM 2.0", "OPENQASM 2"):
                raise QasmError(f"unsupported version statement {stmt!r}", lineno)
            saw_header = True
            continue
        if head == "include":
            continue
        if head in ("qreg", "creg"):
            m = _REG_RE.match(stmt)
            if not m:
                raise QasmError(f"bad {head} declaration {stmt!r}", lineno)
            reg, size = m.group(1), int(m.group(2))
            if reg in qreg_sizes or reg in creg_sizes:
                raise QasmError(f"register {reg!r} is declared twice", lineno)
            if head == "creg":
                cregs.append((reg, size))
                creg_sizes[reg] = size
                continue
            if qreg_name is not None:
                raise QasmError("multiple qreg declarations are not supported", lineno)
            qreg_name, num_qubits = reg, size
            qreg_sizes[reg] = size
            continue
        if qreg_name is None:
            raise QasmError("statement before qreg declaration", lineno)
        if head == "measure":
            sides = stmt[len("measure"):].split("->")
            if len(sides) != 2:
                raise QasmError(f"bad measure statement {stmt!r}", lineno)
            _, q = operand(sides[0], qreg_sizes, lineno)
            cname, c = operand(sides[1], creg_sizes, lineno)
            if c >= creg_sizes[cname]:
                raise QasmError(f"classical index {c} out of range", lineno)
            gates.append(Gate("measure", (q,), (), ((cname, c),), len(gates)))
            lines.append(lineno)
            continue
        if head == "barrier":
            rest = stmt[len("barrier"):].strip()
            if rest in ("", qreg_name):
                spanned = tuple(range(num_qubits))
            else:
                spanned = qubits(rest, lineno)
            gates.append(Gate("barrier", spanned, (), (), len(gates)))
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
        gates.append(Gate(gname, qubits(args, lineno), params, (), len(gates)))
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
