import math

import pytest

from swapsat.qasm import QasmError, emit_qasm, eval_param, parse_qasm


def test_parse_minimal():
    circ = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
    assert circ.num_qubits == 2
    assert [g.name for g in circ.gates] == ["cx"]
    assert circ.gates[0].qubits == (0, 1)


def test_parse_params_kept_verbatim():
    circ = parse_qasm('OPENQASM 2.0;\nqreg q[1];\nu3(pi/2, 0, pi) q[0];\nrz(-0.25) q[0];\n')
    assert circ.gates[0].params == ("pi/2", "0", "pi")
    assert circ.gates[1].params == ("-0.25",)


def test_eval_param():
    assert eval_param("pi/2") == pytest.approx(math.pi / 2)
    assert eval_param("3*pi/4") == pytest.approx(3 * math.pi / 4)
    assert eval_param("-1.5") == -1.5
    with pytest.raises(ValueError):
        eval_param("__import__('os')")
    with pytest.raises(ValueError):
        eval_param("theta")


def test_measure_and_creg():
    circ = parse_qasm(
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    assert circ.cregs == (("c", 2),)
    assert circ.gates[1].cbits == (("c", 0),)


def test_barrier_forms():
    circ = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nbarrier q;\nbarrier q[0],q[2];\n")
    assert circ.gates[0].qubits == (0, 1, 2)
    assert circ.gates[1].qubits == (0, 2)


def test_comments_and_multiline_statements():
    circ = parse_qasm(
        "OPENQASM 2.0; // header\nqreg q[2];\ncx // split\n q[0],\n q[1];\n"
    )
    assert circ.gates[0].name == "cx"


def test_roundtrip_is_stable(or_circuit):
    text = emit_qasm(or_circuit)
    again = parse_qasm(text, name="or")
    assert emit_qasm(again) == text
    assert [g.name for g in again.gates] == [g.name for g in or_circuit.gates]


@pytest.mark.parametrize("bad,msg", [
    ("qreg q[2];\ncx q[0],q[1];", "OPENQASM"),
    ("OPENQASM 2.0;\ncx q[0],q[1];", "qreg"),
    ("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[1];", "decompose"),
    ("OPENQASM 2.0;\nqreg q[2];\nif(c==1) x q[0];", "unsupported"),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[5];", "out of range"),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];", "repeated"),
    ("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];", "unknown"),
    ("OPENQASM 2.0;\nqreg q[2];\nh q;", "whole-register"),
    ("OPENQASM 2.0;\nqreg q[2];\nh q[0]", "unterminated"),
])
def test_parse_errors(bad, msg):
    with pytest.raises(QasmError, match=msg):
        parse_qasm(bad)


@pytest.mark.parametrize("stmt,msg", [
    ("measure q[0] -> d[0];", "unknown register 'd'"),
    ("measure r[0] -> c[0];", "unknown register 'r'"),
    ("measure q[0] -> c[2];", "classical index 2 out of range"),
    ("measure q -> c;", "whole-register"),
    ("measure q[0] -> c;", "whole-register"),
    ("measure q[0] c[0];", "bad measure statement"),
    ("measure q[0] -> c[0] -> c[1];", "bad measure statement"),
    # the measured qubit is checked by Circuit, at the measure's line
    ("measure q[2] -> c[0];", "addresses qubit out of range"),
    ("rz(1/0) q[0];", "cannot be evaluated"),
    ("rz(1e999) q[0];", "not finite"),
    ("rz(1e308*10) q[0];", "not finite"),
])
def test_operand_and_angle_errors_at_their_line(stmt, msg):
    with pytest.raises(QasmError, match=msg) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n" + stmt + "\n")
    assert err.value.line == 5


@pytest.mark.parametrize("decls", [
    "qreg q[2];\ncreg c[2];\ncreg c[1];",
    "qreg q[2];\ncreg c[2];\nqreg c[1];",
    "qreg q[2];\ncreg c[1];\ncreg q[2];",
    "creg q[2];\ncreg c[1];\nqreg q[2];",
], ids=["creg-creg", "creg-qreg", "qreg-creg", "creg-then-qreg"])
def test_register_declared_twice(decls):
    # a name may name one register only, whatever the kinds and their order
    with pytest.raises(QasmError, match="register '[qc]' is declared twice") as err:
        parse_qasm("OPENQASM 2.0;\n" + decls + "\nh q[0];\n")
    assert err.value.line == 4


def test_error_reports_line_number():
    with pytest.raises(QasmError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbadgate q[0];\n")
    assert err.value.line == 4


def test_gate_after_measure_rejected():
    with pytest.raises(QasmError, match="follows a measure") as err:
        parse_qasm(
            "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
            "measure q[0] -> c[0];\nh q[0];\n"
        )
    assert err.value.line == 5
