import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ipstruct.cli import build_parser, main
from ipstruct import channel_from_kraus, is_cptp, zoo
from ipstruct.serialization import (
    channel_from_json,
    channel_to_json,
    code_states_to_json,
    complex_matrix_to_json,
    dumps,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_text(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--mode", "noiseless",
    )
    assert code == 0
    assert "shape:         [1, 1]" in out


def test_analyze_json_depolarize(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "depolarize_B.json"),
        "--mode", "noiseless", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [2]
    assert doc["cofactors"] == [2]
    assert doc["tolerance"]["equality"] == 1e-9
    assert max(doc["residuals"].values()) < 1e-8


def test_analyze_stochastic_autoembed(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "uncond_classical.json"),
        "--mode", "unconditional", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [1, 1]
    assert doc["input"]["kind"] == "stochastic"


def test_analyze_fixed_structure_reports_init_freedom(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "qutrit_half_fail.json"),
        "--mode", "fixed-structure", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [2]
    assert doc["initialization_free"] == [False]
    assert doc["residuals"]["kraus_invariance"] < 1e-8


def test_init_free_flags_do_not_depend_on_seed(fixtures_dir, capsys):
    # squash_three has two (1, 1) sectors, so only the tie-break orders them
    flags = set()
    for seed in range(6):
        code, out, _ = run_cli(
            capsys, "analyze", "--channel", str(fixtures_dir / "squash_three.json"),
            "--mode", "fixed-structure", "--seed", str(seed), "--json",
        )
        assert code == 0
        flags.add(tuple(json.loads(out)["initialization_free"]))
    assert len(flags) == 1


def _analyze_with_failing_dgees(info, fixtures_dir, capsys, monkeypatch):
    """``analyze`` on ucp_d3, which is not self-adjoint, so its split takes the
    ordered Schur form; LAPACK ``dgees`` is stubbed to return ``info(n)``."""
    def failing_dgees(select, a, **kwargs):
        n = a.shape[0]
        return a, 0, np.zeros(n), np.zeros(n), np.zeros((n, n)), np.array([3.0 * n]), info(n)

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", failing_dgees)
    return run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "ucp_d3.json"),
        "--mode", "noiseless",
    )


def test_analyze_schur_failure_exits_3(fixtures_dir, capsys, monkeypatch):
    # info n + 2: a selected eigenvalue no longer satisfies the selection after reordering
    code, _, err = _analyze_with_failing_dgees(lambda n: n + 2, fixtures_dir, capsys, monkeypatch)
    assert code == 3
    assert "Schur" in err


@pytest.mark.parametrize("info, reason", [
    (lambda n: 1, "QR iteration"),
    (lambda n: n + 1, "too close to reorder"),
    (lambda n: n + 2, "left the selection"),
], ids=["qr-iteration", "reorder", "selection-changed"])
def test_analyze_every_schur_failure_code_exits_3(info, reason, fixtures_dir, capsys,
                                                  monkeypatch):
    code, _, err = _analyze_with_failing_dgees(info, fixtures_dir, capsys, monkeypatch)
    assert code == 3
    assert "ordered Schur form failed" in err and reason in err


def test_analyze_schur_failure_after_the_certified_solve_exits_3(tmp_path, capsys, monkeypatch):
    # the whole spectrum of a diagonal unitary channel at d = 8 is peripheral,
    # which the certified solve cannot prove, so the ordered Schur form answers
    path = tmp_path / "diagonal_unitary.json"
    u = np.diag(np.exp(1j * np.sqrt(np.arange(8))))
    path.write_text(dumps(channel_to_json(channel_from_kraus([u]))))
    monkeypatch.setattr(scipy.linalg.lapack, "dgees", lambda select, a, **kwargs: (
        a, 0, None, None, None, np.array([3.0 * len(a)]), 1))
    code, _, err = run_cli(capsys, "analyze", "--channel", str(path),
                           "--mode", "unitarily-noiseless")
    assert code == 3
    assert "ordered Schur form failed" in err and "QR iteration" in err


def test_analyze_symmetric_eigensolve_failure_exits_3(fixtures_dir, capsys, monkeypatch):
    # depolarize_B is self-adjoint, so its split takes the symmetric eigensolve
    def failing_eigh(*args, **kwargs):
        raise scipy.linalg.LinAlgError("the algorithm failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", failing_eigh)
    code, _, err = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "depolarize_B.json"),
        "--mode", "noiseless",
    )
    assert code == 3
    assert "symmetric eigensolve" in err
    # a LinAlgError from an eigensolve that no site converts is a numerical failure too
    monkeypatch.undo()
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    code, _, err = run_cli(capsys, "analyze", "--channel", str(fixtures_dir / "depolarize_B.json"))
    assert code == 3 and err.startswith("numerical failure: the algorithm failed to converge")
    monkeypatch.undo()
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigh)
    code, _, err = run_cli(
        capsys, "verify-code", "--channel", str(fixtures_dir / "qutrit_half_fail.json"),
        "--code", str(fixtures_dir / "code_qutrit_half_pair.json"), "--level", "preserved",
    )
    assert code == 3 and err.startswith("numerical failure: the algorithm failed to converge")


def test_analyze_without_spectral_gap_exits_3(tmp_path, capsys):
    # dephasing with an interior eigenvalue 1e-7 from the unit circle
    eps = 1e-7
    ch = channel_from_kraus([
        np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * np.diag([1.0, 0.0]),
        np.sqrt(eps) * np.diag([0.0, 1.0]),
    ])
    path = tmp_path / "weak_dephasing.json"
    path.write_text(dumps(channel_to_json(ch)))
    code, _, _ = run_cli(capsys, "analyze", "--channel", str(path),
                         "--mode", "unitarily-noiseless")
    assert code == 3


@pytest.mark.parametrize("gamma, shape", [(5e-9, [8]), (1.2e-8, None), (1.5e-8, None),
                                          (1.8e-8, None), (5e-8, [4])])
def test_analyze_amplitude_damping_across_the_fixed_cut(tmp_path, capsys, gamma, shape):
    # amplitude damping (x) 1_4 at d = 8: the coherences (lambda ~ 1 - gamma / 2) and
    # the population (lambda = 1 - gamma) fall on either side of PERIPHERAL = 1e-8
    # for gamma in [1.1e-8, 2e-8), and the selected set is no algebra: exit 3 with
    # nothing on stdout.  Below it the whole M_8 is fixed, above it |0><0| (x) M_4
    damping = [np.diag([1.0, np.sqrt(1.0 - gamma)]), np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])]
    path = tmp_path / "amplitude_damping.json"
    path.write_text(dumps(channel_to_json(channel_from_kraus([np.kron(k, np.eye(4))
                                                              for k in damping]))))
    code, out, _ = run_cli(capsys, "analyze", "--channel", str(path), "--mode", "noiseless",
                           "--json")
    if shape is None:
        assert (code, out) == (3, "")
    else:
        doc = json.loads(out)
        assert (code, doc["shape"], doc["cofactors"]) == (0, shape, [1])


def test_analyze_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "analyze", "--channel", str(bad))
    assert code == 2
    assert "error:" in err


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--channel", "/nope/missing.json")
    assert code == 2


def test_analyze_infinite_tol_exits_2(fixtures_dir, capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "depolarize_B.json"),
        "--tol", "inf",
    )
    assert code == 2 and out == ""
    assert "error: tolerance must be positive and finite" in err


@pytest.mark.parametrize("mode", ["noiseless", "unitarily-noiseless", "unconditional",
                                  "fixed-structure"])
def test_analyze_negative_seed_exits_2(fixtures_dir, capsys, mode):
    # exit 1 is a negative verdict, so a bad seed must not surface as a traceback
    code, out, err = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--mode", mode, "--seed", "-1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: seed must be a non-negative integer")
    assert "Traceback" not in err


def test_analyze_tol_is_recorded(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--tol", "1e-6", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tolerance"] == {"equality": 1e-6, "subspace": 1e-6}


# ---------------------------------------------------------------------------
# verify-code
# ---------------------------------------------------------------------------

def test_verify_code_pass(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "cyclic_four.json"),
        "--code", str(fixtures_dir / "code_cyclic_four_02.json"),
        "--level", "preserved",
    )
    assert code == 0
    assert out.startswith("PASS")


@pytest.mark.parametrize("channel,code_doc,level,verdict,failing_map", [
    ("cyclic_four", "code_cyclic_four_02", "noiseless", False, "time-average"),
    ("qutrit_half_fail", "code_qutrit_half_pair", "correctable", False, "time-average"),
    ("depolarize_B", "code_unitary_a_half", "noiseless", True, None),
    ("cyclic_four", "code_cyclic_four_02", "correctable", True, None),
    ("cyclic_four", "code_cyclic_four_02", "preserved", True, "absent"),
    ("dephasing_qubit", "code_plus_minus", "preserved", False, "absent"),
    ("dephasing_qubit", "code_cbit", "fixed", True, "absent"),
])
def test_verify_code_failing_map(fixtures_dir, capsys, channel, code_doc, level, verdict,
                                 failing_map):
    # a failed verdict exits 1; the noiseless and correctable levels name the
    # time average when they fail
    code, out, _ = run_cli(
        capsys, "verify-code", "--channel", str(fixtures_dir / f"{channel}.json"),
        "--code", str(fixtures_dir / f"{code_doc}.json"), "--level", level, "--json",
    )
    doc = json.loads(out)
    assert code == (0 if verdict else 1)
    assert doc["verdict"] is verdict
    assert doc["detail"].get("failing_map", "absent") == failing_map


def test_verify_code_weak_condition_failure(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--code", str(fixtures_dir / "code_plus_minus.json"),
        "--level", "preserved",
    )
    assert code == 1
    assert "FAIL" in out and "witness" in out


@pytest.mark.parametrize("level", ["preserved", "noiseless"])
def test_verify_code_annihilated_code_fails_with_a_witness(tmp_path, capsys, level):
    kill, doc = tmp_path / "kill.json", tmp_path / "code.json"
    kill.write_text(dumps(channel_to_json(channel_from_kraus([np.diag([0.0, 0.0, 1.0])]))))
    doc.write_text(dumps(code_states_to_json([np.diag([1.0, 0.0, 0.0]),
                                              np.diag([0.0, 1.0, 0.0])])))
    argv = ["verify-code", "--channel", str(kill), "--code", str(doc), "--level", level]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["detail"]["worst_pair"] == {
        "first": [[0, 1.0]], "second": [[1, 1.0]], "prior": 0.0}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.startswith("FAIL") and "witness" in out


def test_verify_code_fixed_level(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--code", str(fixtures_dir / "code_cbit.json"),
        "--level", "fixed", "--json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_verify_code_correctable_level(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "ucp_d3.json"),
        "--code", str(fixtures_dir / "code_ucp_sub.json"),
        "--level", "correctable",
    )
    assert code == 0


@pytest.mark.parametrize("level", ["fixed", "preserved", "noiseless", "correctable"])
def test_verify_code_dimension_mismatch_exits_2(fixtures_dir, capsys, level):
    for channel, code_doc in [("dephasing_qubit", "code_ucp_sub"), ("depolarize_B", "code_cbit")]:
        code, _, err = run_cli(
            capsys, "verify-code",
            "--channel", str(fixtures_dir / f"{channel}.json"),
            "--code", str(fixtures_dir / f"{code_doc}.json"),
            "--level", level,
        )
        assert code == 2
        assert "error: code dimension does not match channel input" in err


def test_verify_code_trace_increasing_map_exits_2(fixtures_dir, tmp_path, capsys):
    gain = tmp_path / "gain.json"
    for factor in (2.0, 1.0 + 1e-6):
        gain.write_text(dumps(channel_to_json(channel_from_kraus([np.sqrt(factor) * np.eye(2)]))))
        code, _, err = run_cli(
            capsys, "verify-code", "--channel", str(gain),
            "--code", str(fixtures_dir / "code_cbit.json"), "--level", "noiseless",
        )
        assert code == 2
        assert "error: noiseless check requires a trace non-increasing map" in err


_FIXTURE_PAIRS = [
    ("dephasing_qubit", "code_cbit"), ("dephasing_qubit", "code_plus_minus"),
    ("depolarize_B", "code_unitary_a_half"), ("depolarize_B", "ns_vs_code"),
    ("measure_then_depolarize", "code_product_a_ground"),
    ("cyclic_four", "code_cyclic_four_02"), ("ucp_d3", "code_ucp_sub"),
    ("qutrit_half_fail", "code_qutrit_half_pair"), ("squash_three", "code_squash_segment"),
]


@pytest.mark.parametrize("level", ["noiseless", "correctable", "preserved"])
def test_verify_code_tight_tol_is_not_an_input_error(fixtures_dir, capsys, level):
    # rounding in sum K^dag K of a composite R o E stays inside the trace
    # guard's allowance; the verdicts themselves are rounding-driven at this
    # tolerance and are not pinned
    pairs = _FIXTURE_PAIRS + ([("five_qubit_depolarize_one", "code_five_qubit_logical")]
                              if level == "correctable" else [])
    for channel, code_doc in pairs:
        code, _, err = run_cli(
            capsys, "verify-code", "--channel", str(fixtures_dir / f"{channel}.json"),
            "--code", str(fixtures_dir / f"{code_doc}.json"), "--level", level,
            "--tol", "1e-15",
        )
        assert code in (0, 1), (channel, code_doc, err)


def test_verify_code_infinite_tol_exits_2(fixtures_dir, capsys):
    for level in ("preserved", "noiseless"):
        code, out, err = run_cli(
            capsys, "verify-code", "--channel", str(fixtures_dir / "ucp_d3.json"),
            "--code", str(fixtures_dir / "code_ucp_sub.json"), "--level", level,
            "--tol", "inf",
        )
        assert code == 2 and out == ""
        assert "error: tolerance must be positive and finite" in err


def test_verify_code_five_qubit_preserved(fixtures_dir, capsys):
    # the d = 32 flagship code: 34 states and mixtures, 561 pairs per sweep
    code, out, _ = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "five_qubit_depolarize_one.json"),
        "--code", str(fixtures_dir / "code_five_qubit_logical.json"),
        "--level", "preserved", "--json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


# ---------------------------------------------------------------------------
# non-finite or malformed numbers: exit 2 on every verb that reads them
# ---------------------------------------------------------------------------

def _with_entry(src, dst, path, value=float("nan")):
    doc = json.loads(src.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    dst.write_text(json.dumps(doc))
    return str(dst)


def test_analyze_nan_kraus_exits_2(fixtures_dir, tmp_path, capsys):
    bad = _with_entry(fixtures_dir / "dephasing_qubit.json", tmp_path / "nan.json",
                      ["kraus", 0, 0, 0, 0])
    code, _, err = run_cli(capsys, "analyze", "--channel", bad, "--mode", "noiseless")
    assert code == 2
    assert "error:" in err


def test_verify_code_nan_state_exits_2(fixtures_dir, tmp_path, capsys):
    bad = _with_entry(fixtures_dir / "code_cbit.json", tmp_path / "nan.json",
                      ["states", 0, 0, 0, 0])
    code, _, err = run_cli(
        capsys, "verify-code", "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--code", bad, "--level", "preserved",
    )
    assert code == 2
    assert "error:" in err


def test_classical_maxcode_nan_entry_exits_2(fixtures_dir, tmp_path, capsys):
    bad = _with_entry(fixtures_dir / "cyclic_four.json", tmp_path / "nan.json",
                      ["matrix", 0, 0])
    code, _, err = run_cli(capsys, "classical-maxcode", "--stochastic", bad)
    assert code == 2
    assert "error:" in err


_MALFORMED_VERBS = {
    "channel": lambda fx, bad: ["analyze", "--channel", bad, "--mode", "noiseless"],
    "code": lambda fx, bad: ["verify-code", "--channel", fx("dephasing_qubit"),
                             "--code", bad, "--level", "preserved"],
    "projector": lambda fx, bad: ["transpose", "--channel", fx("dephasing_qubit"),
                                  "--projector", bad],
    "stochastic": lambda fx, bad: ["classical-maxcode", "--stochastic", bad],
}


@pytest.mark.parametrize("kind,source,path,value", [
    ("channel", "dephasing_qubit", ["kraus", 0, 0, 0], ["x", 0.0]),
    ("channel", "dephasing_qubit", ["dim_in"], "one"),
    ("code", "code_cbit", ["states", 0, 0, 0], [1.0, "0j"]),
    ("projector", None, ["matrix", 0, 0], ["a", 0]),
    ("channel", "dephasing_qubit", ["kraus", 0, 0, 0], [1.0, 0.0, 99]),
    ("channel", "dephasing_qubit", ["kraus", 0, 0, 0], None),
    ("stochastic", "cyclic_four", ["n_in"], "one"),
], ids=["kraus-entry", "dim-in", "code-entry", "projector-entry", "kraus-entry-three",
        "kraus-entry-null", "stochastic-size"])
def test_malformed_number_exits_2(fixtures_dir, tmp_path, capsys, kind, source, path, value):
    # a number that does not parse is an input error (exit 2), not a traceback
    if source is None:
        src = tmp_path / "projector.json"
        src.write_text(dumps({"matrix": complex_matrix_to_json(np.eye(2))}))
    else:
        src = fixtures_dir / f"{source}.json"
    bad = _with_entry(src, tmp_path / "bad.json", path, value)
    fx = lambda name: str(fixtures_dir / f"{name}.json")
    code, _, err = run_cli(capsys, *_MALFORMED_VERBS[kind](fx, bad))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# transpose
# ---------------------------------------------------------------------------

def test_transpose_full_emits_channel(fixtures_dir, capsys):
    code, out, err = run_cli(
        capsys, "transpose",
        "--channel", str(fixtures_dir / "dephasing_qubit.json"), "--full",
    )
    assert code == 0
    ch = channel_from_json(json.loads(out))
    assert ch.dim_in == 2 and is_cptp(ch).trace_preserving
    assert "self-check" in err and "tp_residual" in err


def test_transpose_projector_file(fixtures_dir, capsys):
    code, out, err = run_cli(
        capsys, "transpose",
        "--channel", str(fixtures_dir / "five_qubit_depolarize_one.json"),
        "--projector", str(fixtures_dir / "five_qubit_projector.json"),
    )
    assert code == 0
    ch = channel_from_json(json.loads(out))
    assert ch.dim_in == 32
    assert "support_restored" in err


def test_transpose_zero_projector_exits_3(fixtures_dir, tmp_path, capsys):
    zp = tmp_path / "zero.json"
    zp.write_text(dumps({"matrix": complex_matrix_to_json(np.zeros((2, 2)))}))
    code, _, err = run_cli(
        capsys, "transpose",
        "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--projector", str(zp),
    )
    assert code == 3
    assert "numerical failure" in err


def test_transpose_non_projector_exits_2(fixtures_dir, tmp_path, capsys):
    np_file = tmp_path / "slanted.json"
    np_file.write_text(dumps({"matrix": complex_matrix_to_json(np.diag([1.0, 0.5]))}))
    code, _, _ = run_cli(
        capsys, "transpose",
        "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--projector", str(np_file),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# classical-maxcode
# ---------------------------------------------------------------------------

def test_classical_maxcode(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "classical-maxcode",
        "--stochastic", str(fixtures_dir / "cyclic_four.json"), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["code"] == [0, 2] and doc["size"] == 2


@pytest.mark.parametrize("extra", [[], ["--all"]], ids=["code", "all"])
def test_classical_maxcode_builds_the_graph_once(fixtures_dir, capsys, monkeypatch, extra):
    import ipstruct.classical
    import ipstruct.cli

    calls = []
    original = ipstruct.classical.adjacency_graph

    def counted(sc):
        calls.append(sc)
        return original(sc)

    for module in (ipstruct.classical, ipstruct.cli):
        monkeypatch.setattr(module, "adjacency_graph", counted)
    code, out, _ = run_cli(
        capsys, "classical-maxcode",
        "--stochastic", str(fixtures_dir / "squash_three.json"), "--json", *extra,
    )
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["code"] == [0, 1]


def test_classical_maxcode_all(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "classical-maxcode",
        "--stochastic", str(fixtures_dir / "two_code_classical.json"),
        "--all", "--json",
    )
    assert code == 0
    assert json.loads(out)["all_maximum_codes"] == [[0, 1], [2, 3]]


@pytest.mark.parametrize("extra", [[], ["--all"]], ids=["code", "all"])
def test_classical_maxcode_runs_the_branch_and_bound_once(fixtures_dir, capsys, monkeypatch,
                                                          extra):
    import ipstruct.classical

    calls = []
    original = ipstruct.classical._maximum_sets

    def counted(g, every):
        calls.append(every)
        return original(g, every)

    monkeypatch.setattr(ipstruct.classical, "_maximum_sets", counted)
    code, out, _ = run_cli(
        capsys, "classical-maxcode",
        "--stochastic", str(fixtures_dir / "two_code_classical.json"), "--json", *extra,
    )
    assert code == 0
    assert calls == [bool(extra)]
    doc = json.loads(out)
    assert doc["code"] == [0, 1] and doc["size"] == 2
    assert doc.get("all_maximum_codes", [[0, 1], [2, 3]]) == [[0, 1], [2, 3]]


@pytest.mark.parametrize("n,message", [
    (21, "enumeration is limited to 20 vertices (got 21)"),
    (30, "enumeration is limited to 20 vertices (got 30)"),
    (31, "exact solver is limited to 30 symbols (got 31)"),
])
def test_classical_maxcode_all_guards(tmp_path, capsys, monkeypatch, n, message):
    # above 20 vertices --all is refused with the enumeration guard, and above
    # 30 with the exact solver's, without a search in either case
    import ipstruct.classical
    from ipstruct import Graph, graph_to_channel
    from ipstruct.serialization import stochastic_to_json

    monkeypatch.setattr(ipstruct.classical, "_maximum_sets", None)
    f = tmp_path / "big.json"
    f.write_text(dumps(stochastic_to_json(graph_to_channel(Graph.from_edges(n, [])))))
    code, out, err = run_cli(capsys, "classical-maxcode", "--stochastic", str(f), "--all")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_classical_maxcode_rejects_channel_doc(fixtures_dir, capsys):
    code, _, err = run_cli(
        capsys, "classical-maxcode",
        "--stochastic", str(fixtures_dir / "dephasing_qubit.json"),
    )
    assert code == 2


@pytest.mark.parametrize("verb", [
    ["classical-maxcode", "--stochastic"],
    ["analyze", "--mode", "noiseless", "--channel"],
], ids=["classical-maxcode", "analyze"])
def test_empty_stochastic_matrix_exits_2(tmp_path, capsys, verb):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"n_in": 0, "n_out": 1, "matrix": [[]]}))
    code, out, err = run_cli(capsys, *verb, str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("verb", [
    ["analyze", "--mode", "noiseless"],
    ["verify-code", "--code", "code_cbit.json", "--level", "fixed"],
    ["transpose", "--full"],
], ids=["analyze", "verify-code", "transpose"])
def test_kraus_operators_without_columns_exit_2(tmp_path, capsys, fixtures_dir, verb):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"dim_in": 0, "dim_out": 1, "kraus": [[[]]]}))
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in verb]
    code, out, err = run_cli(capsys, *argv, "--channel", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_classical_maxcode_guard_exits_2(tmp_path, capsys):
    from ipstruct import Graph, graph_to_channel
    from ipstruct.serialization import stochastic_to_json

    sc = graph_to_channel(Graph.from_edges(31, []))
    f = tmp_path / "big.json"
    f.write_text(dumps(stochastic_to_json(sc)))
    code, _, err = run_cli(capsys, "classical-maxcode", "--stochastic", str(f))
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# finite Kraus entries whose products overflow: a clean exit, never a traceback
# ---------------------------------------------------------------------------

def _overflowing_channel(tmp_path, d):
    # 1e200 * identity: every entry is finite, but E(X) and S reach 1e400
    path = tmp_path / f"overflow_{d}.json"
    path.write_text(dumps(channel_to_json(channel_from_kraus([1e200 * np.eye(d)]))))
    return str(path)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("mode", ["noiseless", "unitarily-noiseless", "fixed-structure"])
def test_overflowing_superoperator_exits_2(tmp_path, capsys, d, mode):
    # the finiteness check of Superoperator catches the overflow before any solver sees it
    code, out, err = run_cli(capsys, "analyze", "--channel", _overflowing_channel(tmp_path, d),
                             "--mode", mode)
    assert code == 2 and out == ""
    assert "superoperator matrix has non-finite entries" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("argv,says", [
    (["transpose", "--full"], "operator of shape"),
    (["analyze", "--mode", "unconditional"], "operator of shape"),
    (["verify-code", "--level", "fixed"], "fixed-point residual 0"),
    (["verify-code", "--level", "preserved"], "mapped state 0"),
    (["verify-code", "--level", "noiseless"], "sum K^dag K"),
    (["verify-code", "--level", "correctable"], "operator of shape"),
], ids=["transpose", "unconditional", "fixed", "preserved", "noiseless", "correctable"])
def test_overflowing_image_exits_3(tmp_path, capsys, d, argv, says):
    # E(1) overflows to inf: its support is a numerical failure, never an all-zero
    # recovery, and a code level names the first overflowing image or sum K^dag K
    # rather than reading the NaNs as a non-Hermitian input
    doc = tmp_path / "code.json"
    doc.write_text(dumps(code_states_to_json([np.diag(np.eye(d)[i]) for i in (0, 1)])))
    code_arg = ["--code", str(doc)] if argv[0] == "verify-code" else []
    code, out, err = run_cli(capsys, *argv, *code_arg, "--channel", _overflowing_channel(tmp_path, d))
    assert code == 3 and out == ""
    assert f"numerical failure: {says}" in err and "non-finite entries" in err


# ---------------------------------------------------------------------------
# fixtures verb, determinism, entry point
# ---------------------------------------------------------------------------

def test_fixture_files_are_what_the_package_writes(fixtures_dir, capsys):
    # every checked-in document is byte-identical to the writer's output for it
    names = sorted(p.stem for p in fixtures_dir.glob("*.json"))
    assert len(names) == 24
    for name in names:
        if name == "five_qubit_projector":
            written = dumps({"matrix": complex_matrix_to_json(zoo.five_qubit_code_projector())})
        else:
            # a code_ prefix names a code fixture
            code, written, _ = run_cli(capsys, "fixtures", "--name", name.removeprefix("code_"))
            assert code == 0, name
        assert written == (fixtures_dir / f"{name}.json").read_text(), name


def test_fixtures_listing(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    assert "dephasing_qubit" in out and "cyclic_four" in out


def test_fixtures_dump_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "--name", "depolarize_B")
    assert code == 0
    ch = channel_from_json(json.loads(out))
    assert ch.dim_in == 4


def test_fixtures_unknown_name(capsys):
    code, _, err = run_cli(capsys, "fixtures", "--name", "nope")
    assert code == 2


def test_reports_are_byte_identical_across_runs(fixtures_dir, capsys):
    argv = ["analyze", "--channel", str(fixtures_dir / "depolarize_B.json"),
            "--mode", "noiseless", "--seed", "3", "--json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


# ---------------------------------------------------------------------------
# one parser serves every in-process call
# ---------------------------------------------------------------------------

def test_shared_parser_keeps_no_tolerance_between_calls(fixtures_dir, capsys):
    channel = str(fixtures_dir / "dephasing_qubit.json")
    _, out, _ = run_cli(capsys, "analyze", "--channel", channel, "--tol", "1e-6", "--json")
    assert json.loads(out)["tolerance"] == {"equality": 1e-6, "subspace": 1e-6}
    _, out, _ = run_cli(capsys, "analyze", "--channel", channel, "--json")
    assert json.loads(out)["tolerance"] == {"equality": 1e-9, "subspace": 1e-8}


def test_shared_parser_keeps_no_format_between_calls(fixtures_dir, capsys):
    channel = str(fixtures_dir / "dephasing_qubit.json")
    _, out, _ = run_cli(capsys, "analyze", "--channel", channel, "--json")
    assert json.loads(out)["verb"] == "analyze"
    _, out, _ = run_cli(capsys, "analyze", "--channel", channel)
    assert out.startswith("mode:          noiseless\n")


def test_shared_parser_survives_a_usage_error(fixtures_dir, capsys):
    channel = str(fixtures_dir / "dephasing_qubit.json")
    code_doc = str(fixtures_dir / "code_cbit.json")
    with pytest.raises(SystemExit) as exc:
        main(["verify-code", "--channel", channel, "--code", code_doc])
    assert exc.value.code == 2
    assert "--level" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "verify-code", "--channel", channel,
                           "--code", code_doc, "--level", "fixed", "--json")
    assert code == 0 and json.loads(out)["verdict"] is True


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


# ---------------------------------------------------------------------------
# each verb takes only the options it applies
# ---------------------------------------------------------------------------

def test_each_verb_takes_only_the_options_it_applies():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {verb: sorted(o for a in p._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for verb, p in sub.choices.items()}
    assert options == {
        "analyze": ["--channel", "--json", "--mode", "--seed", "--tol"],
        "verify-code": ["--channel", "--code", "--json", "--level", "--tol"],
        "transpose": ["--channel", "--full", "--projector", "--tol"],
        "classical-maxcode": ["--all", "--json", "--stochastic"],
        "fixtures": ["--json", "--name"],
    }
    assert sum(map(len, options.values())) == 19


@pytest.mark.parametrize("argv", [
    ["classical-maxcode", "--stochastic", "{fx}/cyclic_four.json", "--tol", "1e-6"],
    ["fixtures", "--tol", "1e-6"],
    ["transpose", "--channel", "{fx}/dephasing_qubit.json", "--full", "--json"],
    ["analyze", "--channel", "{fx}/dephasing_qubit.json", "--text"],
], ids=["classical-maxcode-tol", "fixtures-tol", "transpose-json", "analyze-text"])
def test_an_option_a_verb_does_not_apply_is_a_usage_error(fixtures_dir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(fx=fixtures_dir) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_only_the_verbs_that_apply_a_tolerance_record_one(fixtures_dir, capsys):
    _, out, _ = run_cli(capsys, "classical-maxcode",
                        "--stochastic", str(fixtures_dir / "cyclic_four.json"), "--all", "--json")
    assert "tolerance" not in json.loads(out)
    channel = str(fixtures_dir / "dephasing_qubit.json")
    _, out, _ = run_cli(capsys, "analyze", "--channel", channel, "--tol", "1e-6", "--json")
    assert json.loads(out)["tolerance"] == {"equality": 1e-6, "subspace": 1e-6}
    _, out, _ = run_cli(capsys, "verify-code", "--channel", channel,
                        "--code", str(fixtures_dir / "code_cbit.json"), "--level", "preserved",
                        "--tol", "1e-6", "--json")
    assert json.loads(out)["tolerance"] == {"equality": 1e-6, "subspace": 1e-6}


def test_console_script_runs():
    # the child does not inherit pytest's pythonpath setting, only the environment
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ipstruct.cli", "fixtures"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "dephasing_qubit" in proc.stdout
