import json
import subprocess
import sys

import numpy as np
import pytest

from ipstruct.cli import main
from ipstruct import channel_from_kraus
from ipstruct.serialization import (
    channel_from_json,
    channel_to_json,
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


def test_analyze_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "analyze", "--channel", str(bad))
    assert code == 2
    assert "error:" in err


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "--channel", "/nope/missing.json")
    assert code == 2


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


def test_verify_code_fail_is_exit_1(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "cyclic_four.json"),
        "--code", str(fixtures_dir / "code_cyclic_four_02.json"),
        "--level", "noiseless", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["detail"]["failing_map"] == "time-average"


def test_verify_code_weak_condition_failure(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--code", str(fixtures_dir / "code_plus_minus.json"),
        "--level", "preserved",
    )
    assert code == 1
    assert "FAIL" in out and "witness" in out


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


def test_verify_code_dimension_mismatch_exits_2(fixtures_dir, capsys):
    code, _, err = run_cli(
        capsys, "verify-code",
        "--channel", str(fixtures_dir / "dephasing_qubit.json"),
        "--code", str(fixtures_dir / "code_ucp_sub.json"),
        "--level", "preserved",
    )
    assert code == 2


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
    assert ch.dim_in == 2 and ch.trace_preserving
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


def test_classical_maxcode_all(fixtures_dir, capsys):
    code, out, _ = run_cli(
        capsys, "classical-maxcode",
        "--stochastic", str(fixtures_dir / "two_code_classical.json"),
        "--all", "--json",
    )
    assert code == 0
    assert json.loads(out)["all_maximum_codes"] == [[0, 1], [2, 3]]


def test_classical_maxcode_rejects_channel_doc(fixtures_dir, capsys):
    code, _, err = run_cli(
        capsys, "classical-maxcode",
        "--stochastic", str(fixtures_dir / "dephasing_qubit.json"),
    )
    assert code == 2


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
# fixtures verb, determinism, entry point
# ---------------------------------------------------------------------------

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


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ipstruct.cli", "fixtures"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "dephasing_qubit" in proc.stdout
