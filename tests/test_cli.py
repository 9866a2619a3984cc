import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kacpal
from kacpal.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_h8(capsys):
    code, report = _run(capsys, ["verify", "2", "2", "--scope", "all"])
    assert code == 0
    assert report["ok"] is True
    assert report["tool"] == "kacpal"
    assert report["schema"] == 1
    assert report["context"] == {"n": 2, "N": 4, "degree": 2}
    names = {c["name"] for c in report["checks"]}
    assert {"associativity", "coassociativity", "counit", "antipode",
            "integral-invariance", "theta-order"} <= names
    assert all("identity" in c for c in report["checks"])
    # seconds per check, outside the deterministic part of the report
    timings = report["timings"]
    assert set(timings["checks"]) == {c["name"] for c in report["checks"]}
    assert all(s >= 0 for s in timings["checks"].values())
    assert timings["total_seconds"] >= 0


def test_verify_default_scope_is_all(capsys):
    """verify checks every basis element by default, here at dimension 162."""
    code, report = _run(capsys, ["verify", "3", "3"])
    assert code == 0
    assert report["data"]["scope"] == "all"
    assert report["data"]["dim"] == 162
    assoc = next(c for c in report["checks"] if c["name"] == "associativity")
    assert assoc["checked"] == 162**3


def test_report_determinism(capsys):
    code1, r1 = _run(capsys, ["verify", "2", "2"])
    code2, r2 = _run(capsys, ["verify", "2", "2"])
    assert code1 == code2 == 0
    r1.pop("timings")
    r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_gamma_table(capsys):
    code, report = _run(capsys, ["gamma-table", "2", "3"])
    assert code == 0
    entries = report["data"]["entries"]
    assert len(entries) == 36
    diag = next(e for e in entries if e["w"] == [1] and e["v"] == [1])
    assert diag["matches_reference"] is True
    # gamma(s_1, s_1) = t_1 = (1/2)(1 + x_1 + x_2 - x_1 x_2)
    assert diag["gamma"] == [
        {"exponents": [0, 0, 0], "coeff": ["1/2", "0/1"]},
        {"exponents": [0, 1, 0], "coeff": ["1/2", "0/1"]},
        {"exponents": [1, 0, 0], "coeff": ["1/2", "0/1"]},
        {"exponents": [1, 1, 0], "coeff": ["-1/2", "0/1"]},
    ]
    names = {c["name"] for c in report["checks"]}
    assert {"cocycle-identity", "cocycle-counit", "associativity-oracle",
            "reference-table"} <= names
    assert report["ok"] is True


def test_gamma_table_m2_has_no_reference(capsys):
    code, report = _run(capsys, ["gamma-table", "2", "2"])
    assert code == 0
    assert len(report["data"]["entries"]) == 4
    assert "matches_reference" not in report["data"]["entries"][0]


def test_twist_check(capsys):
    code, report = _run(capsys, ["twist-check", "2"])
    assert code == 0
    assert report["ok"] is True
    conditions = [c["name"] for c in report["checks"]]
    assert "twist-equation" in conditions
    assert any(c.startswith("strong-twist") for c in conditions)
    assert "superstrong" in conditions
    assert any(c.startswith("antipode") for c in conditions)
    assert any(c.startswith("embedded-twist(1,3,3)") for c in conditions)


def test_twist_check_wide_embeddings(capsys):
    # every embedding of J into B^(tensor m) has two live axes of 2m; the
    # character transform must not scan all 3^(2m) characters of each
    code, report = _run(capsys, ["twist-check", "3", "--max-m", "6"])
    assert code == 0
    embedded = [c for c in report["checks"] if c["name"].startswith("embedded-twist(")]
    assert len(embedded) == 1 + 3 + 6 + 10 + 15
    assert all(c["status"] == "pass" for c in embedded)
    assert any(c["name"].startswith("embedded-twist(5,6,6)") for c in embedded)


def test_twist_search(capsys):
    code, report = _run(capsys, ["twist-check", "2", "--search", "10", "--seed", "3"])
    assert code == 0
    search = report["data"]["converse-search"]
    assert search["samples"] == 10
    assert search["resolved"] is False


def test_rep_check(capsys):
    code, report = _run(capsys, ["rep-check", "2", "2", "1", "0"])
    assert code == 0
    assert report["ok"] is True
    assert report["data"]["simple"] is True


def test_rep_check_simple_at_m7(capsys):
    code, report = _run(capsys, ["rep-check", "3", "7", "1", "0"])
    assert code == 0
    assert report["ok"] is True
    assert report["data"]["simple"] is True


def test_inner_faithful(capsys):
    code, report = _run(capsys, ["inner-faithful", "2", "2", "1", "0", "--bruteforce"])
    assert code == 0
    assert report["data"]["criterion"] is True
    assert report["data"]["bruteforce"] is True
    code, report = _run(capsys, ["inner-faithful", "2", "2", "1", "1", "--bruteforce"])
    assert code == 0  # the implication check passes; the verdicts are data
    assert report["data"]["criterion"] is False
    assert report["data"]["bruteforce"] is False
    assert report["data"]["det_M"] == 0
    # the oracle enumerates the subgroups of the kernel K, not of Z_2^6
    code, report = _run(capsys, ["inner-faithful", "2", "6", "1", "0", "--bruteforce"])
    assert code == 0
    assert report["data"]["bruteforce"] is True


def test_invariants(capsys):
    code, report = _run(capsys, ["invariants", "2", "2", "1", "0", "--degree", "4"])
    assert code == 0
    dims = [d["dim"] for d in report["data"]["invariants"]]
    assert dims == [1, 0, 1, 0, 2]
    assert report["ok"] is True


def test_invariants_cyclic_m2_coincides_with_full(capsys):
    code, report = _run(
        capsys, ["invariants", "2", "2", "1", "0", "--degree", "2", "--subalgebra", "cyclic"]
    )
    assert code == 0
    assert report["data"]["subalgebra"] == "full"


def test_invariants_h33_degree_4(capsys):
    # a lock on the cost of the action: the integral of H(3,3) has 162
    # terms, acting on the 15 monomials of degree 4
    code, report = _run(capsys, ["invariants", "3", "3", "1", "0", "--degree", "4"])
    assert code == 0
    assert report["ok"] is True
    assert [d["dim"] for d in report["data"]["invariants"]] == [1, 0, 0, 1, 0]
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["integral-projector-oracle"] == "pass"
    assert statuses["exponent-divisibility"] == "pass"
    assert set(statuses.values()) <= {"pass", "skipped"}  # n odd skips two


def test_module_algebra_check(capsys):
    code, report = _run(capsys, ["module-algebra-check", "2", "2", "1", "0", "--degree", "3"])
    assert code == 0
    assert report["ok"] is True


def test_export(capsys):
    code, report = _run(capsys, ["export", "2", "2"])
    assert code == 0
    data = report["data"]
    assert data["dim"] == 8
    assert len(data["basis"]) == 8
    assert len(data["mul"]) == 64
    assert len(data["coproduct"]) == 8
    assert len(data["counit"]) == 8
    assert len(data["antipode"]) == 8


def test_embed_check(capsys):
    code, report = _run(capsys, ["embed-check", "2", "2"])
    assert code == 0
    assert report["ok"] is True


USAGE_ERRORS = [
    "verify 2",
    "verify 1 2",
    "export 2 1",
    "gamma-table 2 1",
    "invariants 2 1 1 0",
    "embed-check 1 2",
    "twist-check 1",
    "rep-check 2 1 0 1",
    "inner-faithful 2 1 0 1",
    "verify 2 two",
    "verify 2 2 --scope sampled:-5",
    "verify 2 2 --scope sampled:0",
    "verify 2 2 --scope sampled:1.5",
    "verify 2 2 --scope sampled:",
    # verify has one scope, all, and no seed
    "verify 2 2 --scope sampled",
    "verify 2 2 --scope sampled:50",
    "verify 2 2 --scope auto",
    "verify 2 2 --seed 9",
    "invariants 2 2 1 0 --degree -1",
    "module-algebra-check 2 2 1 0 --degree -2",
    "twist-check 2 --search -3",
    "twist-check 2 --max-m -1",
    "twist-check 2 --max-m 1",
    "--format json verify 2 2",
]


def test_usage_error_exit_2(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err, argv
        assert captured.out == "", argv


def test_size_guard_exit_3(capsys):
    for argv in (
        # verify proves P1 over all |B|^2 basis pairs: 392^2 (H(14,2)),
        # 750^2 (H(5,3)), 1944^2 (H(3,4)), 3840^2 (H(2,5)) and 6144^2
        # (H(4,4)) exceed 384^2; H(13,2), H(4,3) and H(2,4) do not
        "verify 14 2",
        "verify 4 4 --scope all",
        "verify 4 4",
        "verify 2 5",
        "verify 5 3 --scope all",
        "verify 3 4",
        "export 4 4",
        # (5!)^2 = 14400 cocycle cells exceed the guard; (4!)^2 = 576 do not
        "gamma-table 2 5",
        # sweeps over all basis pairs: 1944^2, 750^2 and 46080^2 exceed 384^2
        "export 3 4",
        "export 5 3",
        "embed-check 3 4",
        "embed-check 5 3",
        "embed-check 2 6",
        # a = b = 0 makes the kernel K all of Z_2^6: |K| = 64
        "inner-faithful 2 6 0 0 --bruteforce",
    ):
        code, report = _run(capsys, argv.split())
        assert code == 3, argv
        assert report["error"]["type"] == "size-guard", argv
        assert report["checks"] == [], argv


def test_basis_pairs_guard_names_pair_count(capsys):
    for command in ("verify", "embed-check", "export"):
        code, report = _run(capsys, [command, "3", "4"])
        assert code == 3
        assert str(1944**2) in report["error"]["message"]


def test_verify_h82_passes_under_the_basis_pairs_guard(capsys):
    """dim 128: 128^2 basis pairs are under the guard (about 3.5 s)."""
    code, report = _run(capsys, ["verify", "8", "2"])
    assert code == 0
    assert report["ok"] is True
    assert report["data"]["dim"] == 128


def test_thread_cap_echoed(capsys, monkeypatch):
    # the engine is serial; the environment does not change the report
    monkeypatch.setenv("KACPAL_THREADS", "4")
    code, report = _run(capsys, ["gamma-table", "2", "2"])
    assert code == 0
    assert report["config"]["threads"] == 1


def test_non_idempotent_projector_fails_oracle_check(capsys, monkeypatch):
    from kacpal.quantum_poly import QuantumPolyAlgebra

    original = QuantumPolyAlgebra.integral_projector

    def doubled(self, lam, k):
        # same image, but (2P)^2 = 4P != 2P wherever P != 0
        return original(self, lam, k).scale(2)

    monkeypatch.setattr(QuantumPolyAlgebra, "integral_projector", doubled)
    code, report = _run(capsys, ["invariants", "2", "2", "1", "0", "--degree", "2"])
    assert code == 1
    check = next(c for c in report["checks"] if c["name"] == "integral-projector-oracle")
    assert check["status"] == "fail"
    assert check["witness"] == {"degree": 0}


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--out", str(path), "rep-check", "2", "2", "1", "0"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["ok"] is True


@pytest.mark.parametrize("argv", [
    "verify 2 2",
    "twist-check 2 --search 10 --seed 3",
    "gamma-table 2 3",
    "rep-check 2 2 1 0",
    "inner-faithful 2 2 1 1 --bruteforce",
    "invariants 2 2 1 0 --degree 4",
    "module-algebra-check 2 2 1 0 --degree 3",
    "export 2 2",
    "embed-check 2 2",
    "export 3 4",
])
def test_report_is_json_dumps_text(tmp_path, argv):
    """Every report is byte for byte json.dumps(indent=2, sort_keys=True)."""
    path = tmp_path / "report.json"
    main(["--out", str(path)] + argv.split())
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import kacpal.cli

    def must_not_run(args, report):
        raise AssertionError("the command ran although --out cannot be written")

    monkeypatch.setitem(kacpal.cli._RUNNERS, "verify", must_not_run)
    path = tmp_path / "missing" / "report.json"
    assert main(["--out", str(path), "verify", "2", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kacpal: error: "), captured.err
    assert str(path) in lines[0]


@pytest.mark.parametrize("argv, code", [("export 2 2", 0), ("export 3 4", 3)])
def test_closed_stdout_ends_quietly(argv, code):
    """A reader that closes the pipe early (``kacpal export 2 2 | head -c 0``)
    gets no traceback, and the run keeps its exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(kacpal.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kacpal.cli"] + argv.split(),
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == code


def test_no_assert_statements_in_library():
    """python -O strips asserts, so no check of the library may rest on one."""
    import ast
    from pathlib import Path

    import kacpal

    offenders = []
    for path in sorted(Path(kacpal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
