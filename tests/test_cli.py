import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import product as iproduct
from math import factorial
from pathlib import Path

import pytest

import kacpal
from kacpal import HopfAlgebra
from kacpal.cli import _guard_degree_work, main
from kacpal.cocycle import WordCalculus
from kacpal.group_ring import sigma
from kacpal.symmetric import Perm, canonical_word


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


def test_twist_check_n8_to_m8(capsys):
    # the strong verdict is read once from J's 64 character values and
    # serves all 84 embeddings; superstrong is one pass over 8^4 quadruples
    code, report = _run(capsys, ["twist-check", "8", "--max-m", "8"])
    assert code == 0
    assert report["ok"] is True
    assert len(report["checks"]) == 4 + sum(m * (m - 1) // 2 for m in range(2, 9))
    assert all(c["status"] == "pass" for c in report["checks"])


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
    assert code == 0  # the two sides agree; the verdicts are data
    assert report["data"]["criterion"] is False
    assert report["data"]["bruteforce"] is False
    assert report["data"]["det_M"] == 0
    assert report["data"]["kernel"] == [[0, 0], [1, 1]]
    code, report = _run(capsys, ["inner-faithful", "2", "6", "1", "0", "--bruteforce"])
    assert code == 0
    assert report["data"]["bruteforce"] is True
    assert report["data"]["kernel"] == [[0] * 6]
    # K = Z_2^6, all 64 elements: the report lists K, not its subgroups
    code, report = _run(capsys, ["inner-faithful", "2", "6", "0", "0", "--bruteforce"])
    assert code == 0
    assert report["data"]["bruteforce"] is False
    assert len(report["data"]["kernel"]) == 64


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


def export_oracle(hopf) -> dict:
    """The export tables built per basis pair and element through hmul,
    coproduct, counit and antipode, in basis_keys order."""
    keys = hopf.basis_keys()
    labels = [
        {"exponents": list(e), "perm": list(w.one_line()), "word": list(canonical_word(w))}
        for e, w in keys
    ]
    elems = [hopf.basis_elem(*k) for k in keys]
    return {
        "dim": hopf.dim,
        "basis": labels,
        "mul": [
            {"left": labels[i], "right": labels[j], "result": hopf.hmul(a, b).to_json()}
            for i, a in enumerate(elems)
            for j, b in enumerate(elems)
        ],
        "coproduct": [{"element": l, "result": hopf.coproduct(a).to_json()} for l, a in zip(labels, elems)],
        "counit": [{"element": l, "result": hopf.counit(a).to_json()} for l, a in zip(labels, elems)],
        "antipode": [{"element": l, "result": hopf.antipode(a).to_json()} for l, a in zip(labels, elems)],
    }


def test_export(capsys):
    """Every row of the export tables equals its per-pair (or per-element)
    oracle; a failure names the first wrong row."""
    for n, m in ((2, 2), (3, 2), (4, 2), (2, 3)):
        code, report = _run(capsys, ["export", str(n), str(m)])
        assert code == 0
        data = report["data"]
        expected = export_oracle(HopfAlgebra(n, m))
        assert sorted(data) == sorted(expected)
        assert data["dim"] == expected["dim"] == n**m * factorial(m)
        assert data["basis"] == expected["basis"]
        for table in ("mul", "coproduct", "counit", "antipode"):
            assert len(data[table]) == len(expected[table]), (n, m, table)
            for i, (row, want) in enumerate(zip(data[table], expected[table])):
                assert row == want, f"H({n},{m}) {table} row {i}: {want}"


def test_embed_check(capsys):
    # H(2,4) has 384^2 basis pairs, at the guard; its label check takes
    # about 0.3 s
    for m in ("2", "4"):
        code, report = _run(capsys, ["embed-check", "2", m])
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
        # gamma-table work (m!)^3 n^(m+1) over 4,000,000: 14,155,776 for
        # H(4,4) and 110,592,000 for H(2,5); H(3,4) (3,359,232) and H(2,4)
        # (442,368) run
        "gamma-table 4 4",
        "gamma-table 2 5",
        # guarded by basis pairs: export writes one row per pair, and
        # embed-check counts every pair as checked; 1944^2, 750^2 and
        # 46080^2 exceed 384^2
        "export 3 4",
        "export 5 3",
        "embed-check 3 4",
        "embed-check 5 3",
        "embed-check 2 6",
        # the kernel search tests every element of Z_n^m: 3^8 = 6561 and
        # 9^5 exceed 4096
        "inner-faithful 3 8 1 0 --bruteforce",
        "inner-faithful 9 5 1 0 --bruteforce",
        # dim H = 46080 (H(2,6)), 6144 (H(4,4)) and 4374 (H(9,3)) exceed
        # 4000; H(2,5) (3840) and H(3,4) (1944) do not
        "invariants 2 6 1 0",
        "invariants 2 6 1 0 --degree 2",
        "invariants 2 6 1 0 --subalgebra cyclic",
        "invariants 4 4 1 0",
        "invariants 9 3 1 0 --degree 0",
        "module-algebra-check 2 6 1 0",
        "module-algebra-check 4 4 1 0 --degree 1",
        # degree work comb(K + m, m) * dim H over 500,000: 1,411,200 for
        # 24 2 1 0 (K = 48), 688,800 for 20 2 1 0 (K = 40), 644,808 and
        # 641,520 for a degree past the default
        "invariants 24 2 1 0",
        "invariants 20 2 1 0",
        "invariants 2 2 1 0 --degree 400",
        "invariants 3 4 1 0 --degree 7",
        # linear algebra sum_k d_k^3 over 4,000,000: 11,029,041 at K = 80
        "invariants 2 2 1 0 --degree 80",
        # monomial-pair work over 500,000: 3,258,024 and 1,729,728
        "module-algebra-check 2 2 1 0 --degree 40",
        "module-algebra-check 3 3 1 0 --degree 10",
        # twist-check: n^4 term pairs over 400,000 (26^4 = 456,976), the
        # C(M + 1, 3) embedded checks up to --max-m M over 40,000 (41,664
        # at M = 63), and --search S at S n^2 over 250,000
        "twist-check 26",
        "twist-check 60",
        "twist-check 100000",
        "twist-check 3 --max-m 63",
        "twist-check 3 --max-m 100000",
        "twist-check 3 --search 27778",
        "twist-check 3 --search 1000000000",
        # rep-check: (2m - 1) m^2 Hom equations over 250,000 (262,701 at
        # m = 51), and m (m - 1) n^2 rho(t_k) terms over 100,000 (100,352
        # for 224 2), both before the field of n is built
        "rep-check 2 51 1 0",
        "rep-check 2 100000 1 0",
        "rep-check 224 2 1 0",
        "rep-check 100000 2 1 0",
        # works of thousands of digits, which a refusal names "over 10^30":
        # Python converts no int of more than 4300 digits to str
        "verify 2 779",
        "export 2 779",
        "embed-check 2 779",
        "verify 2 1000000",
        "gamma-table 2 588",
        "invariants 2 1424 1 0",
        "module-algebra-check 2 1424 1 0",
        f"twist-check {10**1100}",
        f"twist-check 3 --max-m {10**1500}",
        f"rep-check 2 {10**1500} 1 0",
        f"invariants 2 2 1 0 --degree {10**2200}",
        f"module-algebra-check 2 2 1 0 --degree {10**2200}",
        # det M has at most m (bit length of n + 1) bits; over 14,000 bits
        # it is refused before it is computed
        "inner-faithful 7 14272 3 1",
        "inner-faithful 7 3501 3 1",
        "inner-faithful 2 20000 1 0 --bruteforce",
        f"inner-faithful {10**4000} 2 1 0",
    ):
        start = time.perf_counter()
        code, report = _run(capsys, argv.split())
        assert time.perf_counter() - start < 1.0, argv
        assert code == 3, argv
        assert report["error"]["type"] == "size-guard", argv
        assert report["checks"] == [], argv
        assert "total_seconds" in report["timings"], argv


def test_det_m_guard_admits_every_det_m_it_prints(capsys):
    """inner-faithful 7 3500 3 1, the largest m the guard admits at n = 7,
    writes det M = 2^3499 * 3502 exactly."""
    code, report = _run(capsys, "inner-faithful 7 3500 3 1".split())
    assert code == 0
    assert report["data"]["det_M"] == 2**3499 * 3502


@pytest.mark.parametrize("n, m, degree", [(2, 2, 5), (3, 3, 12), (2, 4, 6), (2, 5, 4), (3, 4, 6), (18, 2, 36)])
def test_degree_work_guard_admits(n, m, degree):
    # the benchmark's invariants instances, the two largest H that
    # DIMENSION_GUARD admits at their default degree, and 18 2 1 0
    _guard_degree_work(n, m, degree)


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


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines():
    """The ``kacpal ...`` lines of README's "Command line" block, comments
    dropped."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("kacpal ")]


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    """Every documented example runs and exits 0; --out files land in
    tmp_path."""
    lines = _readme_command_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--out", str(path), "rep-check", "2", "2", "1", "0"])
    assert code == 0
    report = json.loads(path.read_text())
    assert report["ok"] is True


# one run of every command, and one that a size guard refuses
REPORT_ARGVS = [
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
]


@pytest.mark.parametrize("argv", REPORT_ARGVS)
def test_report_is_json_dumps_text(tmp_path, argv):
    """Every report is byte for byte json.dumps(indent=2, sort_keys=True)."""
    path = tmp_path / "report.json"
    main(["--out", str(path)] + argv.split())
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", REPORT_ARGVS)
def test_every_command_times_each_check(capsys, argv):
    """Every command's timings.checks holds the seconds of exactly its
    checks, and timings.total_seconds those of the run; a refused run, such
    as export 3 4, has no checks and times the run all the same."""
    code, report = _run(capsys, argv.split())
    assert code == (3 if argv == "export 3 4" else 0), argv
    seconds = report["timings"]["checks"]
    assert set(seconds) == {c["name"] for c in report["checks"]}, argv
    assert all(s >= 0 for s in seconds.values()), argv
    assert report["timings"]["total_seconds"] >= 0, argv


def test_not_invertible_run_is_timed(capsys, monkeypatch):
    """A run ended by NotInvertibleError exits 1 with its error, no
    verdict, and one timings block."""
    from kacpal import cli
    from kacpal.errors import NotInvertibleError

    def refuse(args, report):
        raise NotInvertibleError("J is not a unit")

    monkeypatch.setitem(cli._RUNNERS, "twist-check", refuse)
    code, report = _run(capsys, ["twist-check", "2"])
    assert code == 1
    assert report["error"] == {"type": "not-invertible", "message": "J is not a unit"}
    assert "ok" not in report
    assert report["timings"]["checks"] == {}


def test_python_O_reports_match(capsys):
    """python -O strips assert statements; every report it writes equals
    the in-process one apart from timings, exit code included."""
    env = dict(os.environ, PYTHONPATH=str(Path(kacpal.__file__).parents[1]))
    for argv in ("verify 2 2", "gamma-table 2 3"):
        code, report = _run(capsys, argv.split())
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "kacpal.cli"] + argv.split(),
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.stderr == "", argv
        assert proc.returncode == code == 0, argv
        optimized = json.loads(proc.stdout)
        report.pop("timings")
        optimized.pop("timings")
        assert optimized == report, argv


# the report text minus its top-level "timings" member, which is the one
# part of a report that varies from run to run
TIMINGS = re.compile(rb'\n  "timings": \{\n(?:    [^\n]*\n)*  \},')

# SHA-256 of each report with its timings removed, recorded before the
# quantum polynomial algebra lost its degree bound; the graded engine must
# reproduce them byte for byte
MODULE_REPORT_DIGESTS = {
    "invariants 2 3 1 0 --degree 4":
        "73bfc537d6db3a2016995d30cf422ea9e37b2938530d8f2f53605e8f956a616f",
    "invariants 3 3 1 0 --subalgebra cyclic --degree 4":
        "8ddfa6c461690a039060460004ea2accc691b05cf664ba26144ffef676276997",
    "invariants 3 2 2 1":
        "08c83f57a0b78e42ce22cca35a4a6e41f72507fb58fdf872456be18a55bd24f3",
    "module-algebra-check 2 2 1 0":
        "75349b73993c1d617f78eeaa80362bb9d40d54b777cdf271edfe6d0ca0824f1c",
    "module-algebra-check 2 3 1 0 --degree 3":
        "a8f843ca055e1097d7ea31557eb010ca5744eb289a355952329504f628efb3b6",
    "module-algebra-check 3 2 2 1":
        "a1df61879449c0c94211f104226ae0ae9c81d17296f705c4fcbe5dc2831d5443",
}


@pytest.mark.parametrize("argv", sorted(MODULE_REPORT_DIGESTS))
def test_module_algebra_reports_are_byte_identical(tmp_path, argv):
    path = tmp_path / "report.json"
    assert main(["--out", str(path)] + argv.split()) == 0
    stripped, found = TIMINGS.subn(b"", path.read_bytes())
    assert found == 1
    assert hashlib.sha256(stripped).hexdigest() == MODULE_REPORT_DIGESTS[argv]


# SHA-256 of each rep-check report with its timings removed, recorded before
# matrix products went sparse and the span closure incremental, and (5 4 2 2,
# 2 6 0 0) before simplicity moved from the closure to dim End V = 1;
# 3 5 1 1, 5 4 2 2 and 2 6 0 0 are the modules here that are not simple
REP_REPORT_DIGESTS = {
    "rep-check 2 2 1 0":
        "e92d88a5326ec28cbf2945a5d3640ab35b2b1a29120100198d0625e8f49f1209",
    "rep-check 3 5 1 0":
        "4428210c4416ce439d9dae8d89086687d2f71d0bed47431146e21d20db4eda4d",
    "rep-check 3 5 1 1":
        "857e9d86a2ef7c3923c9328543fad027a8ab1389b06f97eeb7fd62c374340f4d",
    "rep-check 4 4 2 1":
        "e05e57cae74a1e01da467d7822c42e329ade0ce7fcb0f0d409713c3087856117",
    "rep-check 3 7 1 0":
        "a208095912fac8403d71b5338b6392f70ba7484adb84d997b161d15e7e2ab785",
    "rep-check 2 10 1 0":
        "9e8c3ca62348473c63b81b4efffe98a23a8a431d13ae8d6ffbc4d4426d918a2e",
    "rep-check 5 4 2 2":
        "d9304d09c4eb2e74060f44460b53c7b490692e6d797d409cf4565f4824f23813",
    "rep-check 2 6 0 0":
        "844d754bea68dda50de027056c3a145c98f706008821fec0a410baab873533a0",
}


@pytest.mark.parametrize("argv", sorted(REP_REPORT_DIGESTS))
def test_rep_reports_are_byte_identical(tmp_path, argv):
    path = tmp_path / "report.json"
    assert main(["--out", str(path)] + argv.split()) == 0
    stripped, found = TIMINGS.subn(b"", path.read_bytes())
    assert found == 1
    assert hashlib.sha256(stripped).hexdigest() == REP_REPORT_DIGESTS[argv]


# SHA-256 of each Hopf-layer report with its timings removed, recorded
# before gamma-table and the comultiplicativity tables moved onto one table
# source (HopfAlgebra.gamma_exponents and j_exponents)
HOPF_REPORT_DIGESTS = {
    "verify 2 2": "097ed30bc4f85721fc554103bf3809dccd5a7d117787fec910b7508d2a7018a0",
    "verify 2 3": "18894f94aaf98314d9825ed8fa8c151e13622b9e15aa94fc2c78533d6a3eb746",
    "verify 3 3": "cc6615e621a08b7f8fb04cc144fafd80c4e8b8462154cd7b12e1ee66fa259a08",
    "gamma-table 2 2": "6da56af7912f2650b9d162d9c4dcd8d2adc029b109390c895574b08638c86df6",
    "gamma-table 2 3": "311bb520b03a149c5e8a907a4479f898ef42fb0fcd91053b2b35f9182507c56b",
    "gamma-table 3 3": "0a603172fe9f977498ad2e7759fb5fc3efab1b665766c0d24bd401acde8619b6",
    "embed-check 2 3": "cffd316ca64b65c23c056580200092de287e94c5b5577e3242272ab17407c6d8",
    "export 2 2": "b8f1651e177e04b83058e4492d94b2495a064e2ab59e4c4987fef3274c05fa59",
}


@pytest.mark.parametrize("argv", sorted(HOPF_REPORT_DIGESTS))
def test_hopf_reports_are_byte_identical(tmp_path, argv):
    path = tmp_path / "report.json"
    assert main(["--out", str(path)] + argv.split()) == 0
    stripped, found = TIMINGS.subn(b"", path.read_bytes())
    assert found == 1
    assert hashlib.sha256(stripped).hexdigest() == HOPF_REPORT_DIGESTS[argv]


def _character_unit(ring, psi, e):
    """The unit of R with value zeta^e at the character psi and 1 at every
    other character: 1 + (zeta^e - 1) times the idempotent of psi."""
    cyc = ring.cyc
    scale = (cyc.root(e) - cyc.one) / cyc.scalar(ring.n**ring.m)
    idempotent = ring.from_terms(
        {beta: scale * cyc.q_pow(-sum(p * b for p, b in zip(psi, beta)))
         for beta in ring.exponent_vectors()}
    )
    return ring.one + idempotent


def _mutate_cocycle(monkeypatch, w, v, change):
    """Replace gamma(w, v) by change(gamma(w, v)) in every WordCalculus."""
    original = WordCalculus.cocycle

    def mutated(self, a, b):
        out = original(self, a, b)
        return change(out) if (a, b) == (w, v) else out

    monkeypatch.setattr(WordCalculus, "cocycle", mutated)


def test_gamma_table_character_unit_mutation_fails_with_ringelem_witness(capsys, monkeypatch):
    # gamma(s_1, s_1) of H(2,3) times a unit with value zeta at one
    # character: every value stays a root of unity, so the table identity
    # decides exactly what the RingElem identity does
    s1 = Perm.transposition(3, 1)
    psi = (1, 0, 0)
    _mutate_cocycle(monkeypatch, s1, s1, lambda g: g * _character_unit(g.ring, psi, 1))
    code, report = _run(capsys, ["gamma-table", "2", "3"])
    assert code == 1
    H = HopfAlgebra(2, 3)
    gamma = H.words.cocycle
    expected = next(
        (w, v, u)
        for w, v, u in iproduct(H.perms, repeat=3)
        if sigma(w, gamma(v, u)) * gamma(w, v * u) != gamma(w, v) * gamma(w * v, u)
    )
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cocycle-identity"]["status"] == "fail"
    assert checks["cocycle-identity"]["witness"] == {
        key: list(canonical_word(p)) for key, p in zip("wvu", expected)
    }
    assert checks["associativity-oracle"]["status"] == "fail"


def test_gamma_table_dropped_term_fails_cocycle_identity(capsys, monkeypatch):
    # t_1 = (1 + x_1 + x_2 - x_1 x_2)/2 without its x_1 x_2 term has the
    # value 3/2 at the trivial character, which is not a root of unity
    s1 = Perm.transposition(3, 1)

    def drop(g):
        terms = dict(g.terms)
        del terms[max(terms)]
        return g.ring.from_terms(terms)

    _mutate_cocycle(monkeypatch, s1, s1, drop)
    code, report = _run(capsys, ["gamma-table", "2", "3"])
    assert code == 1
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cocycle-identity"]["status"] == "fail"


def test_gamma_table_counit_reads_only_the_trivial_character(capsys, monkeypatch):
    # gamma(s_1, s_1) of H(2,3) times 1 + 2(x_1 - 1): the value at the
    # trivial character stays 1, the value -3 at psi_1 = 1 is not a root
    # of unity, so the table is None but eps(gamma) = 1 still holds
    s1 = Perm.transposition(3, 1)

    def scale(g):
        x1 = g.ring.monomial((1, 0, 0))
        two = g.ring.cyc.scalar(2)
        return g * (g.ring.one + (x1 - g.ring.one) * two)

    _mutate_cocycle(monkeypatch, s1, s1, scale)
    code, report = _run(capsys, ["gamma-table", "2", "3"])
    assert code == 1
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cocycle-counit"]["status"] == "pass"
    assert checks["cocycle-identity"]["status"] == "fail"


def test_gamma_table_doubled_value_fails_cocycle_counit(capsys, monkeypatch):
    # eps(2 gamma(s_1, s_1)) = 2; (s_1, s_1) is the one pair changed
    s1 = Perm.transposition(3, 1)
    _mutate_cocycle(monkeypatch, s1, s1, lambda g: g.scale(2))
    code, report = _run(capsys, ["gamma-table", "2", "3"])
    assert code == 1
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cocycle-counit"]["status"] == "fail"
    assert checks["cocycle-counit"]["witness"] == {"w": [1], "v": [1]}


def test_gamma_table_reports_the_gamma_its_algebra_multiplies_with(capsys, monkeypatch):
    # gamma(s_1, s_1) := 1 in the word calculus, the one source of gamma:
    # the table shows the value hmul multiplies with, and the reference
    # table, the cocycle identity and both associativity checks refute it
    s1 = Perm.transposition(3, 1)
    _mutate_cocycle(monkeypatch, s1, s1, lambda g: g.ring.one)
    H = HopfAlgebra(2, 3)
    assert H.z(1) * H.z(1) == H.unit()
    code, report = _run(capsys, ["gamma-table", "2", "3"])
    assert code == 1
    entry = next(e for e in report["data"]["entries"] if e["w"] == e["v"] == [1])
    assert entry["gamma"] == [{"exponents": [0, 0, 0], "coeff": ["1/1", "0/1"]}]
    assert entry["matches_reference"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["reference-table"]["status"] == "fail"
    assert checks["reference-table"]["witness"] == {"mismatches": [entry]}
    assert checks["cocycle-identity"]["status"] == "fail"
    assert checks["associativity-oracle"]["status"] == "fail"
    code, verify = _run(capsys, ["verify", "2", "3"])
    assert code == 1
    assert next(c for c in verify["checks"] if c["name"] == "associativity")["status"] == "fail"


def test_verify_and_gamma_table_name_the_same_first_label_triple(capsys, monkeypatch):
    # under the character-unit mutation both associativity checks run the
    # one label-triple predicate in the same order
    s1 = Perm.transposition(3, 1)
    _mutate_cocycle(monkeypatch, s1, s1, lambda g: g * _character_unit(g.ring, (1, 0, 0), 1))
    code, verify = _run(capsys, ["verify", "2", "3"])
    assert code == 1
    code, table = _run(capsys, ["gamma-table", "2", "3"])
    assert code == 1
    assoc = next(c for c in verify["checks"] if c["name"] == "associativity")
    oracle = next(c for c in table["checks"] if c["name"] == "associativity-oracle")
    assert assoc["status"] == oracle["status"] == "fail"
    triple = assoc["witness"]["triple"]
    assert all(not any(key["exponents"]) for key in triple)
    words = [list(canonical_word(Perm(i - 1 for i in key["perm"]))) for key in triple]
    assert oracle["witness"] == dict(zip("wvu", words))


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


class _FullStream(io.TextIOWrapper):
    """A text stream on devnull whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_unwritable_stdout_is_an_error_line_and_exit_2(capsys, monkeypatch):
    with _FullStream(open(os.devnull, "wb")) as full:
        monkeypatch.setattr(sys, "stdout", full)
        code = main(["verify", "2", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"kacpal: error: cannot write the report to stdout: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", ["--out /dev/full verify 2 2", "verify 2 2"])
def test_a_full_device_ends_with_one_error_line(argv):
    """``--out /dev/full`` and ``> /dev/full``: every check passes but the
    report cannot be written, so the run exits 2 with one line and no
    traceback, also from the flush at interpreter exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(kacpal.__file__).parents[1]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "kacpal.cli"] + argv.split(),
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    target = "/dev/full" if "--out" in argv else "stdout"
    assert proc.stderr == f"kacpal: error: cannot write the report to {target}: {os.strerror(errno.ENOSPC)}\n"
    assert proc.returncode == 2


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
