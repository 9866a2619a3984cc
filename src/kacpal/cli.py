"""Command-line front end: reproducible verification runs with JSON reports.

Exit codes: 0 all selected checks pass, 1 a check failed, 2 usage error,
3 a size guard refused the computation.  Identical (argv, seed) produce
byte-identical reports apart from the "timings" block, which holds the
total and, for verify, the seconds spent on each check.  The engine
evaluates serially; reports record this as "threads": 1 in their config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import product as iproduct
from math import factorial

from . import __version__
from .cocycle import reference_cocycle_table_m3
from .errors import NotInvertibleError, SizeGuardError
from .group_ring import GroupAlgebra, canonical_twist, sigma
from .hopf import AxiomReport, HopfAlgebra, embedding_check, guard_basis_pairs, key_json
from .linalg import rref
from .quantum_poly import QuantumPolyAlgebra
from .reps import (
    RepParams,
    det_M,
    inner_faithful_bruteforce,
    inner_faithful_criterion,
    is_simple,
    verify_rep,
)
from .symmetric import canonical_word
from .twists import search_central_converse, twist_suite

SCHEMA_VERSION = 1


def _at_least(low: int):
    """An argparse type accepting integers >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_size = _at_least(2)  # n, m and --max-m
_count = _at_least(0)  # --degree and --search


def _parse_scope(text: str) -> tuple[str, int]:
    if text == "all":
        return "all", 0
    raise argparse.ArgumentTypeError(f"scope must be all, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacpal",
        description="Exact construction and verification of the generalized "
        "Kac-Paljutkin Hopf algebras H_{n,m} and their actions.",
    )
    parser.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, positionals: str = "nm"):
        """A subcommand taking the given positionals; n and m must be >= 2."""
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg, type=_size if arg in "nm" else int)
        return p

    p = command("verify", "Hopf axiom suite for H_{n,m}")
    # verify checks every basis element; --scope all, echoed as ["all", 0],
    # and "seed": 0 keep the benchmark goldens' config, like "threads": 1,
    # until they are recaptured
    p.add_argument("--scope", type=_parse_scope, default=("all", 0))
    p.set_defaults(seed=0)

    p = command("twist-check", "twist predicates for the canonical J over K[Z_n]", "n")
    p.add_argument("--max-m", type=_size, default=3)
    p.add_argument("--search", type=_count, default=0,
                   help="sample K random invertible elements for the open "
                        "twist-vs-strong-twist comparison (no resolution claimed)")
    p.add_argument("--seed", type=int, default=0)

    command("gamma-table", "the 2-cocycle table of Sigma_m valued in R")
    command("rep-check", "defining relations of V_{a,b}", "nmab")

    p = command("inner-faithful", "inner-faithfulness of V_{a,b} over the base ring", "nmab")
    p.add_argument("--bruteforce", action="store_true")

    p = command("invariants", "truncated invariant ring of A_{a,b}", "nmab")
    p.add_argument("--degree", type=_count, default=None)
    p.add_argument("--subalgebra", choices=["full", "cyclic"], default="full")

    p = command("module-algebra-check", "module algebra axiom for A_{a,b}", "nmab")
    p.add_argument("--degree", type=_count, default=None)
    p.add_argument("--seed", type=int, default=0)

    command("export", "full structure constants of H_{n,m} as JSON")
    command("embed-check", "verify the embedding H_{n,m} -> H_{n,m+1}")
    return parser


def _report_shell(command: str, config: dict) -> dict:
    return {
        "tool": "kacpal",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": dict(config, threads=1),
        "checks": [],
        "data": {},
    }


def _run_verify(args, report):
    # verify_axioms guards too; here the guard runs before the m! permutations are built
    guard_basis_pairs("axiom verification", args.n, args.m)
    hopf = HopfAlgebra(args.n, args.m)
    report["context"] = hopf.cyc.to_json()
    axioms = hopf.verify_axioms()
    parts = (axioms, hopf.verify_integral(), hopf.cyclic_subalgebra().report)
    for part in parts:
        report["checks"].extend(part.checks)
    report["timings"] = {
        "checks": {name: round(s, 6) for part in parts for name, s in part.timings.items()}
    }
    report["data"]["dim"] = hopf.dim
    report["data"]["scope"] = "all"  # kept for the benchmark goldens, as above


def _checks(report: dict) -> AxiomReport:
    """An AxiomReport that records straight into the report's check list."""
    return AxiomReport(instance=report["command"], checks=report["checks"])


def _run_twist_check(args, report):
    B = GroupAlgebra(args.n, 1)
    report["context"] = B.cyc.to_json()
    J = canonical_twist(B)
    checks = _checks(report)
    for res in twist_suite(J, max_m=args.max_m):
        checks.add(res.condition, res.condition, res.ok, res.witness)
    if args.search:
        report["data"]["converse-search"] = search_central_converse(
            args.n, args.search, args.seed
        )


# bounds the (m!)^2 cells of gamma-table: (4!)^2 = 576 run, (5!)^2 = 14400 do not
GAMMA_CELLS_GUARD = 5000


def _run_gamma_table(args, report):
    cells = factorial(args.m) ** 2
    if cells > GAMMA_CELLS_GUARD:
        raise SizeGuardError(f"gamma table refused for (m!)^2 = {cells} > {GAMMA_CELLS_GUARD}")
    hopf = HopfAlgebra(args.n, args.m)
    report["context"] = hopf.cyc.to_json()
    perms = hopf.perms
    gamma = hopf.words.cocycle
    reference = reference_cocycle_table_m3(hopf.ring) if args.m == 3 else None
    entries = []
    mismatches = []
    for w, v in iproduct(perms, repeat=2):
        g = gamma(w, v)
        entry = {"w": list(canonical_word(w)), "v": list(canonical_word(v)), "gamma": g.to_json()}
        if reference is not None:
            match = reference[(w, v)] == g
            entry["matches_reference"] = match
            if not match:
                mismatches.append(entry)
        entries.append(entry)
    report["data"]["entries"] = entries

    def words(perms):
        return {key: list(canonical_word(p)) for key, p in zip("wvu", perms)}

    def cocycle_fails(wvu):
        w, v, u = wvu
        return sigma(w, gamma(v, u)) * gamma(w, v * u) != gamma(w, v) * gamma(w * v, u)

    def associativity_fails(wvu):
        a, b, c = (hopf.basis_elem(hopf.ring.zero_exp, p) for p in wvu)
        return hopf.hmul(hopf.hmul(a, b), c) != hopf.hmul(a, hopf.hmul(b, c))

    checks = _checks(report)
    checks.check(
        "cocycle-counit",
        "eps(gamma(w,v)) = 1",
        iproduct(perms, repeat=2),
        lambda wv: hopf.counit(hopf.from_ring(gamma(*wv))) != hopf.cyc.one,
        words,
        checked=len(perms) ** 2,
    )
    checks.check(
        "cocycle-identity",
        "sigma_w(gamma(v,u)) gamma(w,vu) = gamma(w,v) gamma(wv,u)",
        iproduct(perms, repeat=3),
        cocycle_fails,
        words,
        checked=len(perms) ** 3,
    )
    # associativity over basis labels is the ground-truth oracle for the table
    checks.check(
        "associativity-oracle",
        "(w v) u = w (v u) over basis labels",
        iproduct(perms, repeat=3),
        associativity_fails,
        words,
        checked=len(perms) ** 3,
    )
    if reference is not None:
        checks.add(
            "reference-table",
            "computed gamma matches the m=3 reference table cell by cell",
            not mismatches,
            {"mismatches": mismatches} if mismatches else None,
            checked=len(perms) ** 2,
        )


def _run_rep_check(args, report):
    params = RepParams(args.n, args.m, args.a, args.b)
    rep_result = verify_rep(params)
    report["context"] = {"n": args.n, "N": 2 * args.n, "degree": None}
    report["checks"].extend(rep_result.checks)
    report["data"]["simple"] = is_simple(params)
    report["data"]["params"] = {"a": params.a, "b": params.b}


def _run_inner_faithful(args, report):
    params = RepParams(args.n, args.m, args.a, args.b)
    crit = inner_faithful_criterion(params)
    report["data"]["det_M"] = det_M(args.m, params.a, params.b)
    report["data"]["criterion"] = crit
    if args.bruteforce:
        verdict, annihilating = inner_faithful_bruteforce(params)
        report["data"]["bruteforce"] = verdict
        report["data"]["annihilating_subgroups"] = annihilating
        ok = (not crit) or verdict
        _checks(report).add(
            "criterion-implies-oracle",
            "gcd(det M, n) = 1 implies the subgroup oracle verdict",
            ok,
            None if ok else {"criterion": crit, "bruteforce": verdict},
        )


def _run_invariants(args, report):
    hopf = HopfAlgebra(args.n, args.m)
    degree = args.degree if args.degree is not None else 2 * args.n
    qpa = QuantumPolyAlgebra(hopf, args.a, args.b, degree_bound=max(degree, 2 * args.n))
    subalgebra = args.subalgebra
    if args.m == 2 and subalgebra == "cyclic":
        subalgebra = "full"  # for m = 2 the cyclic subalgebra is all of H
    report["context"] = hopf.cyc.to_json()
    inv = qpa.invariants(subalgebra, degree)
    oracle = qpa.invariants_oracle(subalgebra, degree)
    report["data"]["invariants"] = [
        {"degree": k, "dim": len(inv[k]), "basis": [f.to_json() for f in inv[k]]}
        for k in range(degree + 1)
    ]
    report["data"]["subalgebra"] = subalgebra

    def oracle_disagrees(k):
        mons = qpa.monomials(k)
        vecs = [[f.terms.get(mon, qpa.ctx.zero) for mon in mons] for f in inv[k]]
        return (rref(vecs, qpa.ctx)[0] if vecs else []) != oracle[k]

    _checks(report).check(
        "integral-projector-oracle",
        "kernel of (g - eps(g)) equals the image of the normalized integral",
        range(degree + 1),
        oracle_disagrees,
        lambda k: {"degree": k},
        checked=degree + 1,
    )
    report["checks"].extend(qpa.containment_check(degree, subalgebra="ring").checks)


def _run_module_algebra(args, report):
    hopf = HopfAlgebra(args.n, args.m)
    degree = args.degree if args.degree is not None else min(4, 2 * args.n)
    qpa = QuantumPolyAlgebra(hopf, args.a, args.b, degree_bound=max(degree, 2 * args.n))
    report["context"] = hopf.cyc.to_json()
    result = qpa.module_algebra_check(degree=degree, seed=args.seed)
    report["checks"].extend(result.checks)


def _run_export(args, report):
    guard_basis_pairs("export", args.n, args.m)
    hopf = HopfAlgebra(args.n, args.m)
    report["context"] = hopf.cyc.to_json()
    # each basis element and its label are built once and shared by every
    # row that names them; the report writer renders a shared label once
    basis = [
        (hopf.basis_elem(*key), dict(key_json(key), word=list(canonical_word(key[1]))))
        for key in hopf.basis_keys()
    ]
    data = report["data"]
    data["dim"] = hopf.dim
    data["basis"] = [label for _, label in basis]
    data["mul"] = [
        {"left": left, "right": right, "result": hopf.hmul(a, b).to_json()}
        for a, left in basis
        for b, right in basis
    ]
    for name, op in (
        ("coproduct", hopf.coproduct),
        ("counit", hopf.counit),
        ("antipode", hopf.antipode),
    ):
        data[name] = [{"element": label, "result": op(a).to_json()} for a, label in basis]


def _run_embed_check(args, report):
    result = embedding_check(args.n, args.m)
    report["context"] = {"n": args.n, "N": 2 * args.n, "degree": None}
    report["checks"].extend(result.checks)


_RUNNERS = {
    "verify": _run_verify,
    "twist-check": _run_twist_check,
    "gamma-table": _run_gamma_table,
    "rep-check": _run_rep_check,
    "inner-faithful": _run_inner_faithful,
    "invariants": _run_invariants,
    "module-algebra-check": _run_module_algebra,
    "export": _run_export,
    "embed-check": _run_embed_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(args).items()
        if k not in ("command", "out")
    }
    # open --out before the run, so that a bad path costs no computation
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        print(f"kacpal: error: cannot write the report to {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        code, report = _run(args, config)
        _emit(report, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return code


def _run(args, config) -> tuple[int, dict]:
    """The exit code and report of one command."""
    report = _report_shell(args.command, config)
    start = time.monotonic()
    try:
        _RUNNERS[args.command](args, report)
    except SizeGuardError as exc:
        report["error"] = {"type": "size-guard", "message": str(exc)}
        return 3, report
    except NotInvertibleError as exc:
        report["error"] = {"type": "not-invertible", "message": str(exc)}
        return 1, report
    report["ok"] = not any(c["status"] == "fail" for c in report["checks"])
    report.setdefault("timings", {})["total_seconds"] = round(time.monotonic() - start, 6)
    return (0 if report["ok"] else 1), report


def _emit(report: dict, out) -> None:
    """Write the report and a newline.  A reader that closes stdout early
    (``kacpal export 2 3 | head``) ends the output quietly."""
    text = report_text(report)
    try:
        out.write(text)
        out.write("\n")
        out.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps
        # that flush from raising (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())


# -- the report writer ---------------------------------------------------------

_JSON_STR = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _scalar_text(o) -> str | None:
    """JSON text of a str, None, bool, int or float, in the order and form
    of ``json.dumps``; None for anything else."""
    if isinstance(o, str):
        return _JSON_STR(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


def report_text(report) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True)`` writes
    it, byte for byte.  With ``indent`` set, ``json.dumps`` runs the
    pure-Python encoder, which took over half of ``export 2 3``.

    Two memos last for one call.  A list of plain ints and strings (a
    coefficient, an exponent vector, a word) is rendered once per values
    and depth; testing ``type(x) is int`` keeps True, 1 and 1.0, which hash
    equal, out of one key.  A flat dict (every value a scalar or such a
    list) is rendered once per object and depth, so a label dict that
    ``export`` shares across rows is rendered once; ids stay valid because
    the report holds every object for the whole call.  Other containers are
    rendered each time they are reached: most are reached once, and storing
    their text would hold the report's text twice."""
    chunks: list[str] = []
    emit = chunks.append
    leaf_lists: dict = {}
    flat_dicts: dict = {}

    def write(o, depth: int) -> bool:
        """Append the text of o; true when o is a scalar or a leaf list."""
        if isinstance(o, (list, tuple)):
            return write_list(o, depth)
        if isinstance(o, dict):
            write_dict(o, depth)
            return False
        text = _scalar_text(o)
        if text is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        emit(text)
        return True

    def write_list(o, depth: int) -> bool:
        if not o:
            emit("[]")
            return True
        pad = "\n" + "  " * (depth + 1)
        if all(type(x) is int or type(x) is str for x in o):
            key = (tuple(o), depth)
            text = leaf_lists.get(key)
            if text is None:
                items = [_JSON_STR(x) if type(x) is str else int.__repr__(x) for x in o]
                text = leaf_lists[key] = f"[{pad}{(',' + pad).join(items)}\n{'  ' * depth}]"
            emit(text)
            return True
        sep = "[" + pad
        for x in o:
            emit(sep)
            write(x, depth + 1)
            sep = "," + pad
        emit(f"\n{'  ' * depth}]")
        return False

    def write_dict(o, depth: int) -> None:
        memo_key = (id(o), depth)
        text = flat_dicts.get(memo_key)
        if text is not None:
            emit(text)
            return
        if not o:
            emit("{}")
            return
        start = len(chunks)
        flat = True
        pad = "\n" + "  " * (depth + 1)
        sep = "{" + pad
        for key, value in sorted(o.items()):
            if isinstance(key, str):
                key = _JSON_STR(key)
            else:
                text = _scalar_text(key)
                if text is None:
                    raise TypeError(
                        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                    )
                key = f'"{text}"'
            emit(f"{sep}{key}: ")
            flat = write(value, depth + 1) and flat
            sep = "," + pad
        emit(f"\n{'  ' * depth}}}")
        if flat:
            text = flat_dicts[memo_key] = "".join(chunks[start:])
            del chunks[start:]
            emit(text)

    write(report, 0)
    return "".join(chunks)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
