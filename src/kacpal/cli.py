"""Command-line front end: reproducible verification runs with JSON reports.

Each command's runner guards its size, builds its algebra, fills in the
report's context and data, and returns the AxiomReports of the library
calls that decide its checks; no check is decided here.  _run assembles
them: the report's checks, its ok verdict and its "timings" block.

Exit codes: 0 all selected checks pass, 1 a check failed, 2 usage error
or a report that cannot be written, 3 a size guard refused the
computation.  Identical (argv, seed) produce byte-identical reports apart
from the "timings" block, which holds the total and the seconds spent on
each check.  The engine evaluates serially; reports record this as
"threads": 1 in their config.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from itertools import product as iproduct
from math import comb

from . import __version__
from .errors import NotInvertibleError, SizeGuardError, binomial_factors, size_guard
from .group_ring import GroupAlgebra, canonical_twist
from .hopf import AxiomReport, HopfAlgebra, embedding_check, guard_basis_pairs, label_json
from .quantum_poly import QuantumPolyAlgebra
from .reps import (
    Rep,
    RepParams,
    det_M,
    inner_faithful_check,
    inner_faithful_criterion,
    is_simple,
    verify_rep,
)
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
    report["data"]["dim"] = hopf.dim
    report["data"]["scope"] = "all"  # kept for the benchmark goldens, as above
    return [hopf.verify_axioms(), hopf.verify_integral(), hopf.cyclic_subalgebra().report]


# bound the three costs of twist-check, each checked before any field is
# built.  On a 2-core host with Python 3.11, whole process, one run each:
# the n^4 term pairs of the dense twist equation, 16 (65,536) 2.6 s,
# 20 (160,000) 6.3 s, 23 (279,841) 17 s, 25 (390,625) 19 s, 28 31 s and
# 32 63 s; the C(M + 1, 3) embedded checks up to --max-m M, 3 --max-m 62
# (39,711) 0.7 s and --max-m 84 (98,770) 2.2 s for a 25 MB report; and
# --search S at S n^2 units, 3 --search 27777 (249,993) 2.1 s, 3 --search
# 100000 (900,000) 9.2 s, and 25 --search 400 (250,000) 27 s with the 19 s
# of 25 itself
TWIST_TERM_PAIRS_GUARD = 400_000
TWIST_EMBEDDINGS_GUARD = 40_000
TWIST_SEARCH_GUARD = 250_000


def _run_twist_check(args, report):
    n = args.n
    size_guard((n, n, n, n), TWIST_TERM_PAIRS_GUARD,
               lambda pairs: f"twist check refused for n^4 = {pairs} term pairs")
    size_guard(binomial_factors(args.max_m + 1, 3), TWIST_EMBEDDINGS_GUARD,
               lambda checks: f"twist check refused for {checks} embedded checks up to m = {args.max_m}")
    size_guard((args.search, n, n), TWIST_SEARCH_GUARD,
               lambda work: f"twist check refused for search work {work} (samples times n^2)")
    B = GroupAlgebra(n, 1)
    report["context"] = B.cyc.to_json()
    suite = twist_suite(canonical_twist(B), max_m=args.max_m)
    if args.search:
        report["data"]["converse-search"] = search_central_converse(n, args.search, args.seed)
    return [suite]


# bounds the work of gamma-table, priced as the (m!)^3 n^m cells of
# cocycle-identity (one per triple and character) times n, since a cell
# costs more as n grows: most of the time goes to associativity-oracle,
# whose products carry more gamma terms.  On a 2-core host with Python 3.11, one
# run each, in process, with the guard lifted: 2 4 (work 442,368) takes
# 5.0 s, 3 3 (17,496) 0.15 s, 8 3 (884,736) 5.5 s, 11 3 (3,162,456) 23 s,
# 12 3 (4,478,976) 25 s, 80 2 (4,096,000) 3.2 s, 79 2 (3,944,312) 9.3 s
# and 3 4 (3,359,232) 45 s, while 16 3 (14,155,776) takes 91 s; 4 4 (the
# same work) is refused untimed
GAMMA_WORK_GUARD = 4_000_000


def _run_gamma_table(args, report):
    """The (m!)^2 cocycle values gamma(w, v) and their checks
    (HopfAlgebra.gamma_table)."""
    n = args.n  # (m!)^3 n^(m+1) as n, then n i^3 for i = 1..m
    size_guard((n * i**3 if i else n for i in range(args.m + 1)), GAMMA_WORK_GUARD,
               lambda work: f"gamma table refused for (m!)^3 n^(m+1) = {work}")
    hopf = HopfAlgebra(args.n, args.m)
    report["context"] = hopf.cyc.to_json()
    report["data"]["entries"], checks = hopf.gamma_table()
    return [checks]


# bound the two costs of rep-check, checked before the field is built: the
# (2m - 1) m^2 equations of the Hom solve of is_simple, and the m (m - 1) n^2
# scalar terms of the rho(t_k) that z-square compares, which cost more as
# the field degree grows with n.  On a 2-core host with Python 3.11, whole
# process, one run each: 2 40 1 0 (126,400 equations) 2.1 s, 2 50 1 0
# (247,500) 3.7 s, 2 50 1 1 9.9 s, 6 50 1 1 (and 88,200 terms) 15 s and
# 2 60 1 1 (428,400) 23 s; 100 2 1 0 (20,000 terms) 0.7 s, 200 2 1 0
# (80,000) 4.2 s, 223 2 1 0 (99,458) 8.4 s, 316 2 1 0 (199,712) 21 s and
# 500 2 1 0 60 s, while 20 20 1 0 (152,000) takes 1.3 s
REP_EQUATIONS_GUARD = 250_000
REP_T_TERMS_GUARD = 100_000


def _run_rep_check(args, report):
    n, m = args.n, args.m
    size_guard((2 * m - 1, m, m), REP_EQUATIONS_GUARD,
               lambda equations: f"rep check refused for (2m - 1) m^2 = {equations} Hom equations")
    size_guard((m, m - 1, n, n), REP_T_TERMS_GUARD,
               lambda terms: f"rep check refused for m (m - 1) n^2 = {terms} rho(t_k) terms")
    params = RepParams(n, m, args.a, args.b)
    checks = verify_rep(Rep(params))
    report["context"] = {"n": args.n, "N": 2 * args.n, "degree": None}
    report["data"]["simple"] = is_simple(params)
    report["data"]["params"] = {"a": params.a, "b": params.b}
    return [checks]


# bounds m (b + 1), b the bit length of n: with a and b reduced mod n,
# |det M_{m,a,b}| = |a - b|^(m-1) |a + (m-1) b| < m n^m, so det M has at
# most m (b + 1) bits, and 14,000 bits (about 4,214 digits) keep every
# admitted det M under the 4,300 digits that Python converts to str
DET_M_BITS_GUARD = 14_000


def _run_inner_faithful(args, report):
    size_guard((args.m, args.n.bit_length() + 1), DET_M_BITS_GUARD,
               lambda bits: f"inner faithful refused for m (bit length of n + 1) = {bits} bits of det M")
    params = RepParams(args.n, args.m, args.a, args.b)
    report["data"]["det_M"] = det_M(args.m, params.a, params.b)
    report["data"]["criterion"] = inner_faithful_criterion(params)
    if not args.bruteforce:
        return []
    verdict, kernel, checks = inner_faithful_check(params)
    report["data"]["bruteforce"] = verdict
    report["data"]["kernel"] = kernel
    return [checks]


# bounds dim H = n^m m!, the term count of the integral and of the basis,
# for invariants and module-algebra-check.  On a 2-core host with Python
# 3.11, one run each: invariants 2 5 1 0 (dim 3840) takes 7.4 s and
# 3 4 1 0 (dim 1944) 5.5 s, module-algebra-check 2 5 1 0 9.9 s and
# 3 4 1 0 6.1 s; on H(4,4) (dim 6144) invariants takes 55 s and
# module-algebra-check 39 s, and invariants 2 6 1 0 --degree 2 26 s
DIMENSION_GUARD = 4000


def _guard_dimension(what: str, n: int, m: int) -> None:
    size_guard((n * i for i in range(1, m + 1)), DIMENSION_GUARD,
               lambda dim: f"{what} refused for dim H = {dim}")


# bounds the degree work of invariants, comb(K + m, m) monomials of degree
# <= K times the dim H terms of the integral that acts on each, which
# DIMENSION_GUARD alone leaves to grow with K = 2n at m = 2.  On a 2-core
# host with Python 3.11, one run each, invariants takes 16-32 us per unit:
# 12 2 1 0 (work 93,600) 2.4 s, 16 2 1 0 (287,232) 6.8 s, 20 2 1 0
# (688,800) 17.1 s, 2 5 1 0 (483,840) 7.9 s and 3 4 1 0 (408,240) 6.3 s
DEGREE_WORK_GUARD = 500_000


# bounds the linear algebra of invariants, a kernel and an RREF in each
# degree k <= K on the d_k = C(k + m - 1, m - 1) monomials of degree k,
# priced as sum_k d_k^3, which the degree work leaves to grow like K^4 at
# m = 2.  On a 2-core host with Python 3.11, one run each: 2 2 1 0
# --degree 40 (741,321) takes 2.3 s, --degree 60 (3,575,881) 8.8 s, and
# 2 3 1 0 --degree 16 (10,838,265) 5.1 s and --degree 20 (44,284,867) 19 s
LINEAR_ALGEBRA_GUARD = 4_000_000


def _guard_degree_work(n: int, m: int, degree: int) -> None:
    # comb(degree + m, m) m! n^m, the product of n (degree + i), i = 1..m
    size_guard((n * (degree + i) for i in range(1, m + 1)), DEGREE_WORK_GUARD,
               lambda work: f"invariants refused for degree work {work}"
               f" (monomials of degree <= {degree} times dim H)")
    cubes = sum(comb(k + m - 1, m - 1) ** 3 for k in range(degree + 1))
    size_guard((cubes,), LINEAR_ALGEBRA_GUARD, lambda work: f"invariants refused for linear algebra {work}"
               f" (the sum of d_k^3 over the monomial counts d_k of degrees k <= {degree})")


# bounds the monomial-pair work of module-algebra-check: its 2m + 2 acting
# elements times the C(K + 2m, 2m) monomial pairs of total degree <= K,
# times n^m for the terms of Delta(h) that each case sums over.  On a 2-core
# host with Python 3.11, one run each, a unit takes 7-27 us: 2 2 1 0
# --degree 12 (43,680) 0.6 s, --degree 16 (116,280) 1.4 s, 3 3 1 0
# --degree 6 (199,584) 2.7 s, 2 5 1 0 (384,384) 2.6 s, 3 4 1 0 (400,950)
# 2.6 s and, with the guard lifted, 8 3 1 0 (860,160) 23 s
MODULE_WORK_GUARD = 500_000


def _run_invariants(args, report):
    _guard_dimension("invariants", args.n, args.m)
    degree = args.degree if args.degree is not None else 2 * args.n
    _guard_degree_work(args.n, args.m, degree)
    hopf = HopfAlgebra(args.n, args.m)
    qpa = QuantumPolyAlgebra(hopf, args.a, args.b)
    subalgebra = args.subalgebra
    if args.m == 2 and subalgebra == "cyclic":
        subalgebra = "full"  # for m = 2 the cyclic subalgebra is all of H
    report["context"] = hopf.cyc.to_json()
    inv, checks = qpa.invariants_check(subalgebra, degree)
    report["data"]["invariants"] = [
        {"degree": k, "dim": len(inv[k]), "basis": [f.to_json() for f in inv[k]]}
        for k in range(degree + 1)
    ]
    report["data"]["subalgebra"] = subalgebra
    return [checks, qpa.containment_check(degree)]


def _run_module_algebra(args, report):
    _guard_dimension("module algebra check", args.n, args.m)
    degree = args.degree if args.degree is not None else min(4, 2 * args.n)
    m = args.m
    size_guard((2 * m + 2, args.n**m, *binomial_factors(degree + 2 * m, 2 * m)), MODULE_WORK_GUARD,
               lambda work: f"module algebra check refused for work {work} (elements"
               f" times monomial pairs of degree <= {degree} times n^m)")
    hopf = HopfAlgebra(args.n, args.m)
    qpa = QuantumPolyAlgebra(hopf, args.a, args.b)
    report["context"] = hopf.cyc.to_json()
    return [qpa.module_algebra_check(degree=degree, seed=args.seed)]


def _run_export(args, report):
    guard_basis_pairs("export", args.n, args.m)
    hopf = HopfAlgebra(args.n, args.m)
    report["context"] = hopf.cyc.to_json()
    # each label is built once and shared by every row that names it, as
    # product_table shares its result terms; the report writer renders a
    # shared container once per depth
    basis = [(hopf.basis_elem(*key), label_json(key)) for key in hopf.basis_keys()]
    labels = [label for _, label in basis]
    data = report["data"]
    data["dim"] = hopf.dim
    data["basis"] = labels
    data["mul"] = [
        {"left": left, "right": right, "result": result}
        for (left, right), result in zip(iproduct(labels, repeat=2), hopf.product_table())
    ]
    for name, op in (
        ("coproduct", hopf.coproduct),
        ("counit", hopf.counit),
        ("antipode", hopf.antipode),
    ):
        data[name] = [{"element": label, "result": op(a).to_json()} for a, label in basis]
    return []


def _run_embed_check(args, report):
    report["context"] = {"n": args.n, "N": 2 * args.n, "degree": None}
    return [embedding_check(args.n, args.m)]


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
        return _cannot_write(args.out, exc)
    try:
        code, report = _run(args, config)
        code = _emit(report, out, code, args.out or "stdout")
    finally:
        if out is not sys.stdout:
            out.close()
    return code


def _cannot_write(target: str, exc: OSError) -> int:
    print(f"kacpal: error: cannot write the report to {target}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _run(args, config) -> tuple[int, dict]:
    """The exit code and report of one command.  A runner fills in the
    report's context and data and returns its AxiomReports; their checks,
    verdict and seconds per check are recorded here, for every command.  A
    refused run records its error in place of a verdict, and its timings
    like any other run."""
    report = _report_shell(args.command, config)
    start = time.monotonic()
    code, parts = None, []
    try:
        parts = _RUNNERS[args.command](args, report)
    except SizeGuardError as exc:
        code, report["error"] = 3, {"type": "size-guard", "message": str(exc)}
    except NotInvertibleError as exc:
        code, report["error"] = 1, {"type": "not-invertible", "message": str(exc)}
    checks = AxiomReport(args.command, report["checks"]).extend(*parts)
    if code is None:
        report["ok"] = checks.ok
        code = 0 if checks.ok else 1
    report["timings"] = {
        "checks": {name: round(s, 6) for name, s in checks.timings.items()},
        "total_seconds": round(time.monotonic() - start, 6),
    }
    return code, report


def _emit(report: dict, out, code: int, target: str) -> int:
    """Write the report and a newline to out, close it unless it is stdout,
    and return the run's exit code.  A reader that closes stdout early
    (``kacpal export 2 3 | head``) ends the output quietly; any other
    OSError, such as a full disk, prints one error line and returns 2."""
    try:
        out.write(report_text(report))
        out.write("\n")
        out.flush()
        if out is not sys.stdout:
            out.close()
    except OSError as exc:
        # Python flushes stdout again at exit, and a file when it is closed;
        # pointing it at devnull keeps that flush from raising (Python docs,
        # "Note on SIGPIPE")
        with contextlib.suppress(ValueError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), out.fileno())  # ValueError: no descriptor, or closed
        if not isinstance(exc, BrokenPipeError):
            code = _cannot_write(target, exc)
    return code


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

    Three memos last for one call.  A list of plain ints and strings (a
    coefficient, an exponent vector, a word) is rendered once per values
    and depth; testing ``type(x) is int`` keeps True, 1 and 1.0, which hash
    equal, out of one key.  Any other list or dict is rendered once per
    object and depth: its first rendering is kept as a span of chunks, and
    the text of that span is kept when the object is reached again, as
    ``export`` shares one label dict across rows; ids stay valid because
    the report holds every object for the whole call, and a container
    reached once keeps no text.  A dict whose keys are all of type str has
    its sorted ``"key": `` prefixes cached by its tuple of keys; no such
    tuple equals one that holds True, 1 or 1.0.  A str or int is written
    before any other test."""
    chunks: list[str] = []
    emit = chunks.append
    leaf_lists: dict = {}
    rendered: dict = {}  # (id, depth): the (start, end) chunk span, then its text
    key_prefixes: dict = {}

    def write(o, depth: int) -> None:
        t = type(o)
        if t is str:
            emit(_JSON_STR(o))
            return
        if t is int:
            emit(int.__repr__(o))
            return
        if not isinstance(o, (list, tuple, dict)):
            text = _scalar_text(o)
            if text is None:
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
            emit(text)
            return
        if not o:
            emit("{}" if isinstance(o, dict) else "[]")
            return
        pad = "\n" + "  " * (depth + 1)
        if t is not dict and all(type(x) is int or type(x) is str for x in o):
            key = (tuple(o), depth)
            text = leaf_lists.get(key)
            if text is None:
                items = [_JSON_STR(x) if type(x) is str else int.__repr__(x) for x in o]
                text = leaf_lists[key] = f"[{pad}{(',' + pad).join(items)}\n{'  ' * depth}]"
            emit(text)
            return
        memo_key = (id(o), depth)
        done = rendered.get(memo_key)
        if done is not None:
            if type(done) is tuple:
                done = rendered[memo_key] = "".join(chunks[done[0]: done[1]])
            emit(done)
            return
        start = len(chunks)
        if isinstance(o, dict):
            shape = tuple(o)
            prefixes = key_prefixes.get(shape)
            if prefixes is None:
                prefixes = [(key, f"{_key_text(key)}: ") for key in sorted(shape)]
                if all(type(key) is str for key in shape):
                    key_prefixes[shape] = prefixes
            sep, close = "{" + pad, "}"
            for key, prefix in prefixes:
                emit(sep + prefix)
                write(o[key], depth + 1)
                sep = "," + pad
        else:
            sep, close = "[" + pad, "]"
            for x in o:
                emit(sep)
                write(x, depth + 1)
                sep = "," + pad
        emit(f"\n{'  ' * depth}{close}")
        rendered[memo_key] = (start, len(chunks))

    write(report, 0)
    return "".join(chunks)


def _key_text(key) -> str:
    """JSON text of a dict key, in the form of ``json.dumps``."""
    if isinstance(key, str):
        return _JSON_STR(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return f'"{text}"'


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
