"""Outside-in tracer for kacpal: wraps library functions from outside the
package, without editing it.

Each target is wrapped at every place it is bound: its defining module or
class, every kacpal module that imported it by name, the package namespace,
and every alias inside a class (``CycScalar.__rmul__ = __mul__``).  A
target that ends up with no binding, or an original left bound anywhere,
stops the install, so a layer cannot silently read zero calls.

High-frequency targets are aggregated (call count plus busy time).  The rest
also record one span each (id, parent id, name, start, end) into in-memory
arrays, which ``write_spans`` writes out after the command has returned.
Busy time is wall time during which at least one call of the target is on
the stack, so recursion and re-entry are not counted twice.
"""

from __future__ import annotations

import sys
import time
from array import array

# (layer name, defining module, attribute path, aggregated, reported metrics)
TARGETS = (
    ("cyclotomic.mul", "kacpal.cyclotomic", "CycScalar.__mul__", True, ("calls", "s")),
    ("cyclotomic.add", "kacpal.cyclotomic", "CycScalar.__add__", True, ("calls", "s")),
    ("cyclotomic.inv", "kacpal.cyclotomic", "CycScalar.inv", True, ("calls", "s")),
    ("symmetric.perm_hash", "kacpal.symmetric", "Perm.__hash__", True, ("calls",)),
    ("symmetric.canonical_word", "kacpal.symmetric", "canonical_word", False, ("calls",)),
    ("cocycle.gamma", "kacpal.cocycle", "WordCalculus.cocycle", False, ("calls", "s")),
    ("group_ring.check_invertible", "kacpal.group_ring", "check_tensor_invertible", False, ("calls", "s")),
    ("group_ring.tensor_inverse", "kacpal.group_ring", "tensor_inverse", False, ("calls", "s")),
    ("group_ring.ring_inverse", "kacpal.group_ring", "ring_inverse", False, ("calls", "s")),
    ("group_ring.ktensor_mul", "kacpal.group_ring", "KTensor.__mul__", False, ("calls", "s")),
    ("twists.is_twist", "kacpal.twists", "is_twist", False, ("s",)),
    ("twists.is_strong_twist", "kacpal.twists", "is_strong_twist", False, ("s",)),
    ("twists.is_superstrong", "kacpal.twists", "is_superstrong", False, ("s",)),
    ("twists.embedded_twist", "kacpal.twists", "embedded_twist", False, ("s",)),
    ("twists.search", "kacpal.twists", "search_central_converse", False, ("s",)),
    ("hopf.hmul", "kacpal.hopf", "HopfAlgebra.hmul", False, ("calls", "s")),
    ("hopf.coproduct", "kacpal.hopf", "HopfAlgebra.coproduct", False, ("calls", "s")),
    ("hopf.htensor_mul", "kacpal.hopf", "HTensor.__mul__", False, ("calls", "s")),
    ("hopf.antipode", "kacpal.hopf", "HopfAlgebra.antipode", False, ("calls", "s")),
    ("hopf.verify_axioms", "kacpal.hopf", "HopfAlgebra.verify_axioms", False, ("s",)),
    ("hopf.verify_integral", "kacpal.hopf", "HopfAlgebra.verify_integral", False, ("s",)),
    ("hopf.cyclic_subalgebra", "kacpal.hopf", "HopfAlgebra.cyclic_subalgebra", False, ("s",)),
    ("quantum_poly.act", "kacpal.quantum_poly", "QuantumPolyAlgebra.act", False, ("calls", "s")),
    ("quantum_poly.action_matrix", "kacpal.quantum_poly", "QuantumPolyAlgebra.action_matrix", False, ("calls", "s")),
    ("quantum_poly.invariants", "kacpal.quantum_poly", "QuantumPolyAlgebra.invariants", False, ("s",)),
    ("quantum_poly.invariants_oracle", "kacpal.quantum_poly", "QuantumPolyAlgebra.invariants_oracle", False, ("s",)),
    ("linalg.rref", "kacpal.linalg", "rref", False, ("calls", "s")),
    ("linalg.kernel_basis", "kacpal.linalg", "kernel_basis", False, ("calls", "s")),
    ("linalg.mat_mul", "kacpal.linalg", "Mat.__mul__", False, ("calls",)),
    ("reps.verify_rep", "kacpal.reps", "verify_rep", False, ("s",)),
    ("reps.is_simple", "kacpal.reps", "is_simple", False, ("s",)),
    # root span of every traced command; not a reported metric
    ("cli.main", "kacpal.cli", "main", False, ()),
)


def _kacpal_namespaces():
    """Every module and class dict under the kacpal package that can hold a
    binding of a target."""
    spaces = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "kacpal" or name.startswith("kacpal.")):
            continue
        spaces.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == name:
                spaces.append(value)
    return spaces


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        # per target: [calls, busy seconds, active depth]
        self.stats = {name: [0, 0.0, 0] for name in self.names}
        self.hopf_algebras = []
        self._stack: list[int] = []
        self._next_id = 1
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- wrappers ---------------------------------------------------------------

    def _aggregated(self, fn, stat):
        perf = time.perf_counter

        def wrapper(*args):
            stat[0] += 1
            if stat[2]:
                return fn(*args)
            stat[2] = 1
            t0 = perf()
            try:
                return fn(*args)
            finally:
                stat[1] += perf() - t0
                stat[2] = 0

        return wrapper

    def _spanned(self, fn, stat, index):
        perf = time.perf_counter
        stack = self._stack
        ids, parents, names = self.span_id, self.span_parent, self.span_name
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            stat[0] += 1
            stat[2] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += t1 - t0
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                names.append(index)
                starts.append(t0)
                ends.append(t1)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site.  Import kacpal and
        kacpal.cli first."""
        spaces = _kacpal_namespaces()
        originals = []
        for index, (name, module, path, aggregated, _) in enumerate(TARGETS):
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            stat = self.stats[name]
            wrapper = (
                self._aggregated(orig, stat) if aggregated else self._spanned(orig, stat, index)
            )
            bound = 0
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is orig:
                        setattr(space, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"trace target {name} ({module}.{path}) is bound nowhere")
            originals.append((name, orig))
        for space in spaces:
            for key, value in vars(space).items():
                for name, orig in originals:
                    if value is orig:
                        raise RuntimeError(f"{name} is still unwrapped at {space.__name__}.{key}")
        self._record_instances(sys.modules["kacpal.hopf"].HopfAlgebra)

    def _record_instances(self, cls) -> None:
        init = cls.__init__
        instances = self.hopf_algebras

        def recording_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        cls.__init__ = recording_init

    # -- results ------------------------------------------------------------------

    def memo_entries(self) -> int:
        """Summed size of the memo dicts of every HopfAlgebra built, including
        those of its word calculus (the gamma tables)."""
        total = 0
        for hopf in self.hopf_algebras:
            for obj in (hopf, hopf.words):
                total += sum(len(v) for v in vars(obj).values() if isinstance(v, dict))
        return total

    def summary(self) -> dict:
        return {
            name: {"calls": stat[0], "s": stat[1]} for name, stat in self.stats.items()
        }

    def write_spans(self, path: str, origin: float) -> int:
        """Write the spans as tab-separated lines, times in seconds relative
        to ``origin``.  Returns the number of spans."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid, parent, index, t0, t1 in zip(
                self.span_id, self.span_parent, self.span_name, self.span_start, self.span_end
            ):
                fh.write(f"{sid}\t{parent}\t{names[index]}\t{t0 - origin:.7f}\t{t1 - origin:.7f}\n")
        return len(self.span_id)
