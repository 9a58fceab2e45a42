"""Spans and counters around gcartan's layers, installed from outside the package.

A span wraps one public function of a layer.  The wrapper is bound wherever
the function's callers look it up: every module-level name in gcartan that
refers to the function object, so `from .linalg import laurent_det` in gram
and `snf_mod.snf_int` in invariants are both seen, as is a function-local
import, which reads the defining module at call time.  A target that no
longer exists is skipped and listed in `absent`; its metrics are left out,
not reported as zero.

Ring operations of qlaurent (LaurentPoly multiplication, addition and
subtraction, and divide_exact) are counted per kind, and each span is charged
the operations made while it was the innermost open span.  Subtraction is
implemented by addition, so `add` also counts the addition inside every
`sub`.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "gcartan"

# (layer module, function, whether the first argument is a matrix or a
# diagonal whose length is recorded as max_dim)
TARGETS = [
    ("gram", "cartan_graded", False),
    ("gram", "gram_det", False),
    ("gram", "gram_det_at_one", False),
    ("gram", "gram_field_invariants", False),
    ("linalg", "laurent_det", True),
    ("linalg", "int_det", True),
    ("snf", "snf_laurent_field", True),
    ("snf", "snf_of_diagonal", True),
    ("snf", "snf_int", True),
    ("snf", "snf_int_certified", True),
    ("snf", "try_diagonalize_zlaurent", True),
    ("invariants", "conjecture_report", False),
]

DIAGONALIZER = "snf.try_diagonalize_zlaurent"

# counted LaurentPoly methods, by the kind they count as
RING_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
}
OP_KINDS = ("mul", "add", "sub", "divide_exact")


class Tracer:
    """Collects span times and counts for one interpreter; install() patches
    the loaded gcartan modules, uninstall() restores them."""

    def __init__(self):
        self.ops = dict.fromkeys(OP_KINDS, 0)
        # span name -> [ns, self_ns, calls, max_dim, ring_ops]
        self.stats: dict[str, list[int]] = {}
        self.has_dim: dict[str, bool] = {}
        self.absent: list[str] = []
        self.op_kinds: set[str] = set()
        self.diag = {"attempts": 0, "successes": 0, "steps": 0, "wasted_steps": 0}
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, fname, has_dim in TARGETS:
            name = f"{layer}.{fname}"
            fn = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), fname, None)
            if fn is None:
                self.absent.append(name)
                continue
            self.stats[name] = [0, 0, 0, 0, 0]
            self.has_dim[name] = has_dim
            self._rebind(modules, fn, self._span(name, fn, has_dim))
        qlaurent = sys.modules.get(f"{PACKAGE}.qlaurent")
        cls = getattr(qlaurent, "LaurentPoly", None)
        for method, kind in RING_METHODS.items():
            orig = cls.__dict__.get(method) if cls is not None else None
            if orig is None:
                continue
            self._undo.append((cls, method, orig))
            setattr(cls, method, self._counted(kind, orig))
        divide_exact = getattr(qlaurent, "divide_exact", None)
        if divide_exact is not None:
            self._rebind(modules, divide_exact, self._counted("divide_exact", divide_exact))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _rebind(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _counted(self, kind, fn):
        ops = self.ops
        self.op_kinds.add(kind)

        def counted(*args):
            ops[kind] += 1
            return fn(*args)

        return counted

    def _span(self, name, fn, has_dim):
        stats = self.stats[name]
        stack = self._stack
        ops = self.ops
        clock = time.perf_counter_ns
        on_result = self._on_diag if name == DIAGONALIZER else None

        def span(*args, **kwargs):
            frame = [0, 0]  # time and ring ops of child spans
            stack.append(frame)
            ops0 = sum(ops.values())
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                dops = sum(ops.values()) - ops0
                stack.pop()
                stats[0] += dt
                stats[1] += dt - frame[0]
                stats[2] += 1
                stats[4] += dops - frame[1]
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += dops
            if has_dim and args:
                stats[3] = max(stats[3], len(args[0]))
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _on_diag(self, result) -> None:
        steps = getattr(result, "steps", 0)
        self.diag["attempts"] += 1
        self.diag["steps"] += steps
        if getattr(result, "success", False):
            self.diag["successes"] += 1
        else:
            self.diag["wasted_steps"] += steps

    def summary(self) -> dict:
        """Raw per-interpreter metrics; times in seconds, the rest counts."""
        out = {}
        for name, (ns, self_ns, calls, max_dim, ring_ops) in self.stats.items():
            out[f"{name}.s"] = ns / 1e9
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.calls"] = calls
            out[f"{name}.ring_ops"] = ring_ops
            if self.has_dim[name]:
                out[f"{name}.max_dim"] = max_dim
        for kind in OP_KINDS:
            if kind in self.op_kinds:
                out[f"qlaurent.{kind}"] = self.ops[kind]
        if DIAGONALIZER in self.stats:
            for key, n in self.diag.items():
                out[f"snf.diag.{key}"] = n
        return out
