"""In-memory span tracing around graftop's public functions.

The tracer replaces a public function in every graftop module namespace
that binds it (``verify`` and ``presentation`` import by name), so calls
between modules and recursive calls are seen too.  Constructors are counted,
not spanned.  A span is (name, start, end, parent); spans stay in memory
until the timed part is over, when ``write`` saves them and
``layer_values`` folds them into per-layer totals.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

CHECKS = (
    "check_nested_associativity",
    "check_disjoint_associativity",
    "check_unit_laws",
    "check_equivariance",
    "check_minimality",
    "check_specializations",
    "check_deformed_identity",
    "check_roundtrip_psi_phi",
    "check_morphisms_i_j",
)
CHECK_NAMES = {fn: fn[len("check_"):] for fn in CHECKS}
MODULES = ("trees", "algebra", "operad", "presentation", "verify")

# span name -> (module, function) it wraps
SPANNED = {
    "trees.parse": [("trees", "parse_tree")],
    "trees.enumerate": [
        ("trees", "enumerate_labeled_trees"),
        ("trees", "enumerate_unlabeled_trees"),
    ],
    "operad.compose": [("operad", "compose_lambda")],
    "operad.arrow": [("operad", "arrow_lambda")],
    "operad.circ_sum": [("operad", "circ_sum")],
    "presentation.psi": [("presentation", "psi")],
    "presentation.phi": [("presentation", "phi")],
}
# counter name -> (module, class) whose __init__ is counted
COUNTED = {
    "trees.built": ("trees", "WeightedTree"),
    "algebra.poly_built": ("algebra", "LambdaPoly"),
    "algebra.combination_built": ("algebra", "Combination"),
}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [
        "trees.parse_s",
        "trees.built",
        "trees.enumerate_s",
        "algebra.render_s",
        "algebra.specialize_s",
        "algebra.poly_built",
        "algebra.combination_built",
        "operad.compose_s",
        "operad.compose_calls",
        "operad.maps",
        "operad.us_per_map",
        "operad.arrow_s",
        "operad.arrow_calls",
        "operad.circ_sum_s",
        "presentation.psi_s",
        "presentation.phi_s",
        "presentation.psi_calls",
        "presentation.phi_calls",
        "presentation.psi_terms",
    ]
    for check in CHECKS:
        names += [f"verify.{CHECK_NAMES[check]}_s", f"verify.{CHECK_NAMES[check]}_instances"]
    names.append("verify.fault_s")
    names += [f"{module}.self_s" for module in MODULES]
    names += ["trace.overhead_s", "trace.overhead_pct"]
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span; a span's parent is an index into these arrays.
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.outermost = array("b")
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block of the benchmark's own code."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx, name)

    def _enter(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        self.outermost.append(depth == 0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._open[name] -= 1

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, name)
            if after is not None:
                after(self, idx, args, result)
            return result

        return traced

    def count(self, name: str, init):
        counts = self.counts
        counts[name] = 0

        def counted(obj, *args, **kwargs):
            counts[name] += 1
            init(obj, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def active(self):
        """Trace graftop's public functions for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap graftop's public functions in every namespace binding them."""
        namespaces = [sys.modules["graftop"]] + [
            sys.modules[f"graftop.{m}"] for m in MODULES + ("cli",)
        ]
        self.counts.update({"operad.maps": 0, "presentation.psi_terms": 0})

        def replace(module: str, attr: str, make) -> None:
            original = getattr(sys.modules[f"graftop.{module}"], attr)
            wrapped = make(original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapped)

        for name, places in SPANNED.items():
            for module, attr in places:
                replace(module, attr, lambda f: self.wrap(name, f, _HOOKS.get(name)))
        for check in CHECKS:
            replace("verify", check, lambda f: self._wrap_check(check, f))
        # Specialization is a method, called as the CLI and verify call it.
        combination = sys.modules["graftop.algebra"].Combination
        self._patch(combination, "specialize",
                    self.wrap("algebra.specialize", combination.specialize))
        for name, (module, cls_name) in COUNTED.items():
            cls = getattr(sys.modules[f"graftop.{module}"], cls_name)
            self._patch(cls, "__init__", self.count(name, cls.__init__))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_check(self, check: str, original):
        """Clean calls span as the check; fault-injected calls as verify.fault."""
        clean = self.wrap(f"verify.{CHECK_NAMES[check]}", original)
        fault = self.wrap("verify.fault", original)

        def traced_check(*args, **kwargs):
            return (fault if kwargs.get("fault") else clean)(*args, **kwargs)

        return traced_check

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span as a tab-separated line: name, start and end in
        nanoseconds, and the line index of the parent span (-1 for none)."""
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")

    def layer_values(self, instances: dict) -> dict:
        """Every per-layer metric except the tracing overhead.  ``<span>_s``
        is inclusive time with recursion counted once, ``<module>.self_s``
        is span time minus child span time, ``<span>_calls`` counts every
        call, recursive ones and memo hits included."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        inclusive: dict[str, int] = {}
        calls: dict[str, int] = {}
        self_ns = {m: 0 for m in MODULES}
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            if self.outermost[i]:
                inclusive[name] = inclusive.get(name, 0) + dur[i]
            self_ns[name.split(".")[0]] += dur[i] - child[i]
        values = {}
        for name in per_layer_names():
            if name.endswith(".self_s"):
                values[name] = self_ns[name.split(".")[0]] / 1e9
            elif name.endswith("_s"):
                values[name] = inclusive.get(name[:-len("_s")], 0) / 1e9
            elif name.endswith("_calls"):
                values[name] = calls.get(name[:-len("_calls")], 0)
            elif name.endswith("_instances"):
                values[name] = instances.get("check_" + name[len("verify."):-len("_instances")], 0)
            elif name in self.counts:
                values[name] = self.counts[name]
        maps = values["operad.maps"]
        values["operad.us_per_map"] = 1e6 * values["operad.compose_s"] / maps if maps else 0.0
        return values


def _count_maps(tracer, idx, args, result) -> None:
    S, v, T = args
    if T.total_weight == v.weight:
        tracer.counts["operad.maps"] += T.size ** len(v.node.children)


def _count_psi_terms(tracer, idx, args, result) -> None:
    if tracer.outermost[idx]:
        tracer.counts["presentation.psi_terms"] += len(result)


_HOOKS = {"operad.compose": _count_maps, "presentation.psi": _count_psi_terms}
