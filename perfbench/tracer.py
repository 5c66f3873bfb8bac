"""Outside-in tracer for the superchar layers.

The tracer wraps, from outside the package, the public functions and
methods of each layer module (plus the arithmetic dunders that carry real
work), runs one call, and restores every original.  Nothing in the package
is edited.

* Every namespace of the package that holds a wrapped object is patched,
  because modules import each other's functions by name
  (`from .charring import char_narrow` in bggcheck, for one).
* Spans are kept in memory as a tree merged by call path: one node per
  path of wrapped labels, with its call count, total time and self time.
  A node's self time is its duration minus the durations of its child
  spans, so recursion (`act_basis` calls itself) is attributed exactly:
  each level keeps only the time not covered by the level below.
* Counters are derived at the wrapper boundary.  Cache "misses" are the
  distinct (module, key) pairs the wrapper saw, not read from the
  package's private caches.  Work done by these hooks is timed apart as
  bookkeeping and charged to no layer.
* The accounting closes: the layer self times, the unattributed time of
  the traced callable itself and the bookkeeping add up to the traced wall
  time.  `check_closure` verifies it.
"""

from __future__ import annotations

import json
import sys
import time
import types

LAYERS = ("rootdata", "borels", "diagrams", "charring", "vermacalc", "linalg", "bggcheck")

# Dunders that do real work; other underscore names are private or are
# generated by dataclasses (__eq__, __hash__, __init__) and stay unwrapped.
WORK_DUNDERS = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__post_init__"})
# VermaElement.__init__ checks homogeneity of every element it builds.
EXTRA_METHODS = frozenset({("vermacalc", "VermaElement", "__init__")})
# Public helpers whose time stays with their caller.  DepthFunctional.of runs
# once per series term inside every ring operation, and wrapping it would
# multiply the tracer's cost; RowBasis.reduce is the first step of insert.
# Weight arithmetic runs about once per series term too: its tuple work
# stays with the ring operation, and the Weight it builds is charged to
# rootdata through Weight.__post_init__, the construction check.
SKIP_METHODS = frozenset({
    ("charring", "DepthFunctional", "of"),
    ("linalg", "RowBasis", "reduce"),
    *(("rootdata", "Weight", name) for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")),
})
# Ring operations whose output series are counted; the other ring methods
# (__sub__, __neg__, __mul__) delegate to these.
RING_OUTPUTS = ("__add__", "scale", "mul", "mul_unit", "div_unit", "retruncate")

# Self times are reported as a share of the traced wall time, in percent:
# a layer a workload never calls has a self time of exactly zero on every
# run, and a share is also steadier than seconds on a host whose speed
# drifts.  Seconds are share / 100 * trace.wall_s.
SELF_METRICS = {
    "diagrams.is_g1_generic.self_pct": ("diagrams.is_g1_generic",),
    "charring.div_unit.self_pct": ("charring.FormalChar.div_unit",),
    "charring.mul_unit.self_pct": ("charring.FormalChar.mul_unit",),
    "charring.mul.self_pct": ("charring.FormalChar.mul",),
    "charring.add.self_pct": ("charring.FormalChar.__add__",),
    "charring.equals.self_pct": ("charring.FormalChar.equals",),
    "vermacalc.weight_space_monomials.self_pct": ("vermacalc.VermaModule.weight_space_monomials",),
    "vermacalc.act_basis.self_pct": ("vermacalc.VermaModule.act_basis",),
    "vermacalc.apply.self_pct": ("vermacalc.VermaModule.apply",),
    "vermacalc.submodule_weight_ranks.self_pct": ("vermacalc.submodule_weight_ranks",),
    "linalg.insert.self_pct": ("linalg.RowBasis.insert",),
}
CALL_METRICS = {
    "rootdata.weights_built": "rootdata.Weight.__post_init__",
    "diagrams.is_g1_generic.calls": "diagrams.is_g1_generic",
    "charring.div_unit.calls": "charring.FormalChar.div_unit",
    "charring.mul_unit.calls": "charring.FormalChar.mul_unit",
    "charring.equals.calls": "charring.FormalChar.equals",
    "vermacalc.weight_space_monomials.calls": "vermacalc.VermaModule.weight_space_monomials",
    "vermacalc.act_basis.calls": "vermacalc.VermaModule.act_basis",
    "vermacalc.apply.calls": "vermacalc.VermaModule.apply",
    "vermacalc.elements_built": "vermacalc.VermaElement.__init__",
    "linalg.insert.calls": "linalg.RowBasis.insert",
}
# Self time of the closed character formulas: every charring.char_* function.
FORMULA_PREFIX = "charring.char_"
COUNTERS = (
    "charring.terms_out",
    "charring.max_coeff_bits",
    "vermacalc.weight_space_monomials.misses",
    "vermacalc.monomials_found",
    "vermacalc.window_cells",
    "vermacalc.act_basis.misses",
    "linalg.max_width",
    "linalg.max_entry_bits",
)
METRIC_NAMES = (
    *(f"{layer}.self_pct" for layer in LAYERS),
    *SELF_METRICS,
    "charring.formulas.self_pct",
    *CALL_METRICS,
    "linalg.insert.grew_ratio",
    *COUNTERS,
    "trace.wall_s",
    "trace.calls",
    "trace.overhead_ratio",
)


def _node(label):
    # [calls, total_s, self_s, children by label, label]
    return [0, 0.0, 0.0, {}, label]


class Tracer:
    """Wraps the layer modules of a loaded superchar package for one call."""

    def __init__(self, package):
        self.package = package
        self.root = _node("<traced call>")
        self.layer_of: dict[str, str] = {}
        self.wall_s = 0.0
        self.bookkeeping_s = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._grown = 0  # inserts that raised the rank
        self._stack: list = []
        self._patches: list = []
        self._alive: dict = {}  # id -> module object, so ids stay unique
        self._space_sizes: dict = {}
        self._act_seen: set = set()

    # -- targets ---------------------------------------------------------------

    def _targets(self):
        """(layer, owner, attribute, original, label) for every wrapped callable."""
        pkg = self.package.__name__
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__:
                        yield from self._method_targets(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    yield layer, mod, name, obj, f"{layer}.{name}"

    @staticmethod
    def _method_targets(layer, cls):
        for name, fn in list(vars(cls).items()):
            if not isinstance(fn, types.FunctionType):
                continue
            key = (layer, cls.__name__, name)
            if key in SKIP_METHODS:
                continue
            if name.startswith("_") and name not in WORK_DUNDERS and key not in EXTRA_METHODS:
                continue
            yield layer, cls, name, fn, f"{layer}.{cls.__name__}.{fn.__name__}"

    # -- hooks -----------------------------------------------------------------

    def _hooks(self):
        c = self.counters
        alive = self._alive
        sizes = self._space_sizes
        act_seen = self._act_seen

        def ring_output(args, result):
            coeffs = getattr(result, "coeffs", None)
            if coeffs is None:  # NotImplemented from a mixed-type operator
                return
            c["charring.terms_out"] += len(coeffs)
            if coeffs:
                bits = max(max(coeffs.values()), -min(coeffs.values())).bit_length()
                if bits > c["charring.max_coeff_bits"]:
                    c["charring.max_coeff_bits"] = bits

        def space(args, result):
            module, nu = args[0], args[1]
            key = (id(module), nu)
            if key not in sizes:
                alive[id(module)] = module
                sizes[key] = len(result)
                c["vermacalc.weight_space_monomials.misses"] += 1
                c["vermacalc.monomials_found"] += len(result)

        def act(args, result):
            module = args[0]
            key = (id(module), args[1], args[2])
            if key not in act_seen:
                alive[id(module)] = module
                act_seen.add(key)
                c["vermacalc.act_basis.misses"] += 1

        def window(args, result):
            module = args[0]
            c["vermacalc.window_cells"] += sum(sizes[(id(module), nu)] for nu in result)

        def insert(args, result):
            basis = args[0]
            if basis.width > c["linalg.max_width"]:
                c["linalg.max_width"] = basis.width
            if result:
                self._grown += 1
                bits = max(
                    (x.numerator.bit_length() + x.denominator.bit_length()
                     for row in basis.rows for x in row if x),
                    default=0,
                )
                if bits > c["linalg.max_entry_bits"]:
                    c["linalg.max_entry_bits"] = bits

        hooks = {f"charring.FormalChar.{name}": ring_output for name in RING_OUTPUTS}
        hooks["vermacalc.VermaModule.weight_space_monomials"] = space
        hooks["vermacalc.VermaModule.act_basis"] = act
        hooks["vermacalc.submodule_weight_ranks"] = window
        hooks["linalg.RowBasis.insert"] = insert
        return hooks

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, label, on_return):
        stack = self._stack
        pc = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            kids = parent[0][3]
            node = kids.get(label)
            if node is None:
                node = kids[label] = _node(label)
            frame = [node, 0.0]
            stack.append(frame)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                dur = t1 - t0
                stack.pop()
                node[0] += 1
                node[1] += dur
                node[2] += dur - frame[1]
                parent[1] += dur
            if on_return is not None:
                on_return(args, result)
                extra = pc() - t1
                tracer.bookkeeping_s += extra
                parent[1] += extra
            return result

        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        hooks = self._hooks()
        wrappers: dict[int, tuple] = {}
        for layer, owner, name, obj, label in self._targets():
            if id(obj) not in wrappers:
                self.layer_of[label] = layer
                wrappers[id(obj)] = (obj, self._wrap(obj, label, hooks.get(label)))
            if isinstance(owner, type):
                self._patch(owner, name, wrappers[id(obj)][1])
        pkg = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg or modname.startswith(pkg + ".")):
                continue
            for name, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, name, entry[1])
        missing = set(hooks) - set(self.layer_of)
        if missing:
            raise RuntimeError(f"tracer hooks name no wrapped callable: {sorted(missing)}")

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def run(self, fn):
        """Call fn() with every layer wrapped; originals are restored after."""
        try:
            self.install()
            root_frame = [self.root, 0.0]
            self._stack[:] = [root_frame]
            t0 = time.perf_counter()
            try:
                result = fn()
            finally:
                self.wall_s = time.perf_counter() - t0
                self._stack.clear()
                self.root[0] = 1
                self.root[1] = self.wall_s
                self.root[2] = self.wall_s - root_frame[1]
        finally:
            self.uninstall()
        return result

    # -- results ---------------------------------------------------------------

    def _walk(self):
        todo = list(self.root[3].values())
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node[3].values())

    def per_label(self) -> dict[str, list]:
        """label -> [calls, self_s] summed over every call path."""
        out: dict[str, list] = {}
        for node in self._walk():
            acc = out.setdefault(node[4], [0, 0.0])
            acc[0] += node[0]
            acc[1] += node[2]
        return out

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for label, (_, self_s) in self.per_label().items():
            totals[self.layer_of[label]] += self_s
        return totals

    def check_closure(self, rel_tol: float = 1e-6) -> tuple[bool, float]:
        """Layer self times + unattributed + bookkeeping == traced wall time."""
        accounted = sum(self.layer_self().values()) + self.root[2] + self.bookkeeping_s
        gap = abs(accounted - self.wall_s)
        return gap <= rel_tol * self.wall_s + 1e-9, gap

    def metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """Every name of METRIC_NAMES; the overhead is relative to untraced_wall_s."""
        labels = self.per_label()
        pct = 100.0 / self.wall_s if self.wall_s else 0.0
        out: dict[str, float] = {}
        for layer, self_s in self.layer_self().items():
            out[f"{layer}.self_pct"] = pct * self_s
        for metric, names in SELF_METRICS.items():
            out[metric] = pct * sum(labels.get(n, (0, 0.0))[1] for n in names)
        out["charring.formulas.self_pct"] = pct * sum(
            v[1] for k, v in labels.items() if k.startswith(FORMULA_PREFIX)
        )
        for metric, name in CALL_METRICS.items():
            out[metric] = labels.get(name, (0, 0.0))[0]
        inserts = out["linalg.insert.calls"]
        out["linalg.insert.grew_ratio"] = self._grown / inserts if inserts else 0.0
        out.update(self.counters)
        out["trace.wall_s"] = self.wall_s
        out["trace.calls"] = sum(v[0] for v in labels.values())
        out["trace.overhead_ratio"] = self.wall_s / untraced_wall_s
        return {name: out[name] for name in METRIC_NAMES}

    def spans(self) -> dict:
        """The call-path tree as nested JSON-ready dicts, largest first."""

        def convert(node):
            kids = sorted(node[3].values(), key=lambda n: -n[1])
            return {
                "name": node[4],
                "calls": node[0],
                "total_s": node[1],
                "self_s": node[2],
                "children": [convert(k) for k in kids],
            }

        return convert(self.root)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"bookkeeping_s": self.bookkeeping_s, "tree": self.spans()}, fh, indent=1
            )
