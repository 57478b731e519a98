"""Per-module spans for the benchmark's traced run.

install() wraps the public functions and methods of every layer module of
bisetforge, in the defining module and wherever another bisetforge module
holds them by name (an import or a dispatch table).  Each wrapped call is a
span; a layer's self time is the time of its spans minus the time of the
spans they cause.  Dunder methods are not wrapped, except the arithmetic
operators of the ring-element classes listed in OPERATOR_CLASSES: Perm's
operators run millions of times per subgroup lattice (16 million for S5),
always from inside perms functions, whose spans already cover them.

count_fractions() instead counts Fraction.__new__ calls, for a pass of its
own: the count costs about a microsecond per call, which would swamp the
self times of a traced pass.  Everything is kept in memory and read out when
the pass ends.
"""

import fractions
import functools
import importlib
import sys
import time

LAYERS = ("perms", "bisets", "blocks", "orders", "linalg", "quivers", "verify", "fixtures", "cli")

OPERATOR_CLASSES = {
    "bisets": ("BurnsideElement",),
    "blocks": ("BlockElement",),
    "quivers": ("PathElement",),
}
OPERATORS = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__")

# Inclusive time of the outermost call into any function of the group.
GROUPS = {
    "bisets.tables_s": (
        "bisets.structure_table",
        "bisets.mackey_table",
        "bisets.oracle_table",
        "bisets.left_mult_matrices",
    ),
    "bisets.parse_s": ("bisets.parse_element",),
    "verify.stage.peirce_s": ("verify.stage_peirce",),
    "verify.stage.gamma_s": ("verify.stage_gamma",),
    "verify.stage.lambda_s": ("verify.stage_lambda",),
    "verify.stage.local2_s": ("verify.stage_local2",),
    "verify.stage.local3_s": ("verify.stage_local3",),
    "verify.stage.paths_s": ("verify.stage_paths",),
    "verify.emit_s": ("verify.emit_fixtures",),
}

# Work counters: the number of calls of the named functions.
COUNTERS = {
    "bisets.products": ("bisets.multiply_vectors",),
    "blocks.products": ("blocks.BlockElement.__mul__",),
    "blocks.gamma_calls": ("blocks.PeirceBasis.gamma", "blocks.PeirceBasis.gamma_inv"),
    "orders.conjugator_calls": ("orders.conjugator",),
    "orders.delta_calls": ("orders.delta",),
    "linalg.smith_calls": ("linalg.smith_normal_form",),
    "linalg.hnf_calls": ("linalg.hnf_rows",),
    "linalg.in_local_span_calls": ("linalg.in_local_span",),
    "linalg.mat_inverse_calls": ("linalg.mat_inverse",),
    "quivers.normal_form_calls": ("quivers.normal_form",),
    "quivers.corner_solves": ("quivers.CornerAlgebra.express",),
    "fixtures.loads": ("fixtures.load_json",),
}


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.fn_calls = {}
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self.subgroups_found = 0
        self._stack = []
        self._group_of = {fn: g for g, fns in GROUPS.items() for fn in fns}
        self._group_depth = dict.fromkeys(GROUPS, 0)

    def _wrap(self, fn, layer, key):
        """A span around fn, booked to layer and counted under key."""
        self.fn_calls[key] = 0
        counts, selfs, stack = self.fn_calls, self.self_s, self._stack
        clock = time.perf_counter
        group = self._group_of.get(key)
        if group is not None:
            return self._wrap_grouped(fn, layer, key, group)
        found = key == "perms.PermGroup.all_subgroups"

        def span(*args, **kwargs):
            counts[key] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if found:
                    self.subgroups_found += len(out)
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                selfs[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return functools.wraps(fn)(span)

    def _wrap_grouped(self, fn, layer, key, group):
        counts, selfs, stack = self.fn_calls, self.self_s, self._stack
        depth, group_s = self._group_depth, self.group_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            counts[key] += 1
            frame = [0.0]
            stack.append(frame)
            depth[group] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[group] -= 1
                if depth[group] == 0:
                    group_s[group] += dt
                stack.pop()
                selfs[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return functools.wraps(fn)(span)

    def install(self):
        """Wrap every layer; call before the workload looks anything up."""
        replaced = {}
        modules = {layer: importlib.import_module("bisetforge." + layer) for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._wrap(obj, layer, "%s.%s" % (layer, name))
                    replaced[id(obj)] = wrapped
                    setattr(mod, name, wrapped)
        # Rebind the originals wherever a module holds them by name.
        for modname, mod in list(sys.modules.items()):
            if modname != "bisetforge" and not modname.startswith("bisetforge."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replaced:
                            obj[k] = replaced[id(v)]

    def _wrap_class(self, layer, cls):
        if issubclass(cls, BaseException):
            return
        operators = cls.__name__ in OPERATOR_CLASSES.get(layer, ())
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (operators and name in OPERATORS):
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, layer, key)))
            elif callable(attr):
                setattr(cls, name, self._wrap(attr, layer, key))

    def summary(self):
        """The per-layer figures of the pass, keyed by metric name."""
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
            prefix = layer + "."
            out[layer + ".calls"] = sum(
                n for key, n in self.fn_calls.items() if key.startswith(prefix)
            )
        for name, keys in COUNTERS.items():
            out[name] = sum(self.fn_calls.get(key, 0) for key in keys)
        out.update(self.group_s)
        out["perms.subgroups_found"] = self.subgroups_found
        return out


def count_fractions():
    """Count Fraction.__new__ calls from now on; returns a one-item list."""
    count = [0]
    original = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    fractions.Fraction.__new__ = staticmethod(counting_new)
    return count
