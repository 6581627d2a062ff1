"""Outside-in tracer: spans around calls into each charp layer.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` wraps the
public entry point of each layer and rebinds every name that refers to it:
the defining module's attribute, each ``from .x import f`` copy in another
charp module, or the class attribute of a method.  ``uninstall`` puts the
originals back.

A span is ``[name, start, end, parent, cells, trace_id]`` and stays in memory
until the pass ends.  A span's self time is its duration minus the time of
its direct children.
"""

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "charp"

# Modules the targets live in; importing them all up front makes every
# ``from .x import f`` copy visible to install().
MODULES = ("rings", "linalg", "complexes", "doldkan", "cosalg", "groups",
           "gcoh", "extclass", "roots", "tower", "witt", "scenarios", "cli")

VOPS = ("varray", "vadd", "vsub", "vneg", "vmul", "vouter", "vmatmul",
        "vfrob", "vfrom_int")

# Above this many cells a prime-field echelon takes the blocked float64 path
# (mirrors charp.linalg.echelon).
BLOCKED_CELLS = 20000


def _echelon_name(mat, *_args, **_kw):
    ring = mat.ring
    rows, cols = mat.data.shape
    blocked = getattr(ring, "r", 0) == 1 and rows * cols > BLOCKED_CELLS \
        and rows > 1
    return ("linalg.echelon.blocked" if blocked
            else "linalg.echelon.generic"), rows * cols


def _cells_of(pos):
    def name_and_cells(*args, **_kw):
        mat = args[pos]
        return None, mat.data.shape[0] * mat.data.shape[1]
    return name_and_cells


# (span name, module, attribute path, classifier).  A classifier returns
# (name or None, cells) from the call's arguments.
TARGETS = (
    [("rings.poly.vops", "rings", f"PolyQuotient.{op}", None) for op in VOPS]
    + [("rings.zmod.vops", "rings", f"ZModPE.{op}", None) for op in VOPS]
    + [
        ("linalg.echelon", "linalg", "echelon", _echelon_name),
        ("linalg.diagonalize", "linalg", "diagonalize", _cells_of(0)),
        ("linalg.matmul", "linalg", "Mat.__matmul__", None),
        ("complexes.slice", "complexes", "CohomologySlice.__init__", None),
        ("doldkan.dold_kan", "doldkan", "dold_kan", None),
        # sym/ext are the leaves: div_power_matrix and power_matrix call them
        ("doldkan.power_matrix", "doldkan", "sym_power_matrix", _cells_of(1)),
        ("doldkan.power_matrix", "doldkan", "ext_power_matrix", _cells_of(1)),
        ("doldkan.conormalize", "doldkan", "conormalize", None),
        ("doldkan.conormalize_map", "doldkan", "conormalize_map", None),
        ("groups.matrix_group", "groups", "matrix_group", None),
        ("groups.validate", "groups", "FiniteGroup.validate", None),
        ("gcoh.bar_init", "gcoh", "BarEngine.__init__", None),
        ("gcoh.periodic.action_matrix", "gcoh", "PeriodicEngine.action_matrix",
         None),
        ("gcoh.periodic.phi", "gcoh", "PeriodicEngine.phi", None),
        ("gcoh.invariant_subspace", "gcoh", "invariant_subspace", None),
        ("extclass.alpha_init", "extclass", "AlphaClass.__init__", None),
        ("extclass.derived_sym_model", "extclass", "derived_sym_model", None),
        ("cosalg.steenrod", "cosalg", "steenrod", None),
        ("cosalg.nerve_init", "cosalg", "NerveAlgebra.__init__", None),
        ("roots.enumerate", "roots", "enumerate_expressions", None),
    ])

ROOT = "scenario"
PHI = "gcoh.periodic.phi"

# Per-layer metrics reported from a traced pass: span name -> fields.
LAYER_FIELDS = {
    "rings.poly.vops": ("calls", "self_s"),
    "rings.zmod.vops": ("calls", "self_s"),
    "linalg.echelon.generic": ("calls", "self_s", "cells"),
    "linalg.echelon.blocked": ("calls", "self_s", "cells"),
    "linalg.diagonalize": ("calls", "self_s"),
    "linalg.matmul": ("calls", "self_s"),
    "complexes.slice": ("calls", "self_s"),
    "doldkan.dold_kan": ("self_s",),
    "doldkan.power_matrix": ("calls", "self_s", "cells"),
    "doldkan.conormalize": ("self_s",),
    "doldkan.conormalize_map": ("self_s",),
    "groups.matrix_group": ("self_s",),
    "groups.validate": ("self_s",),
    "gcoh.bar_init": ("self_s",),
    "gcoh.periodic.action_matrix": ("calls", "self_s"),
    "gcoh.periodic.phi": ("calls",),
    "gcoh.invariant_subspace": ("self_s",),
    "extclass.alpha_init": ("self_s",),
    "extclass.derived_sym_model": ("self_s",),
    "cosalg.steenrod": ("self_s",),
    "cosalg.nerve_init": ("self_s",),
    "roots.enumerate": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "cells": "cells"}

# Metrics derived from a whole traced pass rather than one layer.
PASS_METRICS = {
    "gcoh.periodic.phi.hit_ratio": "ratio",
    "scenarios.glue.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "process.cpu_s": "s",
}


def per_layer_units():
    """{metric name: unit} of every per-layer metric, in report order."""
    out = {f"{layer}.{field}": UNITS[field]
           for layer, fields in LAYER_FIELDS.items() for field in fields}
    out.update(PASS_METRICS)
    return out


def import_package():
    """Import every charp module the targets live in."""
    for mod in MODULES:
        importlib.import_module(f"{PACKAGE}.{mod}")


class Tracer:
    """Collects spans for one pass; ``install``/``uninstall`` patch charp."""

    def __init__(self):
        self.spans = []
        self.trace_id = None
        self._stack = []
        self._patches = []          # (owner, attr, original)
        self._engines = {}          # id -> PeriodicEngine seen by phi
        self.phi_misses = 0

    # -- spans -------------------------------------------------------------
    def _wrap(self, fn, name, classify):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        track_engine = name == PHI

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, cells = name, 0
            if classify is not None:
                sub, cells = classify(*args, **kwargs)
                span_name = sub or name
            if track_engine:
                tracer._engines[id(args[0])] = args[0]
            idx = len(spans)
            spans.append([span_name, clock(), 0.0,
                          stack[-1] if stack else -1, cells, tracer.trace_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    @contextlib.contextmanager
    def root(self, trace_id):
        """The root span of one scenario run; its spans get ``trace_id``."""
        self.trace_id = trace_id
        idx = len(self.spans)
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, 0, trace_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
            # misses = entries phi added to each memo (one is pre-seeded)
            self.phi_misses += sum(len(e._phi_memo) - 1
                                   for e in self._engines.values())
            self._engines.clear()
            self.trace_id = None

    # -- patching ------------------------------------------------------------
    def install(self):
        import_package()
        modules = [m for k, m in sys.modules.items()
                   if (k == PACKAGE or k.startswith(PACKAGE + "."))
                   and m is not None]
        for name, mod_name, path, classify in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(original, name, classify))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(original, name, classify)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------
    def layer_totals(self):
        """{span name: {"calls", "self_s", "cells"}} over all spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, cells, _) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "cells": 0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child[i]
            agg["cells"] += cells
        return out
