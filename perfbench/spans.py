"""In-memory spans around reflact's public layer entry points.

A span is recorded by wrapping a public function where reflact's modules
look it up (their module globals), so calls between layers are timed
without changing any function body.  Spans are kept in memory; the worker
writes them out after the pass.  A layer's time is the self time of its
spans: duration minus the part covered by child spans.
"""

import sys
import time
from contextlib import contextmanager

# layer metric -> public functions (module, name) whose calls it covers
LAYER_FUNCTIONS = {
    "groups.generate_s": [("groups", "generate"), ("groups", "group_from_json"),
                          ("catalog", "make_grpn"), ("catalog", "shipped_group"),
                          ("catalog", "load_group_file"),
                          ("catalog", "parse_group_spec")],
    "groups.classes_s": [("groups", "conjugacy_classes")],
    "groups.characters_s": [("groups", "linear_characters"),
                            ("groups", "determinant_like_characters")],
    "groups.reflections_s": [("groups", "reflections"),
                             ("groups", "reflection_arrangement")],
    "groups.action_s": [("groups", "hyperplane_action")],
    "groups.orbits_s": [("groups", "orbits_on_lattice")],
    "arrangement.build_s": [("catalog", "make_arrangement"),
                            ("catalog", "parse_arrangement_spec")],
    "arrangement.lattice_s": [("arrangement", "build_lattice")],
    "osalg.nbc_s": [("osalg", "nbc_basis"), ("osalg", "circuits")],
    "osalg.euler_s": [("osalg", "euler_derivation")],
    "invariants.orbitwise_s": [("invariants", "isotypic_dims_orbitwise")],
    "invariants.global_s": [("invariants", "isotypic_dim_global")],
    "invariants.basis_s": [("invariants", "theorem4_basis")],
    "invariants.relative_s": [("invariants", "relative_character")],
    "invariants.vanishing_s": [("invariants", "vanishing_check_detlike")],
}


class Tracer:
    """Spans as [name, parent index, case, start, end] in call order."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.case, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][4] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _wrap(self, func, name):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end()
        traced.__wrapped__ = func
        return traced

    def install(self):
        """Wrap every function in LAYER_FUNCTIONS in every reflact module
        that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "reflact" or n.startswith("reflact.")]
        for name, funcs in LAYER_FUNCTIONS.items():
            for mod_name, attr in funcs:
                func = getattr(sys.modules.get("reflact." + mod_name), attr, None)
                if func is None:
                    continue
                wrapped = self._wrap(func, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is func:
                            self._patched.append((mod, key, func))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, func in reversed(self._patched):
            setattr(mod, key, func)
        self._patched = []

    def self_times(self, until):
        """Self seconds per span name, over spans that ended by `until`."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0 and end is not None and end <= until:
                child[parent] += end - start
        out = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            if end is not None and end <= until:
                out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out
