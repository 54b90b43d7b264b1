"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the layer functions listed in ``LAYERS`` at every
place they are bound: in the module that defines them and in every
``metriclie.*`` namespace that imported them.  Each call into a layer
records a span (layer, start, end, parent) in memory; a call made while the
innermost open span already belongs to the same layer joins that span, so
``calls`` counts entries into a layer.  ``uninstall`` puts the original
bindings back.  Self time is a span's duration minus the time its child
spans cover.
"""

import json
import sys
import time
from array import array

# layer name -> (module, functions).  A layer may group a public function
# with the helpers it dispatches to, so that its self time is the layer's;
# linalg.rref is the whole elimination core.  Only layer boundaries are
# wrapped; vector, matrix and polynomial arithmetic is not.
LAYERS = {
    "fileformat.parse": ("fileformat", ("load_path", "parse_string",
                                        "parse_document")),
    "cli.render": ("cli", ("render",)),
    "algebra.validate": ("algebra", ("validate",)),
    "algebra.connection_of": ("algebra", ("connection_of", "derive_connection",
                                          "check_torsion_and_compatibility")),
    "algebra.restrict": ("algebra", ("restrict",)),
    "algebra.transform_spec": ("algebra", ("transform_spec",)),
    "curvature.curvature_tensor": ("curvature", ("curvature_tensor",)),
    "curvature.killing_form": ("curvature", ("killing_form",)),
    "curvature.nilpotency_class": ("curvature", ("nilpotency_class",)),
    "ideals.ann_report": ("ideals", ("ann_report",)),
    "ideals.is_strong_ideal": ("ideals", ("is_strong_ideal",)),
    "decompose.commutant": ("decompose", ("commutant",)),
    "decompose.verify": ("decompose", ("verify_decomposition",)),
    "decompose.compare": ("decompose", ("compare_decompositions",)),
    "decompose.isometry": ("decompose", ("build_strong_isometry",)),
    "decompose.filtration": ("decompose", ("filtration",)),
    "linalg.kernel": ("linalg", ("kernel",)),
    "linalg.rref": ("linalg", ("rref", "_rref_rows", "_echelon")),
    "linalg.minimal_polynomial": ("linalg", ("minimal_polynomial",)),
    "linalg.congruent_diagonalize": ("linalg", ("congruent_diagonalize",)),
}
# Layers wrapped in one namespace only: the idempotent search is the
# polynomial work as bound in metriclie.decompose.  It wraps the
# linalg.minimal_polynomial wrapper, so that work counts under linalg and the
# search's self time is the rest.
SEARCH = ("decompose.search", "decompose",
          ("minimal_polynomial", "coprime_split", "poly_eval_mat"))
SUBSPACE = "linalg.subspace"   # Subspace.from_vectors

COUNTERS = ("decompose.commutant.dim_max", "decompose.search.candidates",
            "decompose.search.splits", "linalg.bits_max", "cli.render.bytes")


def _bits(sub):
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in sub.basis.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS) + [SEARCH[0], SUBSPACE]
        self._reset()
        self._undo = []

    def _reset(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._subspaces = []   # bit sizes are read after the pass
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, fn, layer, after=None):
        lid = self.layers.index(layer)
        stack, spans_layer = self._stack, self.layer
        parents, starts, ends = self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and spans_layer[top] == lid:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans_layer)
                spans_layer.append(lid)
                parents.append(top)
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    starts[idx] = t0
                    stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _bind(self, module, name, wrapper, original):
        self._undo.append((module, name, original))
        setattr(module, name, wrapper)

    def install(self):
        """Wrap every layer function where it is bound."""
        self._reset()
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "metriclie" or n.startswith("metriclie.")]
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in namespaces}
        hooks = {"cli.render": self._count_render,
                 "decompose.commutant": self._count_commutant}
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(mod[home], name)
                wrapper = self._wrap(original, layer, hooks.get(layer))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._bind(ns, attr, wrapper, original)
        search_hooks = {"minimal_polynomial": self._count_candidate,
                        "coprime_split": self._count_split}
        layer, home, names = SEARCH
        for name in names:
            inner = getattr(mod[home], name)
            self._bind(mod[home], name,
                       self._wrap(inner, layer, search_hooks.get(name)), inner)
        subspace = mod["linalg"].Subspace
        raw = vars(subspace)["from_vectors"]
        self._bind(subspace, "from_vectors",
                   classmethod(self._wrap(raw.__func__, SUBSPACE,
                                          self._subspaces.append)), raw)

    def uninstall(self):
        """Restore the original bindings and settle ``linalg.bits_max``."""
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)
        self.counters["linalg.bits_max"] = max(map(_bits, self._subspaces),
                                               default=0)
        self._subspaces.clear()

    # result hooks for the deterministic counters
    def _count_render(self, text):
        self.counters["cli.render.bytes"] += len(text.encode("utf-8"))

    def _count_commutant(self, mats):
        c = self.counters
        c["decompose.commutant.dim_max"] = max(c["decompose.commutant.dim_max"],
                                               len(mats))

    def _count_candidate(self, _):
        self.counters["decompose.search.candidates"] += 1

    def _count_split(self, parts):
        if len(parts) >= 2:
            self.counters["decompose.search.splits"] += 1

    def layer_totals(self):
        """{layer: (calls, self seconds)} over the recorded spans."""
        child = [0.0] * len(self.layer)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i, lid in enumerate(self.layer):
            calls[lid] += 1
            self_s[lid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.layers)}

    def dump(self, path):
        """Write the spans as JSON lines {name, start, end, parent}."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, lid in enumerate(self.layer):
                fh.write(json.dumps({"name": self.layers[lid],
                                     "start": self.start[i],
                                     "end": self.end[i],
                                     "parent": self.parent[i]}) + "\n")
