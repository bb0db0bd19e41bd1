"""Span recording from outside the program.

``Tracer.install`` wraps the public functions each semiralg module
exports and rebinds every name under which the program reaches them
(for example ``semiralg.cli.closure`` and ``semiralg.graphs.closure``),
so calls made inside the program are recorded too.  No file of the
program changes; ``uninstall`` puts the originals back.

A span is ``(name, start_ns, end_ns, parent, job)``.  Spans stay in
memory and are written out once, when the run ends.
"""

import importlib
import json
import time

import semiralg

# span name -> (defining module, attribute, modules that import it)
TRACED_FUNCTIONS = {
    "closure.block": ("semiralg.closure", "closure_block", ("semiralg",)),
    "closure.gauss_jordan": ("semiralg.closure", "closure_gauss_jordan", ("semiralg",)),
    "closure.iterative": ("semiralg.closure", "closure_iterative",
                          ("semiralg", "semiralg.cli")),
    "closure.solve_bellman": ("semiralg.closure", "solve_bellman",
                              ("semiralg", "semiralg.cli")),
    "closure.dispatch": ("semiralg.closure", "closure",
                         ("semiralg", "semiralg.graphs", "semiralg.cli")),
    "ldm.factorize": ("semiralg.ldm", "ldm_factorize", ("semiralg", "semiralg.cli")),
    "ldm.symmetric_factorize": ("semiralg.ldm", "symmetric_factorize", ("semiralg",)),
    "ldm.solve": ("semiralg.ldm", "solve_ldm", ("semiralg",)),
    "graphs.to_matrix": ("semiralg.graphs", "graph_to_matrix",
                         ("semiralg", "semiralg.cli")),
    "graphs.shortest_paths": ("semiralg.graphs", "shortest_paths",
                              ("semiralg", "semiralg.cli")),
    "graphs.widest_paths": ("semiralg.graphs", "widest_paths",
                            ("semiralg", "semiralg.cli")),
    "graphs.max_profit": ("semiralg.graphs", "max_profit", ("semiralg", "semiralg.cli")),
    "graphs.real_matrix_star": ("semiralg.graphs", "real_matrix_star",
                                ("semiralg", "semiralg.cli")),
    "serialize.loads": ("semiralg.serialize", "loads", ("semiralg", "semiralg.cli")),
    "serialize.matrix_from_json": ("semiralg.serialize", "matrix_from_json",
                                   ("semiralg", "semiralg.cli")),
    "serialize.graph_from_json": ("semiralg.serialize", "graph_from_json",
                                  ("semiralg", "semiralg.cli")),
    "serialize.dumps": ("semiralg.serialize", "dumps", ("semiralg", "semiralg.cli")),
    "serialize.matrix_to_json": ("semiralg.serialize", "matrix_to_json",
                                 ("semiralg", "semiralg.cli")),
    "serialize.triple_to_json": ("semiralg.serialize", "triple_to_json",
                                 ("semiralg", "semiralg.cli")),
    "cli.main": ("semiralg.cli", "main", ()),
    # the two CLI phases without a public function of their own
    "cli.read": ("semiralg.cli", "_read", ()),
    "cli.render": ("semiralg.cli", "_render_table", ()),
}

# methods patched on the class itself
TRACED_METHODS = {"matrices.mul": ("mul", "__matmul__")}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._saved = []
        self.missing = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
        return traced

    def _rebind(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        for name, (home, attr, importers) in TRACED_FUNCTIONS.items():
            module = importlib.import_module(home)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for mod_name in (home,) + importers:
                target = importlib.import_module(mod_name)
                if getattr(target, attr, None) is original:
                    self._rebind(target, attr, wrapper)
        for name, attrs in TRACED_METHODS.items():
            wrapper = self.wrap(name, semiralg.Matrix.mul)
            for attr in attrs:
                self._rebind(semiralg.Matrix, attr, wrapper)

    def uninstall(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover (children of one span may
    overlap when they ran on worker threads)."""
    children = {}
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)
    out = []
    for sid, (name, start, end, _parent, _job) in enumerate(spans):
        covered = 0
        reach = start
        for _, cs, ce, _, _ in sorted(children.get(sid, ()), key=lambda s: s[1]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def outermost(spans, names):
    """Indices of spans named in ``names`` with no such span above them."""
    out = []
    for sid, span in enumerate(spans):
        parent = span[3]
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if span[0] in names and parent is None:
            out.append(sid)
    return out
