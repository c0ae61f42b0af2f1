"""Run-time span tracing of the library's modules, installed from outside.

``Tracer.install`` replaces every public function of each ``crosscap``
module, and every public method of each class defined there, with a wrapper
that records a span; ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited: references are swapped in the module and class
namespaces at run time, including the names one module imported from
another, so internal calls are traced too.

A span is (name, start, end, parent span, job id, size).  ``size`` is a
per-target measure of work, such as the number of points handed to an
evaluation or the bytes an exporter returned.  Spans live in flat arrays in
memory and are written out once, by ``save``, when the run ends.
"""

import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "wirtinger",
    "linespace",
    "sections",
    "cpoints",
    "blowup",
    "euclid",
    "ledger",
    "verify",
    "cli",
)

# Operator methods of the field classes that count as exact algebra.
ALGEBRA_DUNDERS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__"}
)


def _points(x):
    return int(np.size(x))


def _size_of(name):
    """How a span of this target measures its work, or None."""
    if name in ("MonomialField.eval", "RationalField.eval"):
        return lambda args, kwargs, result: _points(args[1])
    if name == "MonomialField.eval_pair":
        return lambda args, kwargs, result: max(_points(args[1]), _points(args[2]))
    if name == "Loop.samples":
        return lambda args, kwargs, result: _points(result)
    if name == "winding_number":
        return lambda args, kwargs, result: _points(args[0])
    if name in ("find_complex_points", "export_obj", "export_csv"):
        return lambda args, kwargs, result: len(result)
    if name == "principal_analysis":
        return lambda args, kwargs, result: len(result.umbilics)
    if name == "reconstruct_surface":
        return lambda args, kwargs, result: int(result.points.shape[0] * result.points.shape[1])
    if name == "run_verification":
        return lambda args, kwargs, result: len(result.checks)
    return None


class Tracer:
    """Records spans of traced calls; install around the jobs to trace."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.size = array("q")
        self.job_id = -1
        self._stack = [-1]
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, full_name, short_name, fn):
        nid = self._name_id(full_name)
        size_of = _size_of(short_name)
        start, end, parent, name, job, size = (
            self.start, self.end, self.parent, self.name, self.job, self.size
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            job.append(tracer.job_id)
            size.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size_of is not None:
                size[idx] = size_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(layer, owner, attribute, full name, short name, function) to wrap."""
        out = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    out.append((layer, mod, attr, f"{layer}.{attr}", attr, obj))
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        public = not meth.startswith("_") or meth in ALGEBRA_DUNDERS
                        if inspect.isfunction(fn) and public:
                            short = f"{obj.__name__}.{meth}"
                            out.append((layer, obj, meth, f"{layer}.{short}", short, fn))
        return out

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for _, owner, attr, full, short, fn in self._targets():
            wrapper = self._wrap(full, short, fn)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                wrapped[id(fn)] = (fn, wrapper)
        # Names one module imported from another still point at the original.
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    def arrays(self):
        """The recorded spans as numpy arrays."""
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Queries over recorded spans: self time, nesting and per-name totals."""

    def __init__(self, arrays, names):
        self.start = arrays["start"]
        self.end = arrays["end"]
        self.parent = arrays["parent"]
        self.name = arrays["name"]
        self.size = arrays["size"]
        self.job = arrays["job"]
        self.names = list(names)
        self.dur = self.end - self.start
        n = len(self.dur)
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        self.self_time = self.dur - covered[:n]
        self.layer = np.array([nm.split(".", 1)[0] for nm in self.names])[self.name] if n else np.array([], dtype=str)

    def is_name(self, *short_names):
        """Mask of spans whose name, less the layer prefix, is one of ``short_names``."""
        ids = [i for i, nm in enumerate(self.names) if nm.split(".", 1)[1] in short_names]
        return np.isin(self.name, ids)

    def is_layer(self, layer):
        return self.layer == layer

    def ancestor_in(self, mask):
        """Index of the nearest proper ancestor inside ``mask`` for each span, else -1."""
        out = np.full(len(self.dur), -1, dtype=np.int64)
        cur = self.parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return out
            hit = live & mask[np.clip(cur, 0, None)]
            out[hit] = cur[hit]
            cur = np.where(live & ~hit, self.parent[np.clip(cur, 0, None)], -1)

    def outermost(self, mask):
        """Spans in ``mask`` with no ancestor in ``mask``."""
        return mask & (self.ancestor_in(mask) < 0)

    def total(self, mask):
        return float(self.dur[self.outermost(mask)].sum())

    def top_level_time(self):
        """Time inside some span: the sum over spans without a parent."""
        return float(self.dur[self.parent < 0].sum())
