"""Span tracing of the library's layers from outside the library.

`Tracer.install` wraps the public functions and methods of the traced
modules (and the `exterior.Form` constructor; the per-coefficient
`ScalarRing` helpers are left alone), replacing each name where
callers look it up: on the defining module, on every traced module that
imported the same object by name, and on the class for methods.  Each call
records a span (name, parent, start, end, operation index, raised flag and
one integer value taken from its result).  Spans are kept in flat arrays
and reduced to per-round layer metrics with numpy after the run; nothing
under the library changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("exterior", "liealg", "_poly", "formfam", "symplin", "numfield",
           "cli")
CONSTRUCTORS = {"exterior": ("Form",)}
# ScalarRing methods run once per coefficient: wrapping them would triple
# the traced cost of Form construction and bury its self time in overhead
SKIP = {"exterior.ScalarRing"}

# span name -> value recorded from the call's result
VALUES = {
    "_poly.sturm_chain": len,
    "_poly.int_det": lambda det: int(det in (1, -1)),
    "symplin.simultaneous_reduce": lambda red: int(red.eps == 0.0),
}


def _wedge_name(args):
    ring = "exact" if args[0].ring.exact else "float"
    return f"exterior.Form.wedge.{ring}"


# span name -> function of the call's arguments giving a finer name
SPLITS = {"exterior.Form.wedge": _wedge_name}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, package="liouville_lab"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.raised = array("b")
        self.value = array("q")
        self.op_index = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ------------------------------------------------------------------

    def _id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name):
        value = VALUES.get(name)
        split = SPLITS.get(name)
        fixed_id = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(self._id(split(args)) if split else fixed_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_index)
            self.raised.append(0)
            self.value.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = clock()
                self.raised[idx] = 1
                stack.pop()
                raise
            self.end[idx] = clock()
            stack.pop()
            if value is not None:
                self.value[idx] = value(out)
            return out

        return traced

    # -- installation ---------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name) for every traced callable."""
        mods = {m: importlib.import_module(f"{self.package}.{m}")
                for m in MODULES}
        out = []
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    for other in mods.values():
                        if vars(other).get(attr) is obj:
                            out.append((other, attr, name))
                elif inspect.isclass(obj) and f"{short}.{attr}" not in SKIP:
                    ctors = CONSTRUCTORS.get(short, ())
                    for meth, raw in list(vars(obj).items()):
                        if meth == "__init__" and attr in ctors:
                            out.append((obj, meth, f"{short}.{attr}"))
                        elif not meth.startswith("_") and (
                                inspect.isfunction(raw) or isinstance(
                                    raw, (staticmethod, classmethod))):
                            out.append((obj, meth, f"{short}.{attr}.{meth}"))
        return out

    def install(self):
        wrapped = {}
        for owner, attr, name in self._targets():
            raw = vars(owner)[attr]
            if (id(raw), name) not in wrapped:
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                wrapped[(id(raw), name)] = new
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped[(id(raw), name)])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
            "value": np.frombuffer(self.value, dtype=np.int64),
        }

    def per_round(self, ops_per_round, first_op):
        """Per-round {span name: stats} from the recorded spans.

        A span's self time is its duration minus the durations of its direct
        children.  Spans are assigned to rounds by their operation index.
        Stats are calls, self_s, the summed result value, the number of
        calls that raised, and `under`, the calls per parent span name.
        """
        a = self.arrays()
        n = len(a["start"])
        if n == 0:
            return []
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        parent = np.where(has_parent, a["parent"], 0)
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        rnd = (a["op"] - first_op) // ops_per_round
        nrounds = int(rnd.max()) + 1
        names = len(self.names)
        key = rnd.astype(np.int64) * names + a["name_id"]

        def table(weights=None):
            return np.bincount(key, weights=weights, minlength=nrounds * names
                               ).reshape(nrounds, names)

        calls = table()
        self_s = table(own)
        values = table(a["value"].astype(np.float64))
        raised = table(a["raised"].astype(np.float64))
        parent_name = np.where(has_parent, a["name_id"][parent], names)
        under = np.bincount(key * (names + 1) + parent_name,
                            minlength=nrounds * names * (names + 1)
                            ).reshape(nrounds, names, names + 1)
        rounds = []
        for r in range(nrounds):
            stats = {}
            for i in np.nonzero(calls[r])[0]:
                stats[self.names[i]] = {
                    "calls": int(calls[r, i]),
                    "self_s": float(self_s[r, i]),
                    "value": int(values[r, i]),
                    "raised": int(raised[r, i]),
                    "under": {self.names[p]: int(under[r, i, p])
                              for p in np.nonzero(under[r, i, :names])[0]},
                }
            rounds.append(stats)
        return rounds

    def save(self, path, op_ids):
        np.savez(path, names=np.array(self.names), op_ids=np.array(op_ids),
                 **self.arrays())
