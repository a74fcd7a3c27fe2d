"""Span tracing of heckefuse from outside the package.

``Tracer.install`` wraps the public functions of each layer module, the
constructors of ``Rep``, ``FinitePair``, ``DoubleCosetSystem`` and
``Cocycle``, and ``FinitePair.coset_orbits``.  Every ``heckefuse.*`` module
attribute bound to a wrapped function object is rebound, so calls made
through ``from .x import f`` inside the package are caught too.
``Perm.__init__`` and ``Perm.__mul__`` are only counted: a span per
permutation would cost more than the work it measures.  Perm arithmetic done
inside another layer's code is therefore charged to that layer's self time.

Spans are kept in flat arrays (name, start, end, parent, op) and reduced to
per-layer numbers by ``layer_report``; ``save`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("permcore", "cocycle", "projrep", "hecke", "exthecke",
          "elementary", "catalog", "checks")
CONSTRUCTORS = (("projrep", "Rep"), ("exthecke", "FinitePair"),
                ("permcore", "DoubleCosetSystem"), ("cocycle", "Cocycle"))
METHODS = (("exthecke", "FinitePair", "coset_orbits"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")     # 1 when no ancestor span has the same name
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.op_id = -1
        self.perm_new = 0
        self.perm_mul = 0
        self.reps_built = 0
        self.validate_macs = 0
        self.errors: Counter = Counter()     # (layer, exception type) -> count
        self.calls_seen = Counter()          # "decompose"/"fuse" -> calls
        self.repeats = Counter()             # "decompose"/"fuse" -> repeated keys
        self._seen: dict[str, set] = {"decompose": set(), "fuse": set()}
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ spans

    def name_id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
            self._depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def escaped(self, i: int, exc: BaseException) -> None:
        """Count an exception once per layer it leaves."""
        layer = self.layer_of[self.name[i]]
        p = self.parent[i]
        if p < 0 or self.layer_of[self.name[p]] != layer:
            self.errors[(layer, type(exc).__name__)] += 1

    def reset_seen(self) -> None:
        """Forget repeat keys; called whenever the package caches are cleared."""
        for seen in self._seen.values():
            seen.clear()

    def _note(self, kind: str, key) -> None:
        self.calls_seen[kind] += 1
        seen = self._seen[kind]
        if key in seen:
            self.repeats[kind] += 1
        else:
            seen.add(key)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, qualname: str, fn, after=None):
        nid = self.name_id(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.escaped(i, exc)
                raise
            finally:
                tracer.close(i)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_rep(self, args, _result) -> None:
        rep = args[0]
        self.reps_built += 1
        n = len(rep.group)
        self.validate_macs += n * n * rep.dim ** 3

    def _after_decompose(self, args, _result) -> None:
        rep = args[0]   # the character is cached on the Rep by now
        self._note("decompose",
                   (rep.group.key(), rep.cocycle.key(), rep.char_key()))

    def _after_fuse(self, args, _result) -> None:
        x, y = args[0], args[1]
        # a weak reference keeps finished pairs collectable and never
        # matches a later pair that reuses the address
        self._note("fuse", (weakref.ref(x.pair), x.key(), y.key()))

    def install(self) -> None:
        """Wrap the package; ``uninstall`` restores every binding."""
        import heckefuse  # noqa: F401 - loads every layer module
        mods = {layer: sys.modules[f"heckefuse.{layer}"] for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n == "heckefuse" or n.startswith("heckefuse.")]
        after = {"projrep.decompose": self._after_decompose,
                 "exthecke.fuse": self._after_fuse}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{attr}"
                replaced[id(obj)] = (obj, self._wrap(qual, obj, after.get(qual)))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(mods[layer], cls_name)
            hook = self._after_rep if cls_name == "Rep" else None
            self._patch(cls, "__init__",
                        self._wrap(f"{layer}.{cls_name}", cls.__init__, hook))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, meth,
                        self._wrap(f"{layer}.{meth}", getattr(cls, meth)))
        perm = mods["permcore"].Perm
        init, mul = perm.__init__, perm.__mul__
        tracer = self

        def counted_init(p, images):
            tracer.perm_new += 1
            init(p, images)

        def counted_mul(p, other):
            tracer.perm_mul += 1
            return mul(p, other)

        self._patch(perm, "__init__", counted_init)
        self._patch(perm, "__mul__", counted_mul)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "outer": np.frombuffer(self.outer, dtype=np.int8)}

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=len(dur))
        return dur - covered

    def layer_report(self) -> dict:
        """Totals over all spans: self time per layer, calls and inclusive
        (outermost-span) time per name, and the raw counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self.self_times()
        k = len(self.names)
        by_name_self = np.bincount(a["name"], weights=own, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        outer = a["outer"] == 1
        inclusive = np.bincount(a["name"][outer], weights=dur[outer], minlength=k)
        layer_self = Counter()
        for nid, name in enumerate(self.names):
            layer_self[self.layer_of[nid]] += float(by_name_self[nid])
        return {
            "layer_self_s": dict(layer_self),
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "inclusive_s": {n: float(inclusive[i]) for i, n in enumerate(self.names)},
            "min_self_s": float(own.min()) if len(own) else 0.0,
            "spans": len(dur),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
