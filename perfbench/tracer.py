"""Outside-in span tracing of the library's layers.

The library carries no instrumentation of its own, so the tracer wraps
the public entry points of ``hilbert``, ``power``, ``series``, ``rings``
and ``gridops`` (plus ``gridops``' route helpers) from outside: every
module attribute or class attribute that holds one of the target
functions is replaced by a wrapper while the tracer is installed, and
restored afterwards.  A wrapper records one span per call, with its
name, start, end, the span that was open when it started (its parent)
and the solve it belongs to.  Spans live in compact arrays in memory
and are written out at the end.

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans of a solve, including the
harness' own root span, add up to the solve's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

ROOT = "bench.solve"
PACKAGE = "motivic_power"

# (module, attribute, span name): module-level functions
FUNCTION_TARGETS = [
    ("hilbert", "local_series", "hilbert.local_series"),
    ("hilbert", "global_series", "hilbert.global_series"),
    ("hilbert", "hodge_deligne_series", "hilbert.hodge_deligne_series"),
    ("hilbert", "euler_specialization", "hilbert.euler_specialization"),
    ("power", "pow_series", "power.pow_series"),
    ("power", "factor", "power.factor"),
    ("power", "assemble", "power.assemble"),
    ("power", "_factor_peeling", "power.fallback"),
    ("power", "_assemble_blocks", "power.fallback"),
    ("power", "_monomial_base_exact", "power.fallback"),
    ("gridops", "_conv_arrays", "gridops.int64_conv"),
    ("gridops", "_conv_limbs", "gridops.limb_conv"),
    ("gridops", "_abs_bound_max", "gridops.certify"),
    ("gridops", "slot_linear", "gridops.slot_linear"),
]

# (module, class, attribute, span name): methods
METHOD_TARGETS = [
    ("series", "Series", "__mul__", "series.mul"),
    ("series", "Series", "inverse", "series.inverse"),
    ("rings", "Polynomial", "__mul__", "rings.poly_mul"),
    ("gridops", "SlotAccumulator", "add_pair", "gridops.add_pair"),
    ("gridops", "Slot", "wrap", "gridops.wrap"),
    ("gridops", "Slot", "to_polynomial", "gridops.wrap"),
]


class Tracer:
    """Span recorder: installed() patches the library, summary() reads back."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.solve = array("q")
        self.nested = array("b")
        self.stack: List[int] = []
        self._depth: List[int] = []
        self.solve_id = -1
        self.counts: Counter = Counter()
        self._certified = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.solve.append(self.solve_id)
        depth = self._depth[nid]
        self.nested.append(1 if depth else 0)
        self._depth[nid] = depth + 1
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self._depth[self.name[idx]] -= 1

    # -- wrappers -------------------------------------------------------

    def _plain(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def _factor(self, name: str, fn, default_kernel):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(A, kernel=default_kernel):
            if A._factor_cache.get(kernel) is not None:
                tracer.counts["power.factor.cache_hits"] += 1
            idx = tracer.open(nid)
            try:
                return fn(A, kernel)
            finally:
                tracer.close(idx)
        return traced

    def _certify(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(a, b):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = tracer.open(nid)
            try:
                return fn(a, b)
            finally:
                tracer.close(idx)
                tracer._certified.add(parent)
        return traced

    def _int64_conv(self, name: str, fn):
        """The int64 route: _conv_arrays calls not made by the limb route.

        Calls from inside ``_conv_limbs`` are left untraced, so the limb
        route's whole cost is limb-convolution self time.  A call whose
        parent ran a float-bound certification is a certification hit.
        """
        nid = self.name_id(name)
        limb = self.name_id("gridops.limb_conv")
        tracer = self
        counts = self.counts
        count_nonzero = np.count_nonzero

        @functools.wraps(fn)
        def traced(a, b):
            stack = tracer.stack
            if stack and tracer.name[stack[-1]] == limb:
                return fn(a, b)
            if stack and stack[-1] in tracer._certified:
                tracer._certified.discard(stack[-1])
                counts["gridops.certify.hits"] += 1
            if a.ndim == 1:
                la, lb = a.shape[0], b.shape[0]
            else:
                stride = a.shape[1] + b.shape[1] - 1
                la = (a.shape[0] - 1) * stride + a.shape[1]
                lb = (b.shape[0] - 1) * stride + b.shape[1]
            counts["gridops.int64_conv.ops"] += la * lb
            counts["gridops.int64_conv.useful"] += \
                int(count_nonzero(a)) * int(count_nonzero(b))
            idx = tracer.open(nid)
            try:
                return fn(a, b)
            finally:
                tracer.close(idx)
        return traced

    # -- installation ---------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    @contextmanager
    def installed(self):
        """Patch every reference to the targets while the block runs."""
        modules = self._modules()
        lib = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        patches = []
        try:
            for modname, attr, span in FUNCTION_TARGETS:
                orig = getattr(lib[modname], attr)
                if span == "power.factor":
                    wrapped = self._factor(span, orig, lib["power"].MONOMIAL_KERNEL)
                elif span == "gridops.certify":
                    wrapped = self._certify(span, orig)
                elif span == "gridops.int64_conv":
                    wrapped = self._int64_conv(span, orig)
                else:
                    wrapped = self._plain(span, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            patches.append((m, key, orig))
                            setattr(m, key, wrapped)
            for modname, clsname, attr, span in METHOD_TARGETS:
                cls = getattr(lib[modname], clsname)
                orig = cls.__dict__[attr]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._plain(span, orig.__func__))
                else:
                    wrapped = self._plain(span, orig)
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        patches.append((cls, key, orig))
                        setattr(cls, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(patches):
                setattr(owner, key, orig)

    @contextmanager
    def solve_span(self, solve_id: int):
        """Root span of one solve; library spans nest under it."""
        self.solve_id = solve_id
        idx = self.open(self.name_id(ROOT))
        try:
            yield
        finally:
            self.close(idx)

    # -- read-back ------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int64).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
        }

    def summary(self, scale: Dict[int, float] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy (outermost spans) and self time.

        ``scale`` maps a solve id to a factor applied to the times of
        its spans (the runner's scaling to reference speed).
        """
        a = self.arrays()
        n = a["name"].shape[0]
        dur = a["end"] - a["start"]
        if scale:
            factor = np.array([scale.get(int(i), 1.0) for i in a["solve"]])
            dur = dur * factor
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[sel & (a["nested"] == 0)].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
