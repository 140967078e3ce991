"""Spans recorded from the benchmark's side of spetscat's public calls.

`Tracer.install` replaces each traced public function, in every loaded
spetscat module that binds it, by a wrapper that records a span; calls
between spetscat's own modules go through module globals, so nested
calls (trace_sum inside verify_main, generic_degree inside
all_char_data) get their own spans with the caller as parent.
`uninstall` puts the original functions back, so untraced phases run
the program unchanged.  Spans stay in memory until `write`.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter


def _catalan_name(args, kwargs) -> str:
    q = kwargs.get("q_deformed", args[2] if len(args) > 2 else False)
    return "catalan.catalan_q" if q else "catalan.catalan"


# (module, public function, span name or a function of the call's arguments)
TRACED = (
    ("groups", "invariants", "groups.invariants"),
    ("labels", "all_labels", "labels.all_labels"),
    ("symbols", "symbol_of", "symbols.symbol_of"),
    ("degrees", "fake_degree", "degrees.fake_degree"),
    ("degrees", "generic_degree", "degrees.generic_degree"),
    ("degrees", "schur_element", "degrees.schur_element"),
    ("degrees", "all_char_data", "degrees.all_char_data"),
    ("catalan", "catalan", _catalan_name),
    ("catalan", "closed_form_main", "catalan.closed_form_main"),
    ("catalan", "trace_sum", "catalan.trace_sum"),
    ("catalan", "verify_main", "catalan.verify_main"),
    ("catalan", "verify_vanishing", "catalan.verify_vanishing"),
    ("catalan", "verify_parking", "catalan.verify_parking"),
    ("fourier", "verify_transform_swap", "fourier.verify_transform_swap"),
)


def package_modules(package: str = "spetscat"):
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index, self.name)
        return False


class Tracer:
    """Spans as (name, start, end, parent index, run id), in memory."""

    def __init__(self):
        self.spans: list = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patched: list = []

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append((perf_counter(),))
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, self.spans[index][0], end, parent, self.run_id)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, fn, name):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_()
            try:
                return fn(*args, **kwargs)
            finally:
                close(index, name if isinstance(name, str) else name(args, kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "spetscat"):
        modules = package_modules(package)
        by_name = {mod.__name__: mod for mod in modules}
        for module, attr, name in TRACED:
            original = getattr(by_name[f"{package}.{module}"], attr)
            wrapper = self.wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "run_id"], "spans": self.spans},
                fh,
            )
