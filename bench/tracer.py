"""Spans and counters taken from outside the program.

While installed, every public function of the six traced modules is
replaced, at each module binding that holds it (``separates`` lives in
``dualgraph`` and is also bound in ``lattice`` and ``valuation``), by a
wrapper that records a span: name, start, end, parent span and op id.
Methods are left alone, so the hot accessors ``BracketTable.get`` and
``DualGraph.index`` cost nothing extra.  Self time is a span's duration minus
the time its child spans cover; calls are counted exactly.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

MODULES = ("dualgraph", "lattice", "bricks", "treemetric", "valuation", "cli")


def _traced_name(obj) -> str | None:
    home = getattr(obj, "__module__", None) or ""
    pkg, _, mod = home.partition(".")
    if pkg != "arborcheck" or mod not in MODULES:
        return None
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return None
    name = getattr(obj, "__name__", "")
    return None if name.startswith("_") else f"{mod}.{name}"


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("arborcheck")
        self.modules = [importlib.import_module(f"arborcheck.{m}") for m in MODULES]
        self.brackets = importlib.import_module("arborcheck.lattice").brackets
        self.saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, child seconds]
        self.next_span = 0
        self.op_id = ""
        self.keep_spans = True
        self.in_val_bracket = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Start a fresh pass: clear the records, then wrap every binding."""
        self.reset()
        wrappers: dict[int, object] = {}
        for mod in [self.package] + self.modules:
            for attr, obj in list(vars(mod).items()):
                name = None if attr.startswith("_") else _traced_name(obj)
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self.saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self.saved):
            setattr(mod, attr, obj)
        self.saved.clear()

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter
        pre = {
            "lattice.brackets": self._misses,
            "treemetric.four_point_check": self._count_quadruples,
            "dualgraph.blowup": self._count_descent_blowup,
        }.get(name)
        post = self._record_inversion if name == "lattice.brackets" else None
        is_val_bracket = name == "valuation.val_bracket"
        tracer = self

        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1][0] if stack else -1
            tracer.next_span += 1
            frame = [tracer.next_span, 0.0]
            stack.append(frame)
            tracer.in_val_bracket += is_val_bracket
            try:
                token = pre(args) if pre else None
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer.in_val_bracket -= is_val_bracket
                    entry = tracer.stats[name]
                    entry[0] += 1
                    entry[1] += end - start - frame[1]
                    if tracer.keep_spans:
                        tracer.spans.append((frame[0], parent, tracer.op_id, name, start, end))
                if post:
                    post(token, result)
                return result
            finally:
                # The whole wrapper, hooks included, is child time of the
                # parent span, so hook cost shows only in trace.overhead_frac.
                if stack:
                    stack[-1][1] += clock() - entered

        traced.__wrapped__ = fn
        return traced

    def _misses(self, args) -> int:
        return self.brackets.cache_info().misses

    def _record_inversion(self, misses_before: int, table) -> None:
        """On a cache miss, record the matrix size and the largest entry bit length."""
        if self.brackets.cache_info().misses == misses_before:
            return
        entries = table.entries
        bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                   for row in entries for x in row)
        self.counts["lattice.matrix_n_max"] = max(self.counts["lattice.matrix_n_max"], len(entries))
        self.counts["lattice.entry_bits_max"] = max(self.counts["lattice.entry_bits_max"], bits)

    def _count_quadruples(self, args) -> None:
        self.counts["treemetric.quadruples"] += math.comb(len(args[0].labels), 4)

    def _count_descent_blowup(self, args) -> None:
        if self.in_val_bracket:
            self.counts["valuation.blowups_in_val_bracket"] += 1

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for span_id, parent, op, name, start, end in sorted(self.spans):
                fh.write(f"{span_id},{parent},{op},{name},{start:.9f},{end:.9f}\n")
