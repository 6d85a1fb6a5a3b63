"""Span tracing of ffhyper's layers, installed from outside the program.

``Tracer.installed()`` replaces each traced public function with a
wrapper in every ``ffhyper`` module that holds a reference to it
(``identities`` and ``cli`` import several names directly, so patching
only the home module would miss their calls) and patches ``SumTables``
and ``Character`` methods on the class.  Each call records a span --
name, start, end, parent span and thread -- in per-thread arrays that
stay in memory until ``write`` saves them.

Counts that are not call counts are derived from call arguments:
table misses are keys not seen before on that ``SumTables`` object,
kernel element counts are computed from ``q``, and reconstruction
margins repeat ``reconstruct``'s own arithmetic on its arguments.
"""

from __future__ import annotations

import sys
import threading
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np


class _ThreadSpans:
    """Spans of one thread; only that thread appends.

    Besides the spans it keeps the thread's innermost-span timeline as
    segments: each enter or exit closes the segment of the span that was
    innermost until then.  A span's self time is the sum of its segments.
    """

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.seg_span = array("i")
        self.seg_start = array("d")
        self.seg_end = array("d")
        self.stack: list[int] = []
        self.last = 0.0

    def _segment(self, idx: int, a: float, b: float) -> None:
        self.seg_span.append(idx)
        self.seg_start.append(a)
        self.seg_end.append(b)

    def enter(self, nid: int) -> int:
        now = perf_counter()
        stack = self.stack
        if stack:
            self._segment(stack[-1], self.last, now)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(now)
        self.end.append(now)
        stack.append(idx)
        self.last = now
        return idx

    def exit(self, idx: int) -> None:
        now = perf_counter()
        self._segment(idx, self.last, now)
        self.end[idx] = now
        self.stack.pop()
        self.last = now


class Tracer:
    """Records spans and argument-derived counts for the layers named in LAYERS."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
            return spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def wrap(self, fn, name: str, hook=None, name_of=None):
        """``fn`` inside a span; ``hook(result, *args, **kwargs)`` runs inside it."""
        fixed = self.name_id(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            idx = spans.enter(self.name_id(name_of(*args, **kwargs)) if name_of else fixed)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if hook is not None:
                    hook(result, *args, **kwargs)
                spans.exit(idx)

        return traced

    def miss(self, layer: str, tables, key, elems: int = 0) -> None:
        """Count ``key`` as a miss of ``layer`` if ``tables`` has not seen it."""
        with self._lock:
            seen = self._seen.setdefault(tables, {}).setdefault(layer, set())
            if key in seen:
                return
            seen.add(key)
            self.counts[layer + ".misses"] += 1
            self.counts[layer + ".elems"] += elems

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_everywhere(self, fn, name: str, **kw) -> None:
        """Replace ``fn`` in every ffhyper module namespace that binds it."""
        traced = self.wrap(fn, name, **kw)
        for modname, mod in list(sys.modules.items()):
            if modname != "ffhyper" and not modname.startswith("ffhyper."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, traced)

    @contextmanager
    def installed(self):
        """Trace the ffhyper layers for the duration of the block."""
        try:
            for spec in LAYERS:
                spec(self)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- results --------------------------------------------------------------

    def _cat(self, key: str, dtype, span_index: bool = False) -> np.ndarray:
        """``key`` over all threads; with ``span_index``, thread-local span
        indices become indices into the concatenated spans."""
        parts, base = [], 0
        for t in self._threads:
            part = np.frombuffer(getattr(t, key), dtype=dtype)
            if span_index:
                part = np.where(part >= 0, part.astype(np.int64) + base, -1)
            parts.append(part)
            base += len(t.name)
        return np.concatenate(parts) if parts else np.zeros(0, np.int64 if span_index else dtype)

    def span_counts(self) -> dict[str, int]:
        counts = np.bincount(self._cat("name", np.int32), minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def _segment_shares(self) -> tuple[np.ndarray, np.ndarray]:
        """The span of every segment, and the wall time the segment is worth.

        Where several threads are inside spans at once, each instant is
        split equally among them, so the segments of all threads add up to
        at most the wall time of the traced run.
        """
        cat = self._cat
        top = cat("parent", np.int32) == -1
        t = np.concatenate([cat("start", np.float64)[top], cat("end", np.float64)[top]])
        step = np.concatenate([np.ones(top.sum()), -np.ones(top.sum())])
        order = np.argsort(t, kind="stable")
        t, busy = t[order], np.cumsum(step[order])
        share = np.diff(t) / np.maximum(busy[:-1], 1.0) * (busy[:-1] > 0)
        wall = np.concatenate([[0.0], np.cumsum(share)])
        a, b = cat("seg_start", np.float64), cat("seg_end", np.float64)
        seconds = np.interp(b, t, wall) - np.interp(a, t, wall) if len(t) else np.zeros(0)
        return cat("seg_span", np.int32, span_index=True), seconds

    def _by_name(self, spans: np.ndarray, seconds: np.ndarray) -> dict[str, float]:
        names = self._cat("name", np.int32)[spans]
        totals = np.bincount(names, weights=seconds, minlength=len(self.names))
        return {n: float(s) for n, s in zip(self.names, totals)}

    def self_times(self) -> dict[str, float]:
        """Self time per span name: span time minus the time of child spans,
        in shares of wall time (see ``_segment_shares``).  With one thread
        this is the plain self time."""
        return self._by_name(*self._segment_shares())

    def root_times(self) -> dict[str, float]:
        """Time per name of top-level spans, children included, in shares of wall time."""
        parent = self._cat("parent", np.int32, span_index=True)
        root = np.arange(len(parent))
        while len(root) and (parent[root] >= 0).any():
            root = np.where(parent[root] >= 0, parent[root], root)
        spans, seconds = self._segment_shares()
        return self._by_name(root[spans], seconds)

    def thread_count(self) -> int:
        """Threads that recorded spans, over the whole traced run."""
        return sum(1 for t in self._threads if len(t.name))

    def write(self, path, meta: dict) -> None:
        """Save every span as arrays (name index, start, end, parent, thread)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=self._cat("name", np.int32),
            start=self._cat("start", np.float64),
            end=self._cat("end", np.float64),
            parent=self._cat("parent", np.int32, span_index=True),
            thread=np.repeat(np.arange(len(self._threads)), [len(t.name) for t in self._threads]),
            meta=np.array(repr(meta)),
        )


# -- the traced layers ----------------------------------------------------------


def _field(tr: Tracer) -> None:
    from ffhyper import field

    tr._wrap_everywhere(field.make_field, "field.make_field")


def _characters(tr: Tracer) -> None:
    from ffhyper.characters import Character

    tr._patch(Character, "__call__", tr.wrap(Character.__call__, "characters.call"))


def _charsums(tr: Tracer) -> None:
    from ffhyper.charsums import SumTables

    def gauss_hook(result, tables):
        tr.miss("charsums.gauss_vector", tables, None)

    def jacobi_hook(result, tables, a, b):
        q = tables.field.q
        tr.miss("charsums.jacobi_index", tables, (a % (q - 1), b % (q - 1)), elems=q - 2)

    def line_hook(result, tables, diff):
        tr.miss("charsums.binomial_line", tables, diff % (tables.field.q - 1))

    fget = SumTables.__dict__["gauss_vector"].fget
    tr._patch(SumTables, "gauss_vector", property(tr.wrap(fget, "charsums.gauss_vector", gauss_hook)))
    for method, hook in (("jacobi_index", jacobi_hook), ("binomial_index", None), ("binomial_line", line_hook)):
        tr._patch(SumTables, method, tr.wrap(getattr(SumTables, method), f"charsums.{method}", hook))


def _hypergeo(tr: Tracer) -> None:
    from ffhyper import hypergeo

    def appell_hook(result, a, b, c, cp, x, y, tables):
        q = tables.field.q
        if x % q and y % q:
            tr.add("hypergeo.appell_f4.elems", (q - 1) ** 2)

    def reconstruct_hook(result, v, npow, q):
        scaled = complex(v) * q**npow
        margin = max(abs(scaled.imag), abs(scaled.real - round(scaled.real)))
        tr.maximum("hypergeo.reconstruct.max_margin", margin)

    tr._wrap_everywhere(hypergeo.hyper_char, "hypergeo.hyper_char")
    tr._wrap_everywhere(hypergeo.hyper_all_x, "hypergeo.hyper_all_x")
    tr._wrap_everywhere(hypergeo.appell_f4, "hypergeo.appell_f4", hook=appell_hook)
    tr._wrap_everywhere(hypergeo.hyper_exact_phi, "hypergeo.hyper_exact_phi")
    tr._wrap_everywhere(hypergeo.reconstruct, "hypergeo.reconstruct", hook=reconstruct_hook)


def _curves(tr: Tracer) -> None:
    from ffhyper import curves

    for fn in ("legendre_trace_table", "clausen_trace_table", "legendre_trace", "clausen_trace"):
        tr._wrap_everywhere(getattr(curves, fn), f"curves.{fn}")


def _identities(tr: Tracer) -> None:
    from ffhyper import identities

    def statement(label, *args, **kwargs):
        return f"identities.{label}"

    def checks_hook(result, label, *args, **kwargs):
        if result is not None:
            tr.add(f"identities.{label}.checks", len(result))

    tr._wrap_everywhere(
        identities.run_statement, "identities.run_statement", hook=checks_hook, name_of=statement
    )
    tr._wrap_everywhere(identities.estimate_sweep, "identities.estimate_sweep")


def _cli(tr: Tracer) -> None:
    from ffhyper import cli

    tr._wrap_everywhere(cli.render_reports, "cli.render")
    tr._wrap_everywhere(cli.render_sweep_rows, "cli.render")
    tr._wrap_everywhere(cli.cmd_eval, "cli.eval")


LAYERS = (_field, _characters, _charsums, _hypergeo, _curves, _identities, _cli)
