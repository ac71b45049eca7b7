"""Span recorder for the traced benchmark run.

The recorder wraps, from outside the package, every public function of
every ``smplab`` module in each namespace that binds it (``evaluate``,
``reduction``, ``valuation`` and ``cli`` import names directly, so wrapping
only the defining module would miss their calls). It also wraps the
class-level ``ValuationFunction.__call__`` and
``IndependenceOracle.is_independent``, through which every memo lookup
passes.

Span durations are per-thread CPU seconds (``time.thread_time``), so a
thread waiting for the interpreter lock in a two-worker Monte Carlo call
is not counted as busy. Self time is a span's duration minus the
durations of its direct child spans in the same thread. Spans are folded
into per-name aggregates as they close and kept in memory;
:meth:`Recorder.snapshot` writes them out once the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
import weakref

clock = time.thread_time


class Span:
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0  # yielded items, sampled rows or memo misses, by span kind

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class MemoGauge:
    """Live memo entries summed over the objects still alive, and its peak."""

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._sizes: dict[int, int] = {}
        self.total = 0
        self.peak = 0

    def update(self, obj, size: int) -> None:
        key = id(obj)
        with self._lock:
            old = self._sizes.get(key)
            if old is None:
                old = 0
                weakref.finalize(obj, self._drop, key)
            self._sizes[key] = size
            self.total += size - old
            if self.total > self.peak:
                self.peak = self.total

    def _drop(self, key: int) -> None:
        with self._lock:
            self.total -= self._sizes.pop(key, 0)


def _enum_label(item) -> str:
    # exact arithmetic yields int or Fraction probabilities, float mode floats
    return "core.enum.float" if isinstance(item[1], float) else "core.enum.fraction"


class Recorder:
    """Installs tracing wrappers into ``smplab`` and restores the originals."""

    def __init__(self):
        self._lock = threading.RLock()
        self._local = threading.local()
        self.spans: dict[str, Span] = {}
        self.valuation_memo = MemoGauge(self._lock)
        self.family_memo = MemoGauge(self._lock)
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        frame = [name, clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list, *, name: str | None = None, calls: int = 1,
             items: int = 0) -> None:
        stack = self._stack()
        stack.pop()
        dur = clock() - frame[1]
        if stack:
            stack[-1][2] += dur
        key = name or frame[0]
        with self._lock:
            span = self.spans.get(key)
            if span is None:
                span = self.spans[key] = Span()
            span.calls += calls
            span.total_s += dur
            span.self_s += dur - frame[2]
            span.items += items

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            label = _enum_label if name == "core.iter_type_profiles" else None
            return self._wrap_generator(fn, name, label)
        rows = name == "core.sample_type_profiles"
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = rec.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec.exit(frame, items=len(result) if rows and result else 0)

        return traced

    def _wrap_generator(self, fn, name: str, label):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span_name = name
            calls = 1
            while True:
                frame = rec.enter(span_name)
                try:
                    item = next(inner)
                except StopIteration:
                    rec.exit(frame, calls=calls)
                    return
                except BaseException:
                    rec.exit(frame, calls=calls)
                    raise
                if label is not None:
                    span_name = label(item)
                rec.exit(frame, name=span_name, calls=calls, items=1)
                calls = 0
                yield item

        return traced

    def _wrap_memo_method(self, orig, prefix: str, gauge: MemoGauge):
        rec = self

        @functools.wraps(orig)
        def traced(obj, *args, **kwargs):
            memo = getattr(obj, "_memo", None)
            before = len(memo) if memo is not None else 0
            frame = rec.enter(f"{prefix}.{obj.kind}")
            try:
                return orig(obj, *args, **kwargs)
            finally:
                size = len(memo) if memo is not None else 0
                rec.exit(frame, items=int(size > before))
                if size > before:
                    gauge.update(obj, size)

        return traced

    def _wrap_mc_collect(self, orig):
        # Monte Carlo blocks may run on pool threads, outside the caller's
        # span stack; each block gets a span under the caller's name so the
        # tree walk is attributed to ``adap_mc`` / ``alg_mc`` at any worker
        # count (calls=0 keeps the call count to the public calls).
        rec = self

        @functools.wraps(orig)
        def traced(trials, workers, fill_block, *args, **kwargs):
            owner = rec.current() or "evaluate.mc_block"

            def block(b, values):
                frame = rec.enter(owner)
                try:
                    return fill_block(b, values)
                finally:
                    rec.exit(frame, calls=0)

            return orig(trials, workers, block, *args, **kwargs)

        return traced

    # -- install / restore ------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import smplab
        from smplab import evaluate, families, valuation

        namespaces = [smplab] + [
            importlib.import_module(f"smplab.{m.name}")
            for m in pkgutil.iter_modules(smplab.__path__)
        ]
        wrapped: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                module = obj.__module__ or ""
                if not module.startswith("smplab."):
                    continue
                wrapper = wrapped.get(id(obj))
                if wrapper is None:
                    name = f"{module.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrapper = wrapped[id(obj)] = self._wrap_function(obj, name)
                self._set(ns, attr, wrapper)
        self._set(
            valuation.ValuationFunction, "__call__",
            self._wrap_memo_method(
                valuation.ValuationFunction.__call__, "valuation", self.valuation_memo
            ),
        )
        self._set(
            families.IndependenceOracle, "is_independent",
            self._wrap_memo_method(
                families.IndependenceOracle.is_independent, "families.oracle",
                self.family_memo,
            ),
        )
        if "_mc_collect" in vars(evaluate):
            self._set(evaluate, "_mc_collect", self._wrap_mc_collect(evaluate._mc_collect))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: v.as_dict() for k, v in sorted(self.spans.items())},
                "valuation_memo_peak": self.valuation_memo.peak,
                "family_memo_peak": self.family_memo.peak,
            }

