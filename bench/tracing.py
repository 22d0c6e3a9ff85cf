"""Span recorder that wraps ddquad's public functions from outside.

The traced run patches module attributes: a wrapper replaces a function
in every ``ddquad`` module that binds it (``cli`` imports its callees by
name, so ``cli.run_campaign`` and ``sampler.run_campaign`` are separate
bindings of one function), records a span per call, and is removed by
``restore``.  No source file is edited.  A target that no longer exists
is reported in ``missing`` instead of raising, so a refactor that
renames a function drops that layer's metric and nothing else.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """``module.attr`` (``attr`` may be ``Class.method``) traced as ``span``.

    ``hook(tracer, args, kwargs, result)`` runs after each call, outside
    the span's own timing, to update counters from the call's arguments
    or result.
    """
    module: str
    attr: str
    span: str
    hook: object = None


@dataclass
class SpanStats:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Summary:
    """Per-name span totals and counters of one traced stretch of work."""
    spans: dict = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def total(self, name: str) -> float:
        return self.stats(name).total

    def merged(self, other: "Summary") -> "Summary":
        out = Summary(counters=self.counters + other.counters)
        for src in (self, other):
            for name, s in src.spans.items():
                acc = out.spans.setdefault(name, SpanStats())
                acc.count += s.count
                acc.total += s.total
                acc.self_time += s.self_time
        return out

    def scaled(self, factor: float) -> "Summary":
        """Times multiplied by ``factor`` (a probe scale), counts kept."""
        return Summary(
            spans={n: SpanStats(s.count, s.total * factor, s.self_time * factor)
                   for n, s in self.spans.items()},
            counters=Counter(self.counters))


class Tracer:
    """Records spans ``[name, start, end, parent]`` while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []    # (owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def summary(self) -> Summary:
        """Count, total and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children, i.e. the part of its interval no named span covers.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Summary(counters=Counter(self.counters))
        for i, (name, start, end, _) in enumerate(self.spans):
            s = out.spans.setdefault(name, SpanStats())
            s.count += 1
            s.total += end - start
            s.self_time += (end - start) - child[i]
        return out

    def root_coverage(self) -> float:
        """Share of the first root span covered by its direct children."""
        roots = [i for i, s in enumerate(self.spans) if s[3] < 0]
        if not roots:
            raise RuntimeError("no root span recorded")
        root = roots[0]
        wall = self.spans[root][2] - self.spans[root][1]
        covered = sum(end - start for _, start, end, parent in self.spans
                      if parent == root)
        return covered / wall if wall > 0 else 0.0

    # -- installing wrappers -----------------------------------------------

    def _wrapper(self, fn, target: Target):
        name, hook = target.span, target.hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, targets):
        """Wrap every resolvable target; unresolvable ones go to ``missing``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                owner = module
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(target.span)
                continue
            wrapped = self._wrapper(original, target)
            if path:        # a method: patch the class that defines it
                self._patch(owner, leaf, wrapped)
                continue
            package = target.module.split(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != package:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def restore(self):
        """Put back every original binding, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
