"""Outside-in layer tracing for the benchmark.

The program is not instrumented for wall time, so the benchmark wraps
the public entry point of each layer from here, records a span per call
(name, start, end, parent) and the *self* slices of every span (its
interval minus the intervals of the wrapped calls nested inside it),
and restores every wrapped attribute afterwards.

Attribution splits wall time, not thread time: each instant of a phase
window is shared equally between the threads that are inside a wrapped
call at that instant.  With one thread this is plain self time; in the
daemon, where two study threads run under one interpreter lock, it
keeps the ledger within the window, so that per-layer times plus
``unattributed`` always add up to the window's length.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layers in report order; a metric ``<layer>_s`` exists for each.
LAYERS = (
    "datasets.collect",
    "preprocess.construct",
    "tga.prepare",
    "tga.generate",
    "scanner.scan",
    "internet.topology",
    "dealias.offline",
    "dealias.online",
    "metrics.evaluate",
    "service.dispatch",
)


class Recorder:
    """Spans, self slices and timestamped counts, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent, layer, start, end, thread)
        self.slices: list[tuple] = []  # (layer, start, end, thread)
        self.counts: list[tuple] = []  # (time, name, value)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        now = self.clock()
        stack = self._stack()
        thread = threading.get_ident()
        parent = None
        if stack:
            top = stack[-1]
            self.slices.append((top[1], top[3], now, thread))
            parent = top[0]
        # [id, layer, start, resume, parent]
        frame = [next(self._ids), layer, now, now, parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        now = self.clock()
        stack = self._stack()
        stack.pop()
        thread = threading.get_ident()
        self.slices.append((frame[1], frame[3], now, thread))
        self.spans.append((frame[0], frame[4], frame[1], frame[2], now, thread))
        if stack:
            stack[-1][3] = now

    def count(self, name: str, value: float = 1) -> None:
        self.counts.append((self.clock(), name, value))

    def drain(self) -> dict:
        """Everything recorded so far, as plain lists; then start afresh."""
        data = {"spans": self.spans, "slices": self.slices, "counts": self.counts}
        self.spans, self.slices, self.counts = [], [], []
        return data

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.drain(), handle)


# -- what is wrapped ----------------------------------------------------------


def _observe_scan(recorder, call, scanner, *args, **kwargs):
    result = call(scanner, *args, **kwargs)
    recorder.count("scanner.probes", result.stats.probes_sent)
    recorder.count("scanner.hits", len(result.hits))
    return result


def _observe_propose(recorder, call, tga, *args, **kwargs):
    batch = call(tga, *args, **kwargs)
    recorder.count("tga.candidates", len(batch))
    return batch


def _observe_feedback(recorder, call, tga, results, *args, **kwargs):
    recorder.count("tga.fresh", len(results))
    return call(tga, results, *args, **kwargs)


def _observe_online(recorder, call, dealiaser, *args, **kwargs):
    before = dealiaser.verification_probes
    result = call(dealiaser, *args, **kwargs)
    recorder.count("dealias.alias_probes", dealiaser.verification_probes - before)
    return result


def _observe_model_cache(recorder, call, cache, *args, **kwargs):
    hits, misses = cache.stats.hits, cache.stats.misses
    result = call(cache, *args, **kwargs)
    recorder.count("tga.model_cache.hits", cache.stats.hits - hits)
    recorder.count("tga.model_cache.misses", cache.stats.misses - misses)
    return result


def targets() -> list[tuple]:
    """``(owner, attribute, layer, observe)`` for every wrapped entry point.

    ``owner`` is a class, or a function object whose every module-level
    binding inside the ``repro`` package is replaced (``from x import f``
    copies the binding, so patching the defining module alone would miss
    callers).  ``layer`` None records counts without a span.
    """
    from repro.dealias import OfflineDealiaser, OnlineDealiaser
    from repro.datasets.collection import collect_all
    from repro.internet.topology import LazyASRegistry, LazyTopology, derive_as
    from repro.metrics.core import evaluate_metrics, filter_mega_isp
    from repro.preprocess.pipeline import SeedPreprocessor
    from repro.scanner import Scanner
    from repro.service.handlers import Router
    from repro.tga.base import TargetGenerator
    from repro.tga.modelcache import ModelCache

    return [
        (collect_all, None, "datasets.collect", None),
        (SeedPreprocessor, "dealias", "preprocess.construct", None),
        (SeedPreprocessor, "scan_activity", "preprocess.construct", None),
        (SeedPreprocessor, "restrict_active", "preprocess.construct", None),
        (SeedPreprocessor, "restrict_port", "preprocess.construct", None),
        (TargetGenerator, "prepare", "tga.prepare", None),
        (TargetGenerator, "propose_batch", "tga.generate", _observe_propose),
        (TargetGenerator, "feedback", "tga.generate", _observe_feedback),
        (ModelCache, "get_or_build", None, _observe_model_cache),
        (Scanner, "scan", "scanner.scan", _observe_scan),
        (LazyASRegistry, "asn_of", "internet.topology", None),
        (LazyASRegistry, "ases_of", "internet.topology", None),
        (LazyTopology, "region_for_net64", "internet.topology", None),
        (derive_as, None, "internet.topology", None),
        (OfflineDealiaser, "partition", "dealias.offline", None),
        (OnlineDealiaser, "partition", "dealias.online", _observe_online),
        (evaluate_metrics, None, "metrics.evaluate", None),
        (filter_mega_isp, None, "metrics.evaluate", None),
        (Router, "dispatch", "service.dispatch", None),
    ]


def _make_wrapper(recorder: Recorder, fn, layer, observe):
    if layer is None:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            return observe(recorder, fn, *args, **kwargs)

        return counted

    enter, exit_ = recorder.enter, recorder.exit
    if observe is None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return traced

    @functools.wraps(fn)
    def traced_observed(*args, **kwargs):
        frame = enter(layer)
        try:
            return observe(recorder, fn, *args, **kwargs)
        finally:
            exit_(frame)

    return traced_observed


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


@contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the block; restore the originals after it."""
    undo: list[tuple] = []
    originals: dict[int, tuple] = {}  # id(wrapper) -> (wrapper, wrapped function)
    try:
        for owner, attribute, layer, observe in targets():
            if attribute is not None:
                original = owner.__dict__[attribute]
                setattr(owner, attribute, _make_wrapper(recorder, original, layer, observe))
                undo.append((owner, attribute, original))
                continue
            wrapper = _make_wrapper(recorder, owner, layer, observe)
            originals[id(wrapper)] = (wrapper, owner)
            for module in _repro_modules():
                for key, value in list(vars(module).items()):
                    if value is owner:
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
        # Modules first imported inside the block bound the wrappers too.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])


# -- attribution --------------------------------------------------------------


def attribute(slices, start: float, end: float) -> dict[str, float]:
    """Wall seconds of ``[start, end]`` per layer, shared between threads.

    Each slice is clipped to the window; every elementary interval is
    split equally between the slices active in it.  The result sums to
    the busy part of the window, never more than ``end - start``.
    """
    events = []
    for layer, lo, hi, _thread in slices:
        lo, hi = max(lo, start), min(hi, end)
        if hi > lo:
            events.append((lo, 1, layer))
            events.append((hi, -1, layer))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: dict[str, float] = defaultdict(float)
    active: dict[str, int] = defaultdict(int)
    depth = 0
    last = start
    for when, step, layer in events:
        if depth and when > last:
            share = (when - last) / depth
            for name, n in active.items():
                if n:
                    totals[name] += share * n
        last = when
        active[layer] += step
        depth += step
    return dict(totals)


def counts_in(counts, start: float, end: float) -> dict[str, float]:
    """Summed counts recorded inside ``[start, end]``."""
    totals: dict[str, float] = defaultdict(float)
    for when, name, value in counts:
        if start <= when <= end:
            totals[name] += value
    return dict(totals)


def ledger(data: dict, start: float, end: float) -> dict:
    """The layer ledger of one phase window.

    ``layers`` maps every layer to its attributed seconds;
    ``unattributed`` is the rest of the window, so the two add up to
    ``wall``.
    """
    layers = {layer: 0.0 for layer in LAYERS}
    layers.update(attribute(data["slices"], start, end))
    wall = end - start
    return {
        "wall": wall,
        "layers": layers,
        "unattributed": wall - sum(layers.values()),
        "counts": counts_in(data["counts"], start, end),
    }

