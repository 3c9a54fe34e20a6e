"""Outside-in span tracing of cachecast's public layer functions.

The package is not modified.  `Tracer.install` rebinds each listed public
function in every `cachecast.*` module namespace that holds it, so a name
imported with `from .channel import draw_channel_batch` is wrapped as well
as the module attribute.  Every wrapped call records one span
(name, start, end, parent) in memory; counts (calls, returned bytes,
channel realizations drawn, objective evaluations) are recorded at the same
boundary.  `uninstall` restores every binding it replaced.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

ROOT = "root"

# (module, attribute path, metric prefix)
TRACED = (
    ("cachecast.cli", "main", "cli.main"),
    ("cachecast.experiments", "run_fig1", "experiments.run_fig1"),
    ("cachecast.experiments", "run_fig2", "experiments.run_fig2"),
    ("cachecast.experiments", "run_fig3_4_5", "experiments.run_fig3_4_5"),
    ("cachecast.channel", "draw_channel_batch", "channel.draw_channel_batch"),
    ("cachecast.multicast", "avg_rate_parallel", "multicast.avg_rate_parallel"),
    ("cachecast.multiplex", "symmetric_rate_mc", "multiplex.symmetric_rate_mc"),
    ("cachecast.mixed", "optimal_split_numeric", "mixed.optimal_split_numeric"),
    ("cachecast.mathx", "maximize_1d", "mathx.maximize_1d"),
    ("cachecast.mathx", "reg_upper_gamma", "mathx.reg_upper_gamma"),
    ("cachecast.mathx", "lambert_w", "mathx.lambert_w"),
    ("cachecast.caching", "selection_rate_samples", "caching.selection_rate_samples"),
    ("cachecast.selection", "simulated_selection_rate", "selection.simulated_selection_rate"),
    ("cachecast.results", "RateEstimate.from_values", "results.RateEstimate.from_values"),
)

DRAW = "channel.draw_channel_batch"
MAXIMIZE = "mathx.maximize_1d"
# layers whose `draws` count is the channel realizations drawn beneath them
DRAW_CONSUMERS = ("multiplex.symmetric_rate_mc", "mixed.optimal_split_numeric")
# counts reported even when zero, beyond every layer's calls
COUNTED = {(DRAW, "draws"), (DRAW, "bytes"), (MAXIMIZE, "evals")} | {
    (name, "draws") for name in DRAW_CONSUMERS
}


def self_times(spans: list) -> dict:
    """Total self time per span name.

    `spans` holds [name, start, end, parent_index] records, parent_index -1
    for a root.  Child intervals are merged before subtraction, so
    overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


def _distinct_nbytes(result) -> int:
    arrays = result if isinstance(result, tuple) else (result,)
    seen = {}
    for arr in arrays:
        seen[id(arr)] = getattr(arr, "nbytes", 0)
    return sum(seen.values())


class Tracer:
    """In-memory span and count recorder; install() rebinds, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.absent: list = []
        self._stack: list = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def run_root(self, fn: Callable, *args, **kwargs):
        """Call fn inside the root span that the layer spans nest under."""
        span = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _ancestors(self) -> Iterable[str]:
        return (self.spans[i][0] for i in self._stack)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == MAXIMIZE:
                args, kwargs = self._count_evals(args, kwargs)
            self.counts[name + ".calls"] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == DRAW:
                self._count_draw(args, kwargs, result)
            return result

        return traced

    def _count_evals(self, args: tuple, kwargs: dict):
        def counted(f):
            @functools.wraps(f)
            def objective(x):
                self.counts[MAXIMIZE + ".evals"] += 1
                return f(x)

            return objective

        if args:
            return (counted(args[0]),) + tuple(args[1:]), kwargs
        return args, {**kwargs, "f": counted(kwargs["f"])}

    def _count_draw(self, args: tuple, kwargs: dict, result) -> None:
        n = int(args[2] if len(args) > 2 else kwargs["n"])
        self.counts[DRAW + ".bytes"] += _distinct_nbytes(result)
        self.counts[DRAW + ".draws"] += n
        for owner in set(self._ancestors()) & set(DRAW_CONSUMERS):
            self.counts[owner + ".draws"] += n

    # --- rebinding -------------------------------------------------------

    def install(self, traced: tuple = TRACED) -> None:
        """Rebind every listed function wherever a cachecast module holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "cachecast"]
        for module_name, path, name in traced:
            owner = sys.modules.get(module_name)
            head, _, attr = path.rpartition(".")
            if head:  # a classmethod on a class; rebinding the class covers every importer
                cls = getattr(owner, head, None)
                descriptor = vars(cls).get(attr) if cls is not None else None
                if not isinstance(descriptor, classmethod):
                    self.absent.append(name)
                    continue
                self._rebind(cls, attr, classmethod(self.wrap(name, descriptor.__func__)))
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, holder, key: str, value) -> None:
        self._restore.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []


def layer_metrics(tracer: Tracer, traced: tuple = TRACED) -> dict:
    """Per-layer numbers of the spans and counts recorded since the last reset.

    Keys are '<module>.<function>.<stat>'; self times are in seconds, and
    'root.self_s' plus every layer's self time sums to 'root.wall_s'.
    """
    selfs = self_times(tracer.spans)
    present = [name for _, _, name in traced if name not in tracer.absent]
    out = {}
    for name in present:
        out[name + ".calls"] = tracer.counts.get(name + ".calls", 0)
        out[name + ".self_s"] = selfs.get(name, 0.0)
    for name, stat in COUNTED:
        if name in present:
            out[f"{name}.{stat}"] = tracer.counts.get(f"{name}.{stat}", 0)
    roots = [s for s in tracer.spans if s[0] == ROOT]
    out["root.wall_s"] = sum(s[2] - s[1] for s in roots)
    out["root.self_s"] = selfs.get(ROOT, 0.0)
    return out
