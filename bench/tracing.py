"""Span tracing of tiersim's public functions, installed at run time from
outside the package and removed afterwards.

Every wrapped call is a span.  Spans are aggregated per name in memory
(calls, self seconds, and an optional count) rather than kept one by one,
because ``MemoryState.apply_access`` alone fires once per simulated access.
A span's self time is its duration minus the time covered by the spans it
called.  Importing this module does not import tiersim.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter


def _pages(args, result) -> int:
    return len(args[1])


def _length(args, result) -> int:
    return len(result)


# (tiersim module, attribute path, span name, count).  Each attribute is
# patched where its caller looks it up: engine calls migrator, metrics and
# workload functions through module attributes, and baselines imports
# plan_interval and detect_hot_pages by name, so those are patched in
# baselines.  Methods are patched on the class.
FUNCTIONS = (
    ("workload", "gen_gups", "workload.generate", None),
    ("workload", "gen_phase_change", "workload.generate", None),
    ("workload", "gen_seq_microbench", "workload.generate", None),
    ("workload", "HotOracle.from_trace", "workload.oracle", None),
    ("memmodel", "MemoryState.apply_access", "memmodel.apply_access", None),
    ("memmodel", "MemoryState.scan_pte", "memmodel.scan_pte", None),
    ("memmodel", "MemoryState.move_pages", "memmodel.move_pages", _pages),
    ("profiler", "Profiler.init_regions", "profiler.init_regions", None),
    ("profiler", "Profiler.adopt_new_pages", "profiler.adopt_new_pages", None),
    ("profiler", "Profiler.select_active", "profiler.select_active", None),
    ("profiler", "Profiler.profile_interval", "profiler.profile_interval", None),
    ("profiler", "Profiler.end_interval", "profiler.end_interval", None),
    ("baselines", "plan_interval", "policy.plan_interval", None),
    ("baselines", "detect_hot_pages", "metrics.detect_hot_pages", None),
    ("baselines", "replay_plain", "baselines.replay_plain", None),
    ("migrator", "project_write_times", "migrator.project_write_times", _length),
    ("migrator", "execute_plan", "migrator.execute_plan", None),
    ("metrics", "recall_precision", "metrics.recall_precision", None),
    # run_simulation's self time is the interval loop's own work.
    ("engine", "run_simulation", "engine.loop_self", None),
    ("engine", "write_run_outputs", "engine.write_run_outputs", None),
)

# The allocator closure group_first_touch returns; engine builds it through
# the baselines module attribute.
ALLOC_SPAN = "memmodel.alloc"

SYSTEM_CLASSES = ("FirstTouchSystem", "MtmSystem", "AutonumaSystem",
                  "ThermostatSystem", "DamonSystem")
SYSTEM_OPS = ("run_profiling", "plan", "detected_pages")


def span_names(systems) -> list[str]:
    """Every span a traced run can record, for the given system names."""
    names = [name for _, _, name, _ in FUNCTIONS] + [ALLOC_SPAN]
    names += [f"baselines.{s}.{op}" for s in systems for op in SYSTEM_OPS]
    return list(dict.fromkeys(names))


class Tracer:
    def __init__(self):
        self._stats: dict[str, list] = {}  # name -> [calls, self seconds, count]
        self._covered: list[float] = []  # per open span: child-span seconds

    def _stat(self, name: str) -> list:
        return self._stats.setdefault(name, [0, 0.0, 0])

    @property
    def calls(self) -> Counter:
        return Counter({name: s[0] for name, s in self._stats.items()})

    @property
    def self_s(self) -> dict[str, float]:
        return {name: s[1] for name, s in self._stats.items()}

    @property
    def counts(self) -> Counter:
        return Counter({name: s[2] for name, s in self._stats.items()})

    def wrap(self, fn, name, count=None):
        """Time ``fn`` as span ``name``: a string, or a function of the first
        argument for methods named by their instance.  ``count(args, result)``
        adds to the span's count."""
        covered = self._covered
        fixed = self._stat(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat = fixed or self._stat(name(args[0]))
            covered.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stat[0] += 1
                stat[1] += dur - covered.pop()
                if covered:
                    covered[-1] += dur
            if count is not None:
                stat[2] += count(args, result)
            return result

        return span


def _owner(module, path: str):
    owner = importlib.import_module(f"tiersim.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced entry point for the duration of the block."""
    saved = []

    def patch(owner, attr, make):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    try:
        for module, path, name, count in FUNCTIONS:
            owner, attr = _owner(module, path)
            patch(owner, attr, lambda fn, n=name, c=count: tracer.wrap(fn, n, c))

        def traced_factory(factory):
            return lambda *a, **kw: tracer.wrap(factory(*a, **kw), ALLOC_SPAN)

        baselines = importlib.import_module("tiersim.baselines")
        patch(baselines, "group_first_touch", traced_factory)
        for cls_name in SYSTEM_CLASSES:
            cls = getattr(baselines, cls_name)
            for op in SYSTEM_OPS:
                patch(cls, op, lambda fn, op=op: tracer.wrap(
                    fn, lambda system: f"baselines.{system.name}.{op}"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
