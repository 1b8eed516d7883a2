"""Outside-in tracer for the oqmarkov package.

The tracer wraps public functions and model methods of the package from the
benchmark's own code; no source file of the package changes. Every
module-level binding of a wrapped function is patched, so a module that
imported the name under its own reference (``criteria`` holds its own
``trace_norm``, ``compose``, ``dd_apply`` ...) calls the wrapper too.

Each call becomes a span (name, start, end, parent span, job id). Spans are
kept in memory and written out when the run ends. A span's self time is its
duration minus the durations of its direct children; the program runs in one
thread (every job passes ``--jobs 1``), so children never overlap and that
difference is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
import time

# Public functions wrapped per module. Span names are "<module>.<function>".
FUNCTIONS = {
    "core": ("trace_norm",),
    "superop": ("compose", "intermediate_map", "is_cptp", "me_integrate"),
    "models": ("make_model", "dd_apply"),
    "criteria": ("check_fa", "check_qrf", "check_gqrf", "check_composability",
                 "check_nib", "check_nqib", "check_divisibility",
                 "check_semigroup", "check_distinguishability", "check_fdd",
                 "tomograph", "generalized_map", "replacement_map",
                 "multitime_correlation", "regression_prediction",
                 "map_residual"),
    "unravel": ("mcwf_jump", "mcwf_diffusive", "ensemble_mean",
                "ensemble_to_rows", "static_unravel"),
    "classical": ("mcsm", "paths_to_rows"),
    "serialize": ("write_json", "write_csv"),
    "cli": ("cmd_hierarchy", "cmd_mcwf", "cmd_mcsm"),
}

# Model methods wrapped on every class of ``models`` that defines its own
# override; all overrides of one method share the span name "models.<method>".
METHODS = ("propagator", "apply_propagator", "env_frame")

PACKAGE = "oqmarkov"


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _fine_steps(grid, dt) -> int:
    """Integration steps between the first and last output time."""
    return int(round((float(grid[-1]) - float(grid[0])) / float(dt)))


def _rk4_steps(fn, args, kwargs) -> int:
    a = _bound_args(fn, args, kwargs)
    grid = [float(t) for t in a["t_grid"]]
    return sum(int(round((hi - lo) / a["step"])) for lo, hi in zip(grid, grid[1:]))


def _sample_steps(fn, args, kwargs) -> int:
    a = _bound_args(fn, args, kwargs)
    return int(a["M"]) * _fine_steps(a["grid"], a["dt"])


# Work counted from a call's arguments, before the call: name -> (counter, fn).
COUNTED_ARGS = {
    "superop.me_integrate": ("superop.me_integrate.rk4_steps", _rk4_steps),
    "unravel.mcwf_jump": ("unravel.traj_steps", _sample_steps),
    "unravel.mcwf_diffusive": ("unravel.traj_steps", _sample_steps),
    "classical.mcsm": ("classical.path_steps", _sample_steps),
}

def _nib_replacements(tracer, fn, args, kwargs, result) -> int:
    return 1 if tracer.within("criteria.check_nib") else 0


def _result_bytes(tracer, fn, args, kwargs, result) -> int:
    return getattr(result, "nbytes", 0)


def _file_bytes(tracer, fn, args, kwargs, result) -> int:
    return os.path.getsize(_bound_args(fn, args, kwargs)["path"])


# Work counted after the call: name -> (counter, fn).
COUNTED_AFTER = {
    "criteria.replacement_map": ("criteria.check_nib.replacement_maps", _nib_replacements),
    "models.env_frame": ("models.env_frame.bytes", _result_bytes),
    "serialize.write_json": ("serialize.write_json.bytes", _file_bytes),
    "serialize.write_csv": ("serialize.write_csv.bytes", _file_bytes),
}


class PassTotals:
    """Per-pass aggregates: calls, self time, inclusive time and counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Wraps the package's layers and records spans while installed."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, name, start, end, job)
        self.missing: list[str] = []       # targets absent from the package
        self.job = ""                      # job id stamped on new spans
        self._next_id = 0
        self._stack: list[list] = []       # [span id, name, start, child time]
        self._patches: list[tuple] = []    # (owner, attribute, original)
        self.totals = PassTotals()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every target; undo with ``uninstall``."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self.missing = []
        for short, names in FUNCTIONS.items():
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            for name in names:
                original = getattr(mod, name, None) if mod is not None else None
                if original is None:
                    self.missing.append(f"{short}.{name}")
                    continue
                wrapper = self._wrap(original, f"{short}.{name}")
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)
        models = sys.modules[f"{PACKAGE}.models"]
        for cls in [c for c in vars(models).values() if inspect.isclass(c)]:
            for meth in METHODS:
                original = cls.__dict__.get(meth)
                if inspect.isfunction(original):
                    self._patch(cls, meth, self._wrap(original, f"models.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording --------------------------------------------------------

    def new_pass(self) -> PassTotals:
        """Start fresh per-pass aggregates; return the finished ones."""
        done, self.totals = self.totals, PassTotals()
        return done

    def begin(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        """Close the innermost span; return its duration."""
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        t = self.totals
        t.calls[name] = t.calls.get(name, 0) + 1
        t.self_s[name] = t.self_s.get(name, 0.0) + duration - child
        t.incl_s[name] = t.incl_s.get(name, 0.0) + duration
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end,
                           self.job))
        return duration

    def within(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return any(f[1] == name for f in self._stack)

    def _wrap(self, fn, name: str):
        tracer = self
        before = COUNTED_ARGS.get(name)
        after = COUNTED_AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer.totals.count(before[0], before[1](fn, args, kwargs))
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None:
                tracer.totals.count(after[0], after[1](tracer, fn, args, kwargs, result))
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "name", "start", "end", "job"])
            out.writerows(self.spans)
