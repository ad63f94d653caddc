"""Layer timing from outside the program.

``Tracer.install`` wraps public functions of the gtforge modules, patching
each name where its caller looks it up (``gtforge.gtgen.relative_state``,
not ``gtforge.egokin.relative_state``), and ``uninstall`` puts the originals
back. Nothing under ``src/`` is modified.

Every probe keeps a call count and accumulated time rather than one span
per call, since many are called once per record or row. The tracer keeps a
stack of the probes that are running, so a probe's self time is its time
minus the time of the probes it called. Timed probes run only on the
thread that installed them: Monte Carlo workers pass through. ``count``
probes only bump a counter, so the hottest helper adds the least overhead.

A probe whose target no longer exists is skipped and reported in
``Tracer.missing``; the metrics built on it are dropped rather than failing.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable

# (probe name, module, attribute where the caller looks it up, kind, work)
# kind: "time" for counted and timed calls, "count" for counting only. work(bound arguments, result) -> items.
# A name with a {field} is completed from the call's arguments.
PROBES: list[tuple[str, str, str, str, Callable | None]] = [
    ("synth.run_scenario", "gtforge.synth", "run_scenario", "time", None),
    ("trajlog.write_trajectory_log", "gtforge.cli", "write_trajectory_log", "time",
     lambda a, r: len(a["traj"])),
    ("trajlog.parse_{frame}", "gtforge.cli", "parse_trajectory_log", "time",
     lambda a, r: len(r)),
    ("trajlog.apply_clock_model", "gtforge.cli", "apply_clock_model", "time", None),
    ("trajlog.apply_clock_model", "gtforge.gtgen", "apply_clock_model", "time", None),
    ("geodesy.wgs84_to_utm", "gtforge.trajlog", "wgs84_to_utm", "time", None),
    ("resample.build_interpolant", "gtforge.gtgen", "build_interpolant", "time", None),
    ("resample.states_at", "gtforge.resample", "TrajectoryInterpolant.states_at", "time",
     lambda a, r: len(r)),
    ("egokin.relative_state", "gtforge.gtgen", "relative_state", "time", None),
    ("gtgen.generate_records", "gtforge.gtgen", "generate_records", "time",
     lambda a, r: len(r)),
    ("gtgen.bbox_footprint", "gtforge.gtgen", "bbox_footprint", "time", None),
    ("gtgen.write_records_jsonl", "gtforge.gtgen", "write_records_jsonl", "time",
     lambda a, r: len(a["records"])),
    ("gtgen.record_to_json", "gtforge.gtgen", "record_to_json", "time", None),
    ("gtgen.read_records_jsonl", "gtforge.gtgen", "read_records_jsonl", "time",
     lambda a, r: len(r)),
    ("util.fmt_float", "gtforge.gtgen", "fmt_float", "count", None),
    ("util.fmt_float", "gtforge.cli", "fmt_float", "count", None),
    ("util.ordered_map", "gtforge.uncert", "ordered_map", "time",
     lambda a, r: len(a["items"])),
    ("uncert.trig_moments_mc", "gtforge.uncert", "trig_moments_mc", "time",
     lambda a, r: a["n"]),
    ("uncert.monte_carlo_covariance", "gtforge.uncert", "monte_carlo_covariance", "time",
     lambda a, r: a["n"]),
    ("uncert.mixed_trig_variance_mc", "gtforge.uncert", "mixed_trig_variance_mc", "time",
     lambda a, r: a["n"]),
    ("cli.run_validation", "gtforge.cli", "run_validation", "time", None),
    ("cli.export_plot", "gtforge.cli", "_cmd_export_plot", "time", None),
    ("calib.parse_pose_stream", "gtforge.cli", "parse_pose_stream", "time",
     lambda a, r: len(r)),
    ("calib.relative_motions", "gtforge.cli", "relative_motions", "time", None),
    ("calib.solve_hand_eye", "gtforge.cli", "solve_hand_eye", "time", None),
]


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.scoped: dict[tuple[str, str], Stat] = {}
        self.scope = ""
        self.counts: dict[str, list[int]] = {}
        self.missing: set[str] = set()
        self._stack: list[list] = []   # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def install(self) -> None:
        for name, module, attr, kind, work in PROBES:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self._probe(name, original, kind, work))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def _account(self, name: str, seconds: float, self_s: float, work: int) -> None:
        for stat in (self.stats.setdefault(name, Stat()),
                     self.scoped.setdefault((self.scope, name), Stat())):
            stat.calls += 1
            stat.total_s += seconds
            stat.self_s += self_s
            stat.work += work

    def _probe(self, name: str, fn: Callable, kind: str, work: Callable | None):
        keyed = "{" in name
        signature = inspect.signature(fn) if work is not None or keyed else None
        stack = self._stack
        clock = time.perf_counter

        if kind == "count":
            counter = self.counts.setdefault(name, [0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counter[0] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            # Recursive entry (a path argument re-entering with an open
            # stream) and worker threads are not measured again.
            if threading.get_ident() != self._thread or any(f[0] == name for f in stack):
                return fn(*args, **kwargs)
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            key = name.format_map(arguments) if keyed else name
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
            items = 0 if work is None else int(work(arguments, result))
            self._account(key, seconds, seconds - frame[1], items)
            return result

        return probe

    def get(self, name: str) -> Stat:
        if name in self.counts:
            return Stat(calls=self.counts[name][0])
        return self.stats.get(name, Stat())

    def self_seconds(self, scope: str) -> dict[str, float]:
        return {n: s.self_s for (sc, n), s in self.scoped.items() if sc == scope and s.total_s}


def call_count(profiler: cProfile.Profile) -> int:
    """Python and builtin calls the profiler saw.

    Summed per code object: pstats keys by (file, line, name), under which
    the generated __init__ of every dataclass collides.
    """
    return sum(entry.callcount for entry in profiler.getstats())


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_breakdown(stderr: str) -> tuple[float, float]:
    """(total, scipy) seconds from ``python -X importtime`` output: the sum of
    every module's self time, and of the self times of scipy's modules."""
    total = scipy = 0.0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        seconds = int(m.group(1)) * 1e-6
        total += seconds
        if m.group(4) == "scipy" or m.group(4).startswith("scipy."):
            scipy += seconds
    return total, scipy
