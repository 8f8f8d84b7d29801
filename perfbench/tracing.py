"""Spans around the package's public entry points, recorded from outside.

Nothing in the package is edited: the wrappers replace module and class
attributes for the duration of a ``with`` block and restore them after.
Coarse calls (make_trace, opt_static, run_one, ...) each become one span
(name, start, end, parent). Calls made once per request or per refresh
(``step``, ``TopCTracker.bump`` and the ``RngStream`` draws) would need
millions of spans, so they are folded into one aggregate span per
(enclosing coarse span, call path) that carries a call count and the
summed duration. Spans stay in memory until the enclosing pass ends; pool
workers, forked from the traced process, append theirs to a spool file
after each ``run_one`` so the parent can merge them.

:class:`Probe` is the light version used with tracing off: it records only
when each ``run_one`` starts and ends, the host-speed reference read just
before it, and how far each worker's peak RSS rose past its RSS at fork.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# A forked child's peak RSS starts at its RSS at fork, which counts the pages
# it shares copy-on-write with the parent; only the rise past it is its own.
_rss_at_fork_kib = 0


def _note_fork() -> None:
    global _rss_at_fork_kib
    _rss_at_fork_kib = _peak_rss_kib()


os.register_at_fork(after_in_child=_note_fork)


def _append_lines(path: Path, lines: list[str]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("".join(lines))


class Probe:
    """Start and end of every ``run_one`` call, in this process or a worker.

    With a ``reference`` (a function returning seconds, see hostref.py) the
    probe runs it just before and just after each call and records when it
    started and ended and the mean of what it read, so the call's time can
    be scaled by the host's speed and the reference's own time cut out of
    the pass.
    """

    def __init__(self, spool: Path, reference=None):
        self.spool = spool
        self.reference = reference
        self.root_pid = os.getpid()
        self._local: list[tuple[int, ...]] = []

    def _reference_ns(self) -> int:
        return round(self.reference() * 1e9) if self.reference else 0

    def wrap(self, run_one):
        def probed(*args, **kwargs):
            ref_start = perf_counter_ns()
            before = self._reference_ns()
            enter = perf_counter_ns()
            try:
                return run_one(*args, **kwargs)
            finally:
                leave = perf_counter_ns()
                after = self._reference_ns()
                ref_end = perf_counter_ns()
                call = (ref_start, enter, leave, ref_end, (before + after) // 2)
                pid = os.getpid()
                if pid == self.root_pid:
                    self._local.append(call)
                else:
                    rss = _peak_rss_kib() - _rss_at_fork_kib
                    _append_lines(self.spool / f"probe-{pid}.txt",
                                  [" ".join(map(str, (*call, rss))) + "\n"])

        return probed

    def collect(self) -> tuple[list[tuple[int, ...]], dict[int, int]]:
        """Calls recorded since the last collect, and each worker's RSS growth in KiB.

        A call is ``(reference start, entry, exit, reference end, mean
        reference ns)``, times from ``perf_counter_ns``.
        """
        calls = self._local
        self._local = []
        worker_rss: dict[int, int] = {}
        for path in sorted(self.spool.glob("probe-*.txt")):
            pid = int(path.stem.split("-")[1])
            for line in path.read_text(encoding="utf-8").splitlines():
                *call, rss = (int(x) for x in line.split())
                calls.append(tuple(call))
                worker_rss[pid] = max(worker_rss.get(pid, 0), rss)
            path.unlink()
        return calls, worker_rss


class Tracer:
    """In-memory span recorder for one process tree (parent plus forked workers)."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.root_pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[tuple[str | None, tuple[str, ...]]] = [(None, ())]
        self._aggs: dict[str | None, dict[tuple[str, ...], list]] = {}
        self._serial = 0

    # -- recording -----------------------------------------------------
    def _new_id(self) -> str:
        self._serial += 1
        return f"{os.getpid()}.{self._serial}"

    def coarse(self, name: str, fn, attrs=None, on_result=None):
        """Wrap ``fn`` so each call is one span.

        ``attrs(args, kwargs)`` adds fields to the span; ``on_result``
        may replace the return value (used to wrap a new policy's step).
        """
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0]
            sid = self._new_id()
            stack.append((sid, ()))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._close(sid, parent, name, start, end,
                            attrs(args, kwargs) if attrs else None)
            return on_result(result, args, kwargs) if on_result else result

        return traced

    def _close(self, sid, parent, name, start, end, attrs) -> None:
        span = {"id": sid, "parent": parent, "name": name, "pid": os.getpid(),
                "start": start, "end": end}
        if attrs:
            span.update(attrs)
        self.spans.append(span)
        for path, acc in self._aggs.pop(sid, {}).items():
            self.spans.append(_agg_span(sid, path, acc))
        if span["pid"] != self.root_pid and name == "engine.run_one":
            self._flush_worker()

    def _flush_worker(self) -> None:
        # spans recorded before the fork belong to the parent, which keeps them
        pid = os.getpid()
        lines = [json.dumps(s) + "\n" for s in self.spans if s["pid"] == pid]
        self.spans = []
        _append_lines(self.spool / f"spans-{os.getpid()}.jsonl", lines)

    def _acc(self, owner, path) -> list:
        by_path = self._aggs.setdefault(owner, {})
        acc = by_path.get(path)
        if acc is None:
            # count, total_ns, first start, last end, extra counters...
            acc = by_path[path] = [0, 0, None, 0, 0, 0, 0, array("q")]
        return acc

    def leaf(self, name: str, fn, count_swaps: bool = False):
        """Wrap a high-frequency call; calls fold into an aggregate span."""
        stack = self._stack

        def traced(*args, **kwargs):
            owner, path = stack[-1]
            path = path + (name,)
            stack.append((owner, path))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                acc = self._acc(owner, path)
                acc[0] += 1
                acc[1] += end - start
                if acc[2] is None:
                    acc[2] = start
                acc[3] = end
            if count_swaps and result[0] is not None:
                acc[4] += 1
            return result

        return traced

    def wrap_step(self, policy) -> None:
        """Replace a policy instance's ``step`` with a traced one.

        Besides count and time it records misses, and the steps during
        which ``cache_refreshes`` grew (their count, total and durations).
        """
        stack = self._stack
        inner = policy.step
        name = "policies.step"

        def step(t, request, observed):
            owner, path = stack[-1]
            path = path + (name,)
            stack.append((owner, path))
            before = policy.cache_refreshes
            start = perf_counter_ns()
            try:
                result = inner(t, request, observed)
            finally:
                end = perf_counter_ns()
                stack.pop()
            acc = self._acc(owner, path)
            took = end - start
            acc[0] += 1
            acc[1] += took
            if acc[2] is None:
                acc[2] = start
            acc[3] = end
            if not result.hit:
                acc[4] += 1
            if policy.cache_refreshes != before:
                acc[5] += 1
                acc[6] += took
                acc[7].append(took)
            return result

        policy.step = step

    # -- collection ----------------------------------------------------
    def collect(self) -> list[dict]:
        """All spans since the last collect, workers' included."""
        spans = self.spans
        self.spans = []
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())
            path.unlink()
        return spans


def _agg_span(owner: str, path: tuple[str, ...], acc: list) -> dict:
    span = {
        "id": owner + "/" + "/".join(path),
        "parent": owner if len(path) == 1 else owner + "/" + "/".join(path[:-1]),
        "name": path[-1],
        "pid": os.getpid(),
        "start": acc[2],
        "end": acc[3],
        "count": acc[0],
        "total_ns": acc[1],
    }
    if path[-1] == "topk.bump":
        span["swaps"] = acc[4]
    elif path[-1] == "policies.step":
        span["misses"] = acc[4]
        span["refresh_steps"] = acc[5]
        span["refresh_ns"] = acc[6]
        span["refresh_median_ns"] = statistics.median(acc[7]) if acc[7] else None
    return span


def duration(span: dict) -> int:
    """Time inside a span: summed over calls for an aggregate span."""
    return span.get("total_ns", span["end"] - span["start"])


def self_times(spans: list[dict]) -> dict[str, int]:
    """Self time in ns per layer (the span name's prefix), summed over processes.

    A span's self time is its duration minus its children's durations in
    the same process. Worker spans run beside the parent's
    ``run_experiment`` span, so they are not subtracted from it: its self
    time is the parent's time spent starting and waiting on the pool.
    """
    child_ns: dict[str, int] = {}
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent.split(".")[0] == str(s["pid"]):
            child_ns[parent] = child_ns.get(parent, 0) + duration(s)
    layers: dict[str, int] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0) + duration(s) - child_ns.get(s["id"], 0)
    return layers
