"""In-memory span recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent, phase): `parent` is the index of
the enclosing span (-1 at top level) and `phase` tags the part of the run
it belongs to ("setup", a pass number, or "report"). Counters sit beside
the spans, keyed by (phase, name). Nothing is written until the run ends;
`write_chrome_trace` then emits Chrome trace-event JSON, which opens in
Perfetto (ui.perfetto.dev) or chrome://tracing.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.phase))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, phase = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, phase)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[(self.phase, name)] += amount

    def counter(self, name: str) -> float:
        return self.counters.get((self.phase, name), 0)


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (a single thread opens and closes
    them in stack order), so subtracting their durations is exact.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def phase_totals(rec: Recorder) -> dict:
    """Per phase: {"n:<span>", "incl:<span>", "self:<span>" (seconds),
    "ctr:<counter>"} sums, plus the list of durations per span name."""
    own = self_times(rec.spans)
    totals: dict = defaultdict(lambda: defaultdict(float))
    durations: dict = defaultdict(lambda: defaultdict(list))
    for (name, start, end, _, phase), s in zip(rec.spans, own):
        t = totals[phase]
        t["n:" + name] += 1
        t["incl:" + name] += (end - start) * 1e-9
        t["self:" + name] += s * 1e-9
        durations[phase][name].append((end - start) * 1e-9)
    for (phase, name), v in rec.counters.items():
        totals[phase]["ctr:" + name] += v
    return {"totals": totals, "durations": durations}


def one_invocation(totals: dict) -> dict:
    """Set-up plus the median pass plus the report phase, key by key.

    That is the work of one command-line call: build the context, run the
    workload once, and (where the workload has one) print the report.
    """
    passes = [t for p, t in totals.items() if isinstance(p, int)]
    keys = set().union(*totals.values()) if totals else set()
    out = {}
    for k in keys:
        v = totals.get("setup", {}).get(k, 0.0) + totals.get("report", {}).get(k, 0.0)
        if passes:
            v += statistics.median(t.get(k, 0.0) for t in passes)
        out[k] = v
    return out


def write_chrome_trace(rec: Recorder, path, metadata: dict) -> None:
    t0 = min((s[1] for s in rec.spans), default=0)
    events = []
    for i, (name, start, end, parent, phase) in enumerate(rec.spans):
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - t0) / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": 1,
            "tid": 1,
            "args": {"id": i, "parent": parent, "pass": phase},
        })
    doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))
