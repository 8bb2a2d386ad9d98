#!/usr/bin/env python3
"""Explain a trace: where each span's time went, and what each round did.

Usage:
  scripts/trace_report.py TRACE

TRACE is a trace export of any HierMinimax program (`--trace-out`): the
chrome format (the default) or JSONL (`--trace-format jsonl`), told
apart by content. Two tables go to stdout:

  * self time per span name: count, inclusive and self milliseconds in
    total and per round, where a span's self time is its duration minus
    the union of its direct children;
  * per round, one table per round span name (every name ending in
    `.round`, one per trainer): the round span's duration and its direct
    children (the phases, evaluation, the snapshot hand-off), summed by
    name, plus the time no child covered.

Spans nest only within one thread (`tid`): a span's parent is the
innermost span of the same thread that encloses it. A span that runs on
another thread while a round is open, such as the snapshot writer's
`snapshot.save`, is therefore never a child of the round; the report
lists such spans under "outside every round", by thread.

Stdlib only. Exit code 0 = report printed, 2 = unreadable or malformed
trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    tid: int
    start: float  # microseconds
    end: float


def load_spans(path: str) -> List[Span]:
    """Spans of a chrome or JSONL trace export."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    spans: List[Span] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None  # JSONL: one record per line
    if isinstance(doc, dict) and "traceEvents" in doc:
        for e in doc["traceEvents"]:
            if e.get("ph") != "X":
                continue
            start = float(e["ts"])
            spans.append(Span(e["name"], int(e["tid"]), start,
                              start + float(e["dur"])))
        return spans
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"line {lineno}: {err}") from None
        if rec.get("type") != "span":
            continue
        start = float(rec["ts_us"])
        spans.append(Span(rec["name"], int(rec["tid"]), start,
                          start + float(rec["dur_us"])))
    return spans


def union_length(intervals: List[tuple]) -> float:
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_start is not None and s <= cur_end:
            cur_end = max(cur_end, e)
            continue
        if cur_start is not None:
            total += cur_end - cur_start
        cur_start, cur_end = s, e
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def parents(spans: List[Span]) -> List[int]:
    """Index of each span's innermost enclosing span on its own thread,
    or -1."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i].tid, spans[i].start,
                                  -spans[i].end))
    parent = [-1] * len(spans)
    stack: List[int] = []
    prev_tid: Optional[int] = None
    for i in order:
        s = spans[i]
        if s.tid != prev_tid:
            stack.clear()
            prev_tid = s.tid
        while stack and spans[stack[-1]].end <= s.start:
            stack.pop()
        for j in reversed(stack):
            if spans[j].end >= s.end:
                parent[i] = j
                break
        stack.append(i)
    return parent


def report(spans: List[Span]) -> str:
    parent = parents(spans)
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    rounds = [i for i, s in enumerate(spans) if s.name.endswith(".round")]
    round_names = sorted({spans[r].name for r in rounds})
    per_round = max(1, len(rounds))

    # Self time per span name.
    count: Dict[str, int] = defaultdict(int)
    incl: Dict[str, float] = defaultdict(float)
    self_t: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        covered = union_length([(spans[c].start, spans[c].end)
                                for c in children[i]])
        count[s.name] += 1
        incl[s.name] += dur
        self_t[s.name] += max(0.0, dur - covered)
    out = [f"spans: {len(spans)}, rounds ({', '.join(round_names) or 'none'}"
           f"): {len(rounds)}", "",
           "self time per span name (ms; per round = total / rounds)",
           f"{'span':<28} {'count':>7} {'incl':>10} {'self':>10} "
           f"{'incl/rnd':>9} {'self/rnd':>9}"]
    for name in sorted(incl, key=lambda n: -self_t[n]):
        out.append(f"{name:<28} {count[name]:>7} {incl[name] / 1e3:>10.3f} "
                   f"{self_t[name] / 1e3:>10.3f} "
                   f"{incl[name] / 1e3 / per_round:>9.3f} "
                   f"{self_t[name] / 1e3 / per_round:>9.3f}")

    # Per-round phase breakdown: direct children of each round span, one
    # table per round span name.
    for round_name in round_names:
        named = [r for r in rounds if spans[r].name == round_name]
        kids = sorted({spans[c].name for r in named for c in children[r]})
        out += ["", f"per round (ms): {round_name} and its direct children",
                " ".join([f"{'round':>5}", f"{'total':>8}"] +
                         [f"{k:>{max(8, len(k))}}" for k in kids] +
                         [f"{'uncovered':>9}"])]
        for n, r in enumerate(sorted(named, key=lambda i: spans[i].start)):
            dur = spans[r].end - spans[r].start
            by: Dict[str, float] = defaultdict(float)
            for c in children[r]:
                by[spans[c].name] += spans[c].end - spans[c].start
            covered = union_length([(spans[c].start, spans[c].end)
                                    for c in children[r]])
            out.append(" ".join(
                [f"{n:>5}", f"{dur / 1e3:>8.3f}"] +
                [f"{by[k] / 1e3:>{max(8, len(k))}.3f}" for k in kids] +
                [f"{(dur - covered) / 1e3:>9.3f}"]))

    # Top-level spans that no round encloses, by thread: work a round did
    # not wait for (another thread's) or did outside its span.
    inside = set()
    for r in rounds:
        stack = [r]
        while stack:
            i = stack.pop()
            inside.add(i)
            stack.extend(children[i])
    outside: Dict[tuple, List[float]] = defaultdict(list)
    for i, s in enumerate(spans):
        if i in inside or parent[i] >= 0:
            continue
        outside[(s.name, s.tid)].append(s.end - s.start)
    if outside:
        out += ["", "outside every round (top-level spans, by thread)",
                f"{'span':<28} {'tid':>5} {'count':>7} {'total ms':>10}"]
        for (name, tid), durs in sorted(outside.items()):
            out.append(f"{name:<28} {tid:>5} {len(durs):>7} "
                       f"{sum(durs) / 1e3:>10.3f}")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trace")
    args = ap.parse_args(argv)
    try:
        spans = load_spans(args.trace)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"trace_report: cannot read {args.trace}: {err}",
              file=sys.stderr)
        return 2
    print(report(spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
