"""Arithmetic of the benchmark: latency percentiles, span self time, cache
miss ratio and the study-grid aggregate fingerprint.

Pure functions over plain values, so the tests can check them without
importing gridfdi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Percentiles the report may name, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples above the ``pct`` percentile of ``n`` distinct samples, with
    the interpolation of :func:`percentile`."""
    if n == 0:
        return 0
    return n - 1 - int(math.floor((n - 1) * pct / 100.0 + 1e-9))


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile: the first in ``PERCENTILES`` with at
    least ``MIN_BEYOND`` samples beyond it, or None for too few samples."""
    for pct in PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None      # index of the enclosing span, None at the root
    op: int | None          # operation id the span belongs to
    error: bool = False     # the call raised
    flag: bool | None = None


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its direct children cover.

    Grandchildren lie inside their parent, so they are already covered by the
    child that encloses them and are not subtracted twice.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def miss_ratio(spans: list[Span], lookup: str, build: str) -> float:
    """Share of ``lookup`` spans that had to ``build``: a lookup is a miss
    when one of its direct children is a ``build`` span.  0 without lookups."""
    lookups = [i for i, s in enumerate(spans) if s.name == lookup]
    if not lookups:
        return 0.0
    missed = {s.parent for s in spans if s.name == build and s.parent is not None}
    return sum(1 for i in lookups if i in missed) / len(lookups)


# --- study-grid aggregate -------------------------------------------------------

# Per group of the canonical 118-bus grid (study_118_suite, seed 2018):
# SMLDI max / min / median / mean / std in percent to one decimal, then the
# detected, identified, danger-marked and false-alarm counts.  The statistics,
# detected and identified counts are the README table; the danger-marked
# counts are not printed there and were taken from the same run.
STUDY118_AGGREGATE = {
    "N(0,0.03)": (21.3, 5.8, 11.5, 11.7, 3.3, 0, 0, 0, 0),
    "N(0,0.05)": (33.6, 16.2, 22.9, 23.2, 4.5, 0, 0, 0, 0),
    "N(-0.01,0.03)": (27.1, 8.7, 13.1, 14.1, 4.4, 0, 0, 0, 0),
    "N(0.01,0.03)": (21.7, 6.0, 13.3, 13.4, 3.9, 0, 0, 0, 0),
    "attack-118-constant": (93.5, 48.1, 79.8, 76.5, 12.8, 40, 40, 40, 0),
    "attack-118-N(0,0.03)": (87.3, 29.8, 71.4, 66.5, 14.5, 39, 39, 39, 0),
    "attack-111-constant": (97.3, 40.9, 71.6, 67.8, 19.2, 40, 38, 38, 0),
    "attack-111-N(0,0.03)": (90.8, 31.6, 51.9, 57.1, 15.7, 38, 35, 35, 0),
}


@dataclass(frozen=True)
class ScenarioRecord:
    """What the aggregate needs from one scenario outcome."""

    group: str
    attack: bool
    smldi: float            # fraction, as run_two_stage reports it
    detected: bool
    identified: bool
    danger: bool


def aggregate_fingerprint(records) -> dict[str, tuple]:
    """Group statistics in the form of ``STUDY118_AGGREGATE``.

    Statistics use the population standard deviation, as the harness does.
    """
    groups: dict[str, list[ScenarioRecord]] = {}
    for r in records:
        groups.setdefault(r.group, []).append(r)
    out = {}
    for name, members in groups.items():
        values = sorted(100.0 * r.smldi for r in members)
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        attacks = [r for r in members if r.attack]
        out[name] = (
            round(values[-1], 1),
            round(values[0], 1),
            round(percentile(values, 50.0), 1),
            round(mean, 1),
            round(std, 1),
            sum(r.detected for r in attacks),
            sum(r.identified for r in attacks),
            sum(r.danger for r in attacks),
            sum(r.detected for r in members if not r.attack),
        )
    return out


def fingerprint_mismatches(got: dict, expected: dict) -> list[str]:
    """Groups whose fingerprint differs: statistics by more than 0.1
    percentage point, counts by anything."""
    bad = []
    for name in sorted(set(got) | set(expected)):
        if name not in got or name not in expected:
            bad.append(name)
            continue
        g, e = got[name], expected[name]
        stats_ok = all(abs(a - b) <= 0.1 + 1e-9 for a, b in zip(g[:5], e[:5]))
        if not stats_ok or g[5:] != e[5:]:
            bad.append(name)
    return bad
