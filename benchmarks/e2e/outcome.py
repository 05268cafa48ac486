"""What one workload run hands back, and the statistics it is made of."""

from __future__ import annotations

from dataclasses import dataclass, field

from pinned import median, percentile

#: Timed repetitions per untraced run; every metric is their median.
REPS = 8


@dataclass
class Outcome:
    """Operations attempted / failed plus the measured metrics."""

    attempted: int = 0
    failed: int = 0
    #: Why operations failed, first few only (printed, never parsed).
    notes: list[str] = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    #: ``None`` marks a probe that could not run here (printed as n/a).
    per_layer: dict = field(default_factory=dict)
    #: CPU and wall seconds of the load generator while it drove load.
    generator_cpu: float = 0.0
    generator_wall: float = 0.0

    def fail(self, count: int, note: str) -> None:
        if count > 0:
            self.failed += count
            if len(self.notes) < 8:
                self.notes.append(f"{count} x {note}")


def latency_summary(seconds_per_rep: list[list[float]]) -> dict:
    """Median over repetitions of each repetition's p50 and p95, in ms."""
    reps = [rep for rep in seconds_per_rep if rep]
    return {
        "query_p50_ms": median([percentile(rep, 50) for rep in reps]) * 1e3,
        "query_p95_ms": median([percentile(rep, 95) for rep in reps]) * 1e3,
    }


def split_reps(completions, begin: float, length: float, reps: int = REPS):
    """Bucket completions by finish time into ``reps`` windows of
    ``length`` seconds from ``begin``; the rest (warm-up, drain tail) is
    left out of every window."""
    windows = [[] for _ in range(reps)]
    for item in completions:
        slot = int((item.done - begin) // length) if item.done >= begin else -1
        if 0 <= slot < reps:
            windows[slot].append(item)
    return windows
