"""Output checks, the clock and the summary statistics every workload shares."""

from __future__ import annotations

import math
import time

# Operations are timed in CPU seconds of this process.  Every timed
# operation runs on one thread and waits on nothing, so this is its wall
# time less the time the host took the CPU away (steal on a shared VM).
clock = time.process_time

# Failed checks are all counted; only this many are listed in the record.
LISTED_FAILURES = 50


class Checks:
    """Counts checks attempted and failed.  A failed check is recorded and
    the run goes on; nothing here raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, dict] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.tally(name, 1, 0 if ok else 1, detail)
        return ok

    def tally(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        """Record ``attempted`` checks of one kind, ``failed`` of them failing."""
        self.attempted += attempted
        if not failed:
            return
        self.failed += failed
        entry = self.failures.get(name)
        if entry is not None:
            entry["count"] += failed
        elif len(self.failures) < LISTED_FAILURES:
            self.failures[name] = {"check": name, "count": failed, "first": detail[:300]}

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted if self.attempted else 0.0,
            "failing_checks": list(self.failures.values()),
        }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]

