"""Monte Carlo estimates with Wilson score intervals, and run_trials, the
one trial runner of every statistic (trial t owns its own streams, so
outcomes do not depend on how the trials are split over processes)."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import DomainError

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval; well-behaved at 0/0% and 100%."""
    if trials < 1:
        raise DomainError("wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise DomainError("successes out of range")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    # the bounds are exactly 0 / 1 at the empirical extremes
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return lo, hi


def frequency(successes: int, trials: int) -> dict:
    """A success frequency with its Wilson 95% interval."""
    return {"frequency": successes / trials, "wilson95": list(wilson_interval(successes, trials))}


@dataclass(frozen=True)
class Estimate:
    """A Bernoulli-event estimate over independent trials."""

    successes: int
    trials: int

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise DomainError("successes must lie in [0, trials]")

    @property
    def point(self) -> float:
        return self.successes / self.trials

    @property
    def wilson95(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    def covers(self, theta: float) -> bool:
        lo, hi = self.wilson95
        return lo <= theta <= hi

    def to_dict(self) -> dict:
        lo, hi = self.wilson95
        return {
            "successes": self.successes,
            "trials": self.trials,
            "estimate": self.point,
            "wilson95": [lo, hi],
            "stream_ids": [0, self.trials - 1],
        }


def binomial_tail_geq(n: int, p: float, s: int) -> float:
    """P(Bin(n, p) >= s), exact; benchmark for small window events."""
    if s <= 0:
        return 1.0
    if s > n:
        return 0.0
    return sum(
        math.comb(n, k) * (p**k) * ((1 - p) ** (n - k)) for k in range(s, n + 1)
    )


def _threads() -> int:
    """Worker processes: WORDPERC_THREADS, clamped to [1, os.cpu_count()]."""
    try:
        want = int(os.environ.get("WORDPERC_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(want, os.cpu_count() or 1))


def trial_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    """[0, trials) as contiguous ranges, at most one per worker and at
    most one per trial (a single empty range when trials is 0)."""
    n = max(1, min(workers, trials))
    return [(trials * i // n, trials * (i + 1) // n) for i in range(n)]


def run_trials(fn, args: tuple, trials: int) -> list:
    """Per-trial outcomes of trials 0..trials-1, in trial order.

    fn(*args, t0, t1) must be a module-level function (so it pickles)
    returning the outcomes of trials t0..t1-1 as a list.  One range runs
    in this process; several run through one process pool.
    """
    ranges = trial_ranges(trials, _threads())
    if len(ranges) == 1:
        return fn(*args, 0, trials)
    # imported here: its multiprocessing import is paid by fanned runs only
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(ranges)) as ex:
        parts = ex.map(fn, *zip(*[(*args, t0, t1) for t0, t1 in ranges]))
        return [out for part in parts for out in part]
