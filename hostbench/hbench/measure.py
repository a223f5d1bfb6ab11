"""Pure measurement helpers: CPU accounting, percentiles, paper error, spread.

Host cost is counted in CPU seconds, not wall seconds: on a shared VM the
wall time of one serial sweep moves by tens of percent from run to run
while its CPU time moves by a few percent (see ../README.md). Wall time is
used only for the latency a service client waits on.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from typing import Iterable, Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Paper headline numbers the simulated figures are compared against:
#: Fig. 10 geomean IPC gain of Salus over the baseline, and Fig. 11 Salus
#: security traffic as a percentage of the baseline's (100 - 52.03).
PAPER_FIG10_GAIN_PCT = 29.94
PAPER_FIG11_TRAFFIC_PCT = 47.97


# -- CPU and memory ----------------------------------------------------------
def _cpu_of(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, all threads) of a live process ``pid``.

    Read from ``/proc/<pid>/stat``, so it is quantized to clock ticks.
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        raw = fh.read()
    # The command name may contain spaces; the fields after it may not.
    fields = raw[raw.rindex(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM line for pid {pid}")


def tree_cpu_s(live_pids: Iterable[int] = ()) -> float:
    """CPU seconds of this process, its reaped children and ``live_pids``.

    A child that has been waited for is included through
    ``RUSAGE_CHILDREN``; a child still running must be named in
    ``live_pids``. Never name a reaped child there: it would count twice.
    """
    total = _cpu_of(resource.getrusage(resource.RUSAGE_SELF))
    total += _cpu_of(resource.getrusage(resource.RUSAGE_CHILDREN))
    return total + sum(proc_cpu_s(pid) for pid in live_pids)


def peak_rss_mb(live_pids: Iterable[int] = ()) -> float:
    """The larger peak RSS of this process, its reaped children and
    ``live_pids``, in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    ]
    peaks.extend(proc_peak_rss_mb(pid) for pid in live_pids)
    return max(peaks)


# -- percentiles -------------------------------------------------------------
def samples_needed(q: float) -> int:
    """Fewest samples for which percentile ``q`` has enough samples beyond."""
    n = 1
    while n - math.ceil(q * n / 100.0) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``samples``.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie beyond the returned rank, so a tail figure is never read off a
    handful of points.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q * n / 100.0)
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(0, n - rank)} beyond it; "
            f"need {MIN_TAIL_SAMPLES} (at least {samples_needed(q)} samples)"
        )
    return sorted(samples)[rank - 1]


# -- paper error -------------------------------------------------------------
def fig10_gain_err_pp(geomean_improvement: float) -> float:
    """Distance in percentage points between a Fig. 10 geomean improvement
    (a ratio, e.g. 1.39 for +39%) and the paper's +29.94%."""
    return abs((geomean_improvement - 1.0) * 100.0 - PAPER_FIG10_GAIN_PCT)


def fig11_traffic_err_pp(mean_normalized_traffic: float) -> float:
    """Distance in percentage points between Salus security traffic as a
    fraction of the baseline's and the paper's 47.97%."""
    return abs(mean_normalized_traffic * 100.0 - PAPER_FIG11_TRAFFIC_PCT)


# -- run-to-run spread -------------------------------------------------------
def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
