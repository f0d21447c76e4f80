"""Observers the traced run attaches from outside the program.

Each probe wraps an object the program is handed (a model, a resampler, a
random stream) or hangs off a hook point the program exposes (the stage
pipeline's hook list), and accumulates wall time and call counts. Times are
self times with random-number generation taken out, the convention of the
program's own phase timer: every probe reads one shared RNG clock
(:class:`Clock`) before and after the call it wraps.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict

import numpy as np

from repro.engine.hooks import StageHook
from repro.kernels.registry import CostParams, default_registry
from repro.models.base import StateSpaceModel
from repro.prng.streams import FilterRNG
from repro.resampling.base import Resampler


class Clock:
    """Accumulated seconds and call counts per probe name.

    ``rand`` is a zero-argument callable returning the cumulative seconds
    spent drawing random numbers so far; wrapped calls subtract the draws
    made inside them.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rand = lambda: 0.0

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.seconds), dict(self.calls)

    def timed(self, name: str, fn, *args, **kwargs):
        r0 = self.rand()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        self.seconds[name] += elapsed - (self.rand() - r0)
        self.calls[name] += 1
        return out


class TimedModel(StateSpaceModel):
    """Delegates to a model, timing ``transition`` and ``log_likelihood``."""

    def __init__(self, inner, clock: Clock):
        self._inner = inner
        self._clock = clock
        self.state_dim = inner.state_dim
        self.measurement_dim = inner.measurement_dim
        self.control_dim = inner.control_dim
        self.supports_cohort_batch = inner.supports_cohort_batch

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def transition(self, states, control, k, rng):
        return self._clock.timed("models.transition", self._inner.transition,
                                 states, control, k, rng)

    def log_likelihood(self, states, measurement, k):
        return self._clock.timed("models.likelihood", self._inner.log_likelihood,
                                 states, measurement, k)

    def initial_particles(self, n, rng, dtype=np.float64):
        return self._inner.initial_particles(n, rng, dtype=dtype)

    def initial_state(self, rng):
        return self._inner.initial_state(rng)

    def observe(self, state, k, rng):
        return self._inner.observe(state, k, rng)


class TimedResampler(Resampler):
    """Delegates to a resampler, timing its batched call."""

    def __init__(self, inner: Resampler, clock: Clock):
        self._inner = inner
        self._clock = clock
        self.name = inner.name

    def resample(self, weights, n_out, rng):
        return self._inner.resample(weights, n_out, rng)

    def resample_batch(self, weights, n_out, rng):
        return self._clock.timed("resampling.resample", self._inner.resample_batch,
                                 weights, n_out, rng)


class TimedRNG(FilterRNG):
    """Delegates to a random stream, accumulating the time of every draw."""

    def __init__(self, inner: FilterRNG, clock: Clock):
        self._inner = inner
        self._clock = clock

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _draw(self, method, shape, dtype):
        t0 = time.perf_counter()
        out = getattr(self._inner, method)(shape, dtype=dtype)
        self._clock.seconds["prng.draw"] += time.perf_counter() - t0
        self._clock.calls["prng.draw"] += 1
        return out

    def uniform(self, shape, dtype=np.float64):
        return self._draw("uniform", shape, dtype)

    def normal(self, shape, dtype=np.float64):
        return self._draw("normal", shape, dtype)

    def spawn(self, stream):
        return TimedRNG(self._inner.spawn(stream), self._clock)


class StageTimes(StageHook):
    """Stage self time (RNG draws excluded), keyed ``engine.<stage>``."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self._t0 = 0.0
        self._r0 = 0.0

    def on_stage_start(self, name, state):
        self._r0 = self._clock.rand()
        self._t0 = time.perf_counter()

    def on_stage_end(self, name, state, elapsed):
        wall = time.perf_counter() - self._t0
        self._clock.seconds[f"engine.{name}"] += wall - (self._clock.rand() - self._r0)


# ---------------------------------------------------------------------------
# Process memory (read from /proc for this process and its live children)
# ---------------------------------------------------------------------------


def _children() -> list[int]:
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children() if p.pid]


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set (VmHWM) of this process, plus its live children."""
    pids = [os.getpid()] + (_children() if include_children else [])
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    if total_kb == 0:  # /proc unavailable: fall back to this process alone
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def minor_faults(include_children: bool = False) -> int:
    """Minor page faults so far of this process, plus its live children."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if include_children:
        for pid in _children():
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
                total += int(fields[7])  # field 10 of stat: minflt
            except (OSError, IndexError, ValueError):
                continue
    return total


# ---------------------------------------------------------------------------
# Computed per-round kernel cost from the registered cost signatures
# ---------------------------------------------------------------------------


def round_cost(m: int, n_filters: int, state_dim: int, dtype_bytes: int,
               t: int = 1, degree: int = 2) -> tuple[float, float]:
    """``(bytes, flops)`` of one ring round from the registered ``CostSig``s
    of the paper's six kernels (rand, sampling, sort, estimate, pairwise
    route, RWS resample), evaluated at this shape. Computed, not measured:
    it ignores cache misses and Python overhead."""
    reg = default_registry()
    base = CostParams(m=m, state_dim=state_dim, n_groups=n_filters,
                      dtype_bytes=dtype_bytes)
    shapes = {
        "rand": base,
        "sampling": base,
        "sort": base,
        "estimate": CostParams(m=m, state_dim=state_dim,
                               n_groups=max(n_filters // 256, 1), group_size=256,
                               n_filters=n_filters, dtype_bytes=dtype_bytes),
        "route_pairwise": CostParams(m=m, state_dim=state_dim, n_groups=n_filters,
                                     dtype_bytes=dtype_bytes,
                                     group_size=max(degree * t, 1),
                                     n_exchange=t, degree=degree),
        "rws": CostParams(m=m, state_dim=state_dim, n_groups=n_filters,
                          dtype_bytes=dtype_bytes, pool=m + degree * t,
                          n_exchange=t, degree=degree),
    }
    nbytes = flops = 0.0
    for name, params in shapes.items():
        wl = reg.workload(name, params)
        nbytes += wl.bytes_read + wl.bytes_written
        flops += wl.flops
    return nbytes, flops
