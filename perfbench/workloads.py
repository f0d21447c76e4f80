"""The three closed-loop workloads.

Each workload function builds its system ``reps`` times (the last build is
kept and stepped), drives it in a closed loop for ``seconds`` (the next
round is sent only after the previous one returned), runs its correctness
checks, and returns a :class:`Outcome`. With ``trace`` on, probes from
:mod:`perfbench.probes` are attached and the per-layer figures are filled.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import probes
from perfbench.reference import (
    ArmScenario,
    SessionScenario,
    arm_log_likelihood,
    arm_measurement,
    constant_velocity,
)
from repro.core import DistributedFilterConfig, DistributedParticleFilter
from repro.models import RobotArmModel, RobotArmParams
from repro.models.linear_gaussian import LinearGaussianModel
from repro.resampling import RouletteWheelResampler
from repro.sessions import SessionManager

#: untimed rounds (ticks) at the end of every set-up.
WARMUP = 3
#: rounds (ticks) left out of the accuracy checks while the filter converges.
BURN_IN = 20
#: fewest rounds (ticks) a run makes, so the accuracy checks see at least
#: half a lemniscate lap (200 rounds) after the burn-in.
CHECK_ROUNDS = BURN_IN + 100

# Table II, CPU column: m=64, N=1024, ring, t=1.
ARM_M, ARM_N = 64, 1024

# sessions-churn: 256 sessions of 4 sub-filters x 32 particles, half of them
# in the reference form and half in the compiled (fused) form.
SESSIONS, SESSION_X, SESSION_M = 256, 4, 32
CV_DT, CV_Q, CV_R = 0.5, 1.0, 0.5
CHURN_EVERY = 5

#: position RMSE of the arm filter must stay below this share of the
#: dead-reckoning RMSE.
ARM_RMSE_SHARE = 0.7
#: pooled session RMSE may exceed the Kalman filter's by at most this factor
#: (README, "Correctness checks").
KALMAN_FACTOR = 1.6

PER_LAYER = (
    "models.transition_ms", "models.likelihood_ms", "models.calls",
    "prng.draw_ms", "engine.sampling_ms", "engine.heal_ms", "engine.sort_ms",
    "engine.estimate_ms", "engine.exchange_ms", "engine.resample_ms",
    "engine.fused_ms", "resampling.resample_ms", "kernels.sort_ms",
    "kernels.route_ms", "kernels.bytes_per_step", "kernels.flops_per_step",
    "memory.minor_faults", "sessions.submit_ms", "sessions.tick_ms",
    "sessions.churn_ms", "sessions.cohorts", "sessions.solo",
    "sessions.scratch_hit_ratio", "backends.worker_busy_ms",
    "backends.master_ms", "backends.wait_ms", "backends.spawn_s",
    "transport.bytes_per_step", "transport.messages_per_step",
)

#: worker processes of the timed shards-shm run, and of the pipe run its
#: first rounds are compared with. The timed run keeps to one worker: with
#: two, both vCPUs of this host must run at once and the round median moved
#: between 52 and 132 ms across identical runs (README, "Workloads").
SHARD_WORKERS, PARITY_WORKERS = 1, 2

ENGINE_STAGES = ("sampling", "heal", "sort", "estimate", "exchange", "resample",
                 "fused")
ROUTE_KERNELS = ("route_pairwise", "route_pooled", "route_shard")
#: phases the multiprocess master times itself; every other phase in its
#: timer is a worker stage folded in as the per-stage maximum over workers.
MASTER_PHASES = ("estimate", "exchange", "allocate")


@dataclass
class Outcome:
    samples: list = field(default_factory=list)  # seconds per round / tick
    particles_per_round: int = 0
    setup_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> (ok, detail)
    layers: dict = field(default_factory=dict)


def _timed_loop(step, seconds: float, min_rounds: int) -> list:
    """Call ``step(i)`` until *seconds* passed and *min_rounds* were made.
    Past 1.5 x *seconds* only the ``CHECK_ROUNDS`` the checks need are still
    awaited, so a run on a slowed host ends in time. ``step`` returns the
    wall time of its program call."""
    samples = []
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + 1.5 * seconds
    while True:
        now, n = time.perf_counter(), len(samples)
        if (now >= deadline and n >= min_rounds) or (now >= cutoff and n >= CHECK_ROUNDS):
            return samples
        samples.append(step(n))


def _delta(after: dict, before: dict, keys) -> float:
    return sum(after.get(k, 0.0) - before.get(k, 0.0) for k in keys)


def _rmse(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum(err ** 2, axis=-1))))


# ---------------------------------------------------------------------------
# arm-table2 and shards-shm share the problem and its checks
# ---------------------------------------------------------------------------


def _arm_config(seed: int, **kw) -> DistributedFilterConfig:
    return DistributedFilterConfig(
        n_particles=ARM_M, n_filters=ARM_N, topology="ring", n_exchange=1,
        execution="reference", dtype_policy="mixed", seed=seed, **kw)


def check_arm_model(params: RobotArmParams, seed: int) -> tuple[bool, str]:
    """The program's h(x) and log-likelihood against the reference."""
    model = RobotArmModel(params)
    rng = np.random.default_rng([seed, 0x4B])
    n, K = 4096, params.n_joints
    states = np.concatenate([
        rng.normal(0.0, 0.6, (n, K)),
        rng.uniform(-1.2, 1.2, (n, 2)),
        rng.normal(0.0, 0.3, (n, 2)),
    ], axis=1)
    z = arm_measurement(states[:1], K, params.arm_length)[0] + rng.normal(0, 0.1, K + 2)
    ref_h = arm_measurement(states, K, params.arm_length)
    ref_ll = arm_log_likelihood(states, z, K, params.arm_length,
                                params.sigma_theta_meas, params.sigma_camera)
    err_h = float(np.max(np.abs(model.measurement_mean(states) - ref_h)))
    ll = model.log_likelihood(states, z, 0)
    err_ll = float(np.max(np.abs(ll - ref_ll) / np.maximum(1.0, np.abs(ref_ll))))
    ok = err_h < 1e-9 and err_ll < 1e-9
    return ok, f"max |h - h_ref| = {err_h:.2e}, max rel |ll - ll_ref| = {err_ll:.2e}"


class _ArmLoop:
    """Steps an arm filter through the scenario after its warm-up rounds,
    keeping the object-position estimates and whether all were finite."""

    def __init__(self, pf, scen: ArmScenario, warm: list):
        self.pf, self.scen = pf, scen
        self.K = scen.K
        self.est_xy = [e[self.K:self.K + 2] for e in warm]
        self.finite = all(bool(np.isfinite(e).all()) for e in warm)

    def step(self, i: int) -> float:
        k = WARMUP + i
        self.scen.ensure(k + 1)
        z, u = self.scen.z[k], self.scen.u[k]
        t0 = time.perf_counter()
        est = self.pf.step(z, u)
        elapsed = time.perf_counter() - t0
        self.finite = self.finite and bool(np.isfinite(est).all())
        self.est_xy.append(est[self.K:self.K + 2].copy())
        return elapsed


def _arm_accuracy_checks(out: Outcome, loop: _ArmLoop,
                         population_ok: tuple[bool, str]) -> None:
    est_xy = np.asarray(loop.est_xy)
    n = len(est_xy)
    truth = loop.scen.obj[:n]
    dr = loop.scen.dead_reckoning(n)
    pf_rmse = _rmse(est_xy[BURN_IN:] - truth[BURN_IN:])
    dr_rmse = _rmse(dr[BURN_IN:] - truth[BURN_IN:])
    out.checks["estimates finite"] = (loop.finite, f"{n} rounds")
    out.checks["particles conserved"] = population_ok
    out.checks["rmse below dead reckoning"] = (
        pf_rmse < ARM_RMSE_SHARE * dr_rmse,
        f"filter {pf_rmse:.4f} m vs dead reckoning {dr_rmse:.4f} m "
        f"(limit {ARM_RMSE_SHARE} x)")


def arm_table2(seed: int, seconds: float, trace: bool, reps: int,
               min_rounds: int) -> Outcome:
    """Robot-arm filter in-process at Table II's CPU operating point."""
    params = RobotArmParams()
    scen = ArmScenario(params, seed)
    scen.ensure(WARMUP)
    out = Outcome(particles_per_round=ARM_M * ARM_N)
    out.checks["h(x) matches reference"] = check_arm_model(params, seed)
    clock = probes.Clock()

    for _ in range(reps):
        pf = None  # release the previous build (and its reference cycles)
        gc.collect()
        model, resampler = RobotArmModel(params), "rws"
        if trace:
            model = probes.TimedModel(model, clock)
            resampler = probes.TimedResampler(RouletteWheelResampler(), clock)
        t0 = time.perf_counter()
        pf = DistributedParticleFilter(model, _arm_config(seed, resampler=resampler))
        pf.initialize()
        warm = [pf.step(scen.z[k], scen.u[k]).copy() for k in range(WARMUP)]
        out.setup_s.append(time.perf_counter() - t0)
    if trace:
        timer = pf.timer.seconds
        clock.rand = lambda: timer.get("rand", 0.0)
        pf.pipeline.add_hook(probes.StageTimes(clock))

    loop = _ArmLoop(pf, scen, warm)
    before = _layer_snapshot(clock, pf.timer.seconds, pf.kernel_seconds)
    out.samples = _timed_loop(loop.step, seconds, min_rounds)
    after = _layer_snapshot(clock, pf.timer.seconds, pf.kernel_seconds)
    out.peak_rss_mb = probes.peak_rss_mb()
    out.attempted = len(out.samples)

    shape_ok = pf.states.shape == (ARM_N, ARM_M, model.state_dim)
    population_ok = (
        shape_ok and pf.live_particles == ARM_N * ARM_M
        and bool(np.isfinite(pf.states).all()),
        f"live {pf.live_particles} of {ARM_N * ARM_M}, states {pf.states.shape}")
    _arm_accuracy_checks(out, loop, population_ok)

    if trace:
        n = len(out.samples)
        layers = _in_process_layers(before, after, n)
        layers["resampling.resample_ms"] = 1e3 * _delta(
            after["clock"], before["clock"], ["resampling.resample"]) / n
        nbytes, flops = probes.round_cost(ARM_M, ARM_N, model.state_dim,
                                          pf.dtype.itemsize)
        layers["kernels.bytes_per_step"] = nbytes
        layers["kernels.flops_per_step"] = flops
        out.layers = layers
    return out


def _layer_snapshot(clock: probes.Clock, timer: dict, kernels: dict) -> dict:
    seconds, calls = clock.snapshot()
    return {"clock": seconds, "calls": calls, "timer": dict(timer),
            "kernels": dict(kernels), "faults": probes.minor_faults()}


def _in_process_layers(before: dict, after: dict, n: int) -> dict:
    """Per-round layer figures shared by the in-process workloads."""
    c0, c1 = before["clock"], after["clock"]
    layers = {
        "models.transition_ms": 1e3 * _delta(c1, c0, ["models.transition"]) / n,
        "models.likelihood_ms": 1e3 * _delta(c1, c0, ["models.likelihood"]) / n,
        "models.calls": _delta(after["calls"], before["calls"],
                               ["models.transition", "models.likelihood"]) / n,
        "prng.draw_ms": 1e3 * (_delta(after["timer"], before["timer"], ["rand"])
                               + _delta(c1, c0, ["prng.draw"])) / n,
        "kernels.sort_ms": 1e3 * _delta(after["kernels"], before["kernels"],
                                        ["sort"]) / n,
        "kernels.route_ms": 1e3 * _delta(after["kernels"], before["kernels"],
                                         ROUTE_KERNELS) / n,
        "memory.minor_faults": (after["faults"] - before["faults"]) / n,
    }
    for stage in ENGINE_STAGES:
        layers[f"engine.{stage}_ms"] = 1e3 * _delta(c1, c0, [f"engine.{stage}"]) / n
    return layers


# ---------------------------------------------------------------------------
# sessions-churn
# ---------------------------------------------------------------------------


def sessions_churn(seed: int, seconds: float, trace: bool, reps: int,
                   min_rounds: int) -> Outcome:
    """Many small linear-Gaussian sessions in two cohorts, with churn."""
    A, C, Q, R = constant_velocity(CV_DT, CV_Q, CV_R)
    ids = [f"s{i:03d}" for i in range(SESSIONS)]
    index = {sid: i for i, sid in enumerate(ids)}
    out = Outcome(particles_per_round=SESSIONS * SESSION_X * SESSION_M)
    clock = probes.Clock()
    clock.rand = lambda: clock.seconds.get("prng.draw", 0.0)

    def configs():
        for i in range(SESSIONS):
            yield DistributedFilterConfig(
                n_particles=SESSION_M, n_filters=SESSION_X, topology="ring",
                n_exchange=1, seed=seed * 100003 + i,
                execution="compiled" if i % 2 else "reference")

    for _ in range(reps):
        mgr = None  # release the previous build (and its reference cycles)
        gc.collect()
        scen = SessionScenario(A, C, Q, R, SESSIONS, seed)
        model = LinearGaussianModel(A, C, Q, R)
        if trace:
            model = probes.TimedModel(model, clock)
        t0 = time.perf_counter()
        mgr = SessionManager()
        for sid, cfg in zip(ids, configs()):
            sess = mgr.attach(sid, model, cfg)
            if trace:
                sess.rng = probes.TimedRNG(sess.rng, clock)
        for _ in range(WARMUP):
            z = scen.advance()
            for j, sid in enumerate(ids):
                mgr.submit(sid, z[j])
            mgr.tick()
        out.setup_s.append(time.perf_counter() - t0)
    if trace:
        for cohort in mgr.cohorts.values():
            cohort.pipeline.add_hook(probes.StageTimes(clock))

    sq_pf, sq_kf = [], []
    missing = 0
    churn_s = []
    submit_s = tick_s = 0.0
    est = np.empty((SESSIONS, 4))
    expect_k = WARMUP

    def step(i: int) -> float:
        nonlocal missing, submit_s, tick_s, expect_k
        z = scen.advance()
        t0 = time.perf_counter()
        for j, sid in enumerate(ids):
            mgr.submit(sid, z[j])
        t1 = time.perf_counter()
        results = mgr.tick()
        t2 = time.perf_counter()
        submit_s += t1 - t0
        tick_s += t2 - t1
        expect_k += 1
        seen = np.zeros(SESSIONS, dtype=np.int64)
        for res in results:
            j = index[res.session_id]
            if res.k == expect_k:
                seen[j] += 1
                est[j] = res.estimate
        missing += int(np.sum(seen != 1))
        if i >= BURN_IN:
            sq_pf.append(np.sum((est[:, :2] - scen.x[:, :2]) ** 2, axis=1))
            sq_kf.append(np.sum((scen.mean[:, :2] - scen.x[:, :2]) ** 2, axis=1))
        if i % CHURN_EVERY == CHURN_EVERY - 1:
            sid = ids[(i // CHURN_EVERY * 37) % SESSIONS]
            c0 = time.perf_counter()
            mgr.readmit(mgr.detach(sid))
            churn_s.append(time.perf_counter() - c0)
        return t2 - t0

    stats0 = mgr.stats()
    before = _layer_snapshot(clock, {}, _cohort_kernels(mgr))
    out.samples = _timed_loop(step, seconds, min_rounds)
    after = _layer_snapshot(clock, {}, _cohort_kernels(mgr))
    out.peak_rss_mb = probes.peak_rss_mb()
    stats = mgr.stats()
    n = len(out.samples)
    out.attempted = n * SESSIONS
    out.failed = missing

    out.checks["one result per observation"] = (
        missing == 0, f"{out.attempted} observations, {missing} without exactly one result")
    out.checks["no solo fallback"] = (
        stats["solo_sessions"] == 0 and stats["cohorts"] == 2,
        f"{stats['cohorts']} cohorts, {stats['solo_sessions']} solo sessions")
    if sq_pf:
        pf_rmse = float(np.sqrt(np.mean(sq_pf)))
        kf_rmse = float(np.sqrt(np.mean(sq_kf)))
        out.checks["rmse within Kalman factor"] = (
            pf_rmse <= KALMAN_FACTOR * kf_rmse,
            f"filter {pf_rmse:.4f} vs Kalman {kf_rmse:.4f} "
            f"(ratio {pf_rmse / kf_rmse:.3f}, limit {KALMAN_FACTOR})")
    else:
        out.checks["rmse within Kalman factor"] = (False, "too few ticks to judge")

    if trace:
        layers = _in_process_layers(before, after, n)
        layers["sessions.submit_ms"] = 1e3 * submit_s / n
        layers["sessions.tick_ms"] = 1e3 * tick_s / n
        layers["sessions.churn_ms"] = 1e3 * float(np.mean(churn_s)) if churn_s else 0.0
        layers["sessions.cohorts"] = stats["cohorts"]
        layers["sessions.solo"] = stats["solo_sessions"]
        hits = stats["scratch"]["hits"] - stats0["scratch"]["hits"]
        misses = stats["scratch"]["misses"] - stats0["scratch"]["misses"]
        layers["sessions.scratch_hit_ratio"] = hits / max(hits + misses, 1)
        nbytes = flops = 0.0
        for cohort in mgr.cohorts.values():
            b, f = probes.round_cost(SESSION_M, len(cohort) * SESSION_X, 4,
                                     np.dtype(cohort.dtype_policy.state).itemsize)
            nbytes, flops = nbytes + b, flops + f
        layers["kernels.bytes_per_step"] = nbytes
        layers["kernels.flops_per_step"] = flops
        out.layers = layers
    return out


def _cohort_kernels(mgr: SessionManager) -> dict:
    total: dict[str, float] = {}
    for cohort in mgr.cohorts.values():
        for name, sec in cohort.kernel_hook.kernel_seconds.items():
            total[name] = total.get(name, 0.0) + sec
    return total


# ---------------------------------------------------------------------------
# shards-shm
# ---------------------------------------------------------------------------


class _MessageCounter:
    """Counts the messages this process sends and receives over
    ``multiprocessing`` connections while the context is open. Worker
    processes forked inside it count into their own copy, so only the
    master's side of every pipe is seen."""

    def __init__(self):
        from multiprocessing.connection import Connection

        self.cls = Connection
        self.count = 0
        self._saved = {}

    def __enter__(self):
        for name in ("send", "recv"):
            original = getattr(self.cls, name)
            self._saved[name] = original

            def counted(conn, *args, _original=original, **kwargs):
                self.count += 1
                return _original(conn, *args, **kwargs)

            setattr(self.cls, name, counted)
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(self.cls, name, original)


def _slab_bytes_per_round(layout, n_workers: int) -> int:
    """Payload bytes one fixed-allocation round writes into the shm slabs:
    the scatter slots, the gathered boundary and partials, and the routed
    particles. Computed from the slab layout; pipe headers are excluded."""
    used = ("meas", "ctrl", "send_states", "send_logw", "best_states",
            "best_logw", "partial", "recv_states", "recv_logw")
    per_worker = sum(int(np.prod(f.shape)) * np.dtype(f.dtype).itemsize
                     for name, f in layout.fields.items() if name in used)
    return per_worker * n_workers


def shards_shm(seed: int, seconds: float, trace: bool, reps: int,
               min_rounds: int) -> Outcome:
    """The arm problem on the multiprocess backend over shared memory."""
    from contextlib import nullcontext

    from repro.backends.multiprocess import MultiprocessDistributedParticleFilter
    from repro.backends.transport import SlabLayout
    from repro.core.dtypes import resolve_dtype_policy

    n_workers = SHARD_WORKERS
    params = RobotArmParams()
    scen = ArmScenario(params, seed)
    scen.ensure(WARMUP)
    model = RobotArmModel(params)
    cfg = _arm_config(seed, rng_streams="filter")
    out = Outcome(particles_per_round=ARM_M * ARM_N)
    spawn_s = []
    counter = _MessageCounter() if trace else nullcontext()
    pf = None
    with counter:
        try:
            for _ in range(reps):
                if pf is not None:
                    pf.close()
                    pf = None
                    gc.collect()
                t0 = time.perf_counter()
                pf = MultiprocessDistributedParticleFilter(
                    model, cfg, n_workers=n_workers, transport="shm")
                t1 = time.perf_counter()
                pf.initialize()
                spawn_s.append(time.perf_counter() - t1)
                warm = [pf.step(scen.z[k], scen.u[k]).copy() for k in range(WARMUP)]
                out.setup_s.append(time.perf_counter() - t0)
            loop = _ArmLoop(pf, scen, warm)
            m0 = counter.count if trace else 0
            timer0, kern0 = dict(pf.timer.seconds), dict(pf.kernel_seconds)
            faults0 = probes.minor_faults(include_children=True)
            out.samples = _timed_loop(loop.step, seconds, min_rounds)
            faults1 = probes.minor_faults(include_children=True)
            timer1, kern1 = dict(pf.timer.seconds), dict(pf.kernel_seconds)
            m1 = counter.count if trace else 0
            out.peak_rss_mb = probes.peak_rss_mb(include_children=True)
            out.attempted = len(out.samples)

            states, logw = pf.gather_population()
            population_ok = (
                states.shape == (ARM_N, ARM_M, model.state_dim)
                and pf.live_particles == ARM_N * ARM_M
                and bool(np.isfinite(states).all())
                and not pf.dead_workers,
                f"live {pf.live_particles} of {ARM_N * ARM_M}, gathered "
                f"{states.shape}, dead workers {list(pf.dead_workers)}")
        finally:
            if pf is not None:
                pf.close()
    _arm_accuracy_checks(out, loop, population_ok)
    out.checks[f"first rounds equal a {PARITY_WORKERS}-worker pipe run"] = _partition_parity(
        MultiprocessDistributedParticleFilter, model, cfg, scen, warm)

    if trace:
        n = len(out.samples)
        stages = set(timer1) | set(timer0)
        worker = [s for s in stages if s not in MASTER_PHASES]
        busy = 1e3 * _delta(timer1, timer0, worker) / n
        master = 1e3 * _delta(timer1, timer0, MASTER_PHASES) / n
        layers = {
            "prng.draw_ms": 1e3 * _delta(timer1, timer0, ["rand"]) / n,
            "kernels.sort_ms": 1e3 * _delta(kern1, kern0, ["sort"]) / n,
            "kernels.route_ms": 1e3 * _delta(kern1, kern0, ROUTE_KERNELS) / n,
            "memory.minor_faults": (faults1 - faults0) / n,
            "backends.worker_busy_ms": busy,
            "backends.master_ms": master,
            "backends.wait_ms": 1e3 * float(np.mean(out.samples)) - busy - master,
            "backends.spawn_s": float(np.median(spawn_s)),
            "transport.messages_per_step": (m1 - m0) / n,
        }
        for stage in ENGINE_STAGES:
            layers[f"engine.{stage}_ms"] = 1e3 * _delta(timer1, timer0, [stage]) / n
        t = max(cfg.n_exchange, 1)
        dtypes = resolve_dtype_policy(cfg.dtype_policy, cfg.dtype)
        layout = SlabLayout(
            n_block=ARM_N // n_workers, n_particles=ARM_M,
            state_dim=model.state_dim, t_cap=t, recv_cap=2 * t,
            meas_cap=model.measurement_dim, ctrl_cap=model.control_dim,
            dtype=dtypes.state, weight_dtype=dtypes.weight)
        layers["transport.bytes_per_step"] = _slab_bytes_per_round(layout, n_workers)
        nbytes, flops = probes.round_cost(ARM_M, ARM_N, model.state_dim,
                                          dtypes.state.itemsize)
        layers["kernels.bytes_per_step"] = nbytes
        layers["kernels.flops_per_step"] = flops
        out.layers = layers
    return out


def _partition_parity(backend_cls, model, cfg, scen: ArmScenario,
                      estimates: list) -> tuple[bool, str]:
    """Re-run the first rounds over pipes with ``PARITY_WORKERS`` workers;
    per-filter streams promise bitwise-equal estimates for any partition and
    transport."""
    pf = backend_cls(model, cfg, n_workers=PARITY_WORKERS, transport="pipe")
    try:
        pf.initialize()
        same = [np.array_equal(pf.step(scen.z[k], scen.u[k]), estimates[k])
                for k in range(len(estimates))]
    finally:
        pf.close()
    return all(same), f"{sum(same)} of {len(same)} rounds bitwise equal"


WORKLOADS = {
    "arm-table2": arm_table2,
    "sessions-churn": sessions_churn,
    "shards-shm": shards_shm,
}
