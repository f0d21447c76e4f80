"""Reference computations written apart from the program under test.

Nothing here calls into ``repro``'s model, kinematics or filter code: the
arm's measurement function is composed from explicit rotation matrices, the
sessions' posterior comes from a Kalman filter, and both scenarios are
simulated with the benchmark's own generators. The workloads compare the
program's outputs against these.
"""

from __future__ import annotations

import time

import numpy as np

# ---------------------------------------------------------------------------
# Robot arm (Section VII-A): h(x) from composed rotation matrices
# ---------------------------------------------------------------------------


def _rot_z(a: np.ndarray) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    o, z = np.ones_like(a), np.zeros_like(a)
    return np.stack([np.stack([c, -s, z], -1),
                     np.stack([s, c, z], -1),
                     np.stack([z, z, o], -1)], -2)


def _rot_y(a: np.ndarray) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    o, z = np.ones_like(a), np.zeros_like(a)
    return np.stack([np.stack([c, z, s], -1),
                     np.stack([z, o, z], -1),
                     np.stack([-s, z, c], -1)], -2)


def arm_measurement(states: np.ndarray, n_joints: int, arm_length: float) -> np.ndarray:
    """Noise-free measurement ``(theta_0..theta_{K-1}, y_C, z_C)`` per state.

    The base joint yaws about the world z-axis, every further joint pitches
    about its local y-axis, and each joint is followed by a link of length
    ``arm_length / K`` along its local x-axis. The camera sits at the end
    effector looking along local x; the object lies on the z=0 plane and is
    reported by its local (y, z) coordinates, i.e. ``R^T (obj - p)``.
    """
    states = np.asarray(states, dtype=np.float64)
    K = n_joints
    link = arm_length / K
    theta = states[..., :K]
    rot = _rot_z(theta[..., 0])
    tip = rot[..., :, 0] * link
    for i in range(1, K):
        rot = rot @ _rot_y(theta[..., i])
        tip = tip + rot[..., :, 0] * link
    obj = np.concatenate([states[..., K:K + 2],
                          np.zeros(states.shape[:-1] + (1,))], axis=-1)
    local = np.einsum("...ji,...j->...i", rot, obj - tip)
    return np.concatenate([theta, local[..., 1:3]], axis=-1)


def arm_log_likelihood(states: np.ndarray, z: np.ndarray, n_joints: int,
                       arm_length: float, sigma_theta: float,
                       sigma_camera: float) -> np.ndarray:
    """Gaussian log-likelihood up to a constant (angle sensors + camera)."""
    d = arm_measurement(states, n_joints, arm_length) - np.asarray(z)
    K = n_joints
    return (-0.5 * np.sum(d[..., :K] ** 2, axis=-1) / sigma_theta ** 2
            - 0.5 * np.sum(d[..., K:] ** 2, axis=-1) / sigma_camera ** 2)


def lemniscate_xy(k: np.ndarray, h_s: float, scale: float = 1.0,
                  period: float = 20.0) -> np.ndarray:
    """Lemniscate of Bernoulli sampled at steps *k*; ``(len(k), 2)``."""
    t = 2.0 * np.pi * np.asarray(k, dtype=np.float64) * h_s / period
    den = 1.0 + np.sin(t) ** 2
    return np.stack([scale * np.cos(t) / den,
                     scale * np.sin(t) * np.cos(t) / den], axis=1)


class ArmScenario:
    """The arm tracking problem: object on a lemniscate, joints swept.

    Joints follow single-integrator dynamics driven by a known sinusoidal
    control plus process noise; the object moves exactly along the path.
    Steps are generated on demand in chunks, so a run never runs out of
    inputs however fast the program is. All randomness comes from *seed*.
    """

    CHUNK = 256

    def __init__(self, params, seed: int):
        self.p = params
        self.K = params.n_joints
        self._rng = np.random.default_rng([seed, 0xA7])
        self._theta = np.zeros(self.K)
        self.z = np.empty((0, self.K + 2))
        self.u = np.empty((0, self.K))
        self.obj = np.empty((0, 2))

    def control(self, k: int) -> np.ndarray:
        p = self.p
        phase = np.pi * np.arange(self.K) / self.K
        return p.control_amplitude * np.sin(
            2.0 * np.pi * p.h_s * k / p.control_period + phase)

    def ensure(self, n: int) -> None:
        """Make sure steps ``0..n-1`` exist."""
        while len(self.z) < n:
            self._extend(self.CHUNK)

    def _extend(self, n: int) -> None:
        p, K = self.p, self.K
        k0 = len(self.z)
        obj = lemniscate_xy(np.arange(k0, k0 + n), p.h_s)
        u = np.stack([self.control(k) for k in range(k0, k0 + n)])
        theta = np.empty((n, K))
        for j in range(n):
            self._theta = (self._theta + p.h_s * u[j]
                           + p.sigma_theta * self._rng.standard_normal(K))
            theta[j] = self._theta
        x = np.concatenate([theta, obj], axis=1)
        z = arm_measurement(x, K, p.arm_length)
        sigma = np.r_[np.full(K, p.sigma_theta_meas), np.full(2, p.sigma_camera)]
        z = z + sigma * self._rng.standard_normal(z.shape)
        self.z = np.concatenate([self.z, z])
        self.u = np.concatenate([self.u, u])
        self.obj = np.concatenate([self.obj, obj])

    def dead_reckoning(self, n: int) -> np.ndarray:
        """Measurement-free object prediction: the prior mean position
        carried forward at the prior mean velocity, ``(n, 2)``."""
        p = self.p
        pos = np.asarray(p.init_object, dtype=np.float64)
        vel = np.zeros(2)  # the prior's mean velocity
        return pos + p.h_s * np.arange(1, n + 1)[:, None] * vel


# ---------------------------------------------------------------------------
# Linear-Gaussian constant-velocity sessions and their Kalman filter
# ---------------------------------------------------------------------------


def constant_velocity(dt: float, q: float, r: float):
    """``(A, C, Q, R)`` of a 2-D constant-velocity target, state
    ``(px, py, vx, vy)``, position measured with noise std *r*."""
    A = np.eye(4)
    A[0, 2] = A[1, 3] = dt
    block = q ** 2 * np.array([[dt ** 3 / 3, dt ** 2 / 2], [dt ** 2 / 2, dt]])
    Q = np.zeros((4, 4))
    Q[np.ix_([0, 2], [0, 2])] = block
    Q[np.ix_([1, 3], [1, 3])] = block
    C = np.zeros((2, 4))
    C[0, 0] = C[1, 1] = 1.0
    R = r ** 2 * np.eye(2)
    return A, C, Q, R


class SessionScenario:
    """Many independent constant-velocity targets with a Kalman filter each.

    Every target starts from the model prior ``N(0, I)``. The Kalman
    covariance is common to all targets (same model, same prior), so one
    ``P`` serves every session and the means update as one batch.
    """

    def __init__(self, A, C, Q, R, n_sessions: int, seed: int):
        self.A, self.C, self.Q, self.R = A, C, Q, R
        self._rng = np.random.default_rng([seed, 0x5E])
        self._Lq = np.linalg.cholesky(Q)
        self._Lr = np.linalg.cholesky(R)
        self.x = self._rng.standard_normal((n_sessions, 4))
        self.mean = np.zeros((n_sessions, 4))
        self.P = np.eye(4)

    def advance(self) -> np.ndarray:
        """Move every target one step; returns the ``(S, 2)`` measurements
        and runs the Kalman update on them."""
        A, C = self.A, self.C
        S = self.x.shape[0]
        self.x = self.x @ A.T + self._rng.standard_normal((S, 4)) @ self._Lq.T
        z = self.x @ C.T + self._rng.standard_normal((S, 2)) @ self._Lr.T
        self.mean = self.mean @ A.T
        P = A @ self.P @ A.T + self.Q
        gain = P @ C.T @ np.linalg.inv(C @ P @ C.T + self.R)
        self.mean = self.mean + (z - self.mean @ C.T) @ gain.T
        self.P = (np.eye(4) - gain @ C) @ P
        return z


# ---------------------------------------------------------------------------
# Host drift probe
# ---------------------------------------------------------------------------


def host_reference_ms(reps: int = 5) -> float:
    """Median wall time of a fixed NumPy computation (matmul, sort,
    transcendental), run outside the program; a change in it between two
    runs is a change of the host, not of the program."""
    rng = np.random.default_rng(20130520)
    a = rng.standard_normal((192, 192))
    v = rng.standard_normal(1 << 17)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        b = a
        for _ in range(4):
            b = np.tanh(b @ a)
        np.sort(v)
        np.exp(v).sum()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))
