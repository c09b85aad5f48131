"""Cross-algorithm verification suite run by ``robot check``.

Every check pits two independent computation routes against each other
(inverse vs forward dynamics round trip, mass-matrix columns vs
unit-acceleration inverse dynamics, articulated-body vs factorization forward
dynamics, analytic vs finite-difference Jacobians, reverse-mode gradients vs
finite differences, integrator energy drift) on one ``Sample`` of seeded
random states, drawn once, whose ``aba`` and mass matrices are evaluated once.

A check earns its place only if it can fail: its two routes are independent.
So there is no symmetry check (``mass_matrix`` writes both triangles from one
value) and no positive-definiteness check (``aba``, which runs first, raises
on every mass matrix that fails Cholesky).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import autodiff as ad
from .dynamics import NonFiniteStateError, _cholesky_forward, aba, mass_matrix, rnea, \
    simulate, total_energy
from .kinematics import forward_kinematics, link_jacobian


def _random_state(model, rng):
    lo, hi = model.joint_limits()
    lo = np.where(np.isfinite(lo), np.maximum(lo, -np.pi), -np.pi)
    hi = np.where(np.isfinite(hi), np.minimum(hi, np.pi), np.pi)
    q = rng.uniform(lo, hi)
    qd = rng.uniform(-1.0, 1.0, size=model.n)
    tau = rng.uniform(-1.0, 1.0, size=model.n)
    return q, qd, tau


def _worst(errors):
    """Largest error, from 0.0 for no errors; NaN if any error is NaN."""
    return float(np.max(errors, initial=0.0))


def _rel_inf(a, b):
    """Per-state relative max-norm error of (n, k) batches: max|a - b| / max(1, max|b|)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b), axis=0) / np.maximum(1.0, np.max(np.abs(b), axis=0))


def _rel_to_mass(D, M):
    """Per-state largest |D| entry of (k, n, n) batches over the largest |M|
    entry of the same state, so that a tolerance on mass-matrix errors holds
    for any inertia scale; NaN stays NaN."""
    return np.max(np.abs(D), axis=(1, 2)) / np.maximum(np.max(np.abs(M), axis=(1, 2)),
                                                       np.finfo(float).tiny)


def _batch_array(x, k):
    """Nested lists of floats and k-sample batches as one array; samples last."""
    if isinstance(x, list):
        return np.array([_batch_array(v, k) for v in x])
    return np.broadcast_to(x, (k,))


def _central_columns(x, step):
    """Columns (s, i, sign) for the (m, k) states ``x``: state s with entry i
    moved by +step, then by -step; as a list of m rows of length 2·m·k."""
    m, k = x.shape
    xs = np.repeat(x, 2 * m, axis=1).reshape(m, k, m, 2)
    for i in range(m):
        xs[i, :, i, 0] += step
        xs[i, :, i, 1] -= step
    return list(xs.reshape(m, -1))


class Sample:
    """States drawn once from ``default_rng(seed)``: (n, n_states) arrays ``q``,
    ``qd``, ``tau``, and ``x``, the stacked ``[q; qd; tau]`` of the first
    ``grad_states`` draws.  ``qdd`` (``aba``) and ``M`` (``mass_matrix``) are
    evaluated on first read, so each runs once, where a check first reads it."""

    def __init__(self, model, seed, n_states, grad_states):
        self.model, self.seed = model, seed
        rng = np.random.default_rng(seed)
        draws = [_random_state(model, rng) for _ in range(max(n_states, grad_states))]
        states = [np.array(x).T.copy() for x in zip(*draws)]
        self.q, self.qd, self.tau = (x[:, :n_states] for x in states)
        self.x = np.concatenate(states)[:, :grad_states]

    @cached_property
    def qdd(self):
        return aba(self.model, list(self.q), list(self.qd), list(self.tau))

    @cached_property
    def M(self):
        return np.moveaxis(_batch_array(mass_matrix(self.model, list(self.q)),
                                        self.q.shape[1]), -1, 0)


def check_aba_rnea_roundtrip(sample):
    back = rnea(sample.model, list(sample.q), list(sample.qd), sample.qdd)
    return _worst(_rel_inf(back, sample.tau))


def check_crba_columns(sample):
    """Each mass-matrix column against inverse dynamics of a unit acceleration,
    relative to the largest mass-matrix entry of the state."""
    q, M = sample.q, sample.M
    n, k = q.shape
    # column s*n + j: state s, unit acceleration of joint j
    cols = rnea(sample.model, list(np.repeat(q, n, axis=1)), [0.0] * n,
                list(np.tile(np.eye(n), k)), gravity=(0.0, 0.0, 0.0))
    cols = np.array(cols).T.reshape(k, n, n)  # [s, j, i]
    return _worst(_rel_to_mass(M - cols.transpose(0, 2, 1), M))


def check_aba_vs_cholesky(sample):
    """``aba`` against ``forward_dynamics_cholesky``'s solve, on the sample's
    mass matrices."""
    return _worst(_rel_inf(sample.qdd, _cholesky_forward(
        sample.model, np.moveaxis(sample.M, 0, -1), list(sample.q), list(sample.qd),
        list(sample.tau))))


def check_jacobian_fd(sample):
    """Analytic geometric Jacobian vs central finite differences of FK."""
    model, q, step = sample.model, sample.q, 1e-6
    n, n_states = q.shape
    link = model.link_names()[-1]
    J = link_jacobian(model, list(q), link)              # [row, j, s]
    R = _batch_array(forward_kinematics(model, list(q))[link].rotation.values(), n_states)
    pose = forward_kinematics(model, _central_columns(q, step))[link]
    p = _batch_array(pose.position.values(), 2 * n * n_states).reshape(3, n_states, n, 2)
    Rs = _batch_array(pose.rotation.values(), 2 * n * n_states).reshape(3, 3, n_states, n, 2)
    fd_lin = (p[..., 0] - p[..., 1]) / (2.0 * step)                  # [xyz, s, j]
    # W = dR R^T with the 3x3 layouts of a single state's product, so that
    # numpy multiplies each pair as it would one at a time
    dR = np.ascontiguousarray(np.moveaxis((Rs[..., 0] - Rs[..., 1]) / (2.0 * step),
                                          (0, 1), (2, 3)))          # [s, j, 3, 3]
    Rt = np.ascontiguousarray(np.moveaxis(R, -1, 0)).swapaxes(-1, -2)  # [s, 3, 3]
    W = dR @ Rt[:, None]
    fd_ang = np.stack([W[..., 2, 1], W[..., 0, 2], W[..., 1, 0]])    # [xyz, s, j]
    J = J.transpose(0, 2, 1)                                          # [row, s, j]
    return _worst(np.maximum(np.max(np.abs(J[3:6] - fd_lin), axis=0),
                             np.max(np.abs(J[0:3] - fd_ang), axis=0)))


def check_ad_vs_fd(sample):
    """Reverse-mode gradients of each inverse-dynamics output vs central FD."""
    model, x, step = sample.model, sample.x, 1e-6                     # [i, s]
    m, n_states = x.shape
    n = model.n
    # one tape per state, one backward sweep per output: G[s, k, i]
    G = np.array([ad.jacobian_rev(lambda xs: rnea(model, xs[:n], xs[n:2 * n], xs[2 * n:]),
                                  list(x[:, s])) for s in range(n_states)])
    xs = _central_columns(x, step)
    out = np.array(rnea(model, xs[:n], xs[n:2 * n], xs[2 * n:])).reshape(n, n_states, m, 2)
    fd = (out[..., 0] - out[..., 1]) / (2.0 * step)                   # [k, s, i]
    G = G.transpose(1, 0, 2)
    return _worst(np.abs(G - fd) / np.maximum(1.0, np.abs(G)))


def check_energy_drift(sample):
    """Relative energy drift of 300 passive zero-gravity RK4 steps of 1 ms from
    a start drawn from a fresh ``default_rng(seed)``; NaN when the rollout
    reaches a non-finite state, as it does when the dynamics return NaN."""
    model, rng = sample.model, np.random.default_rng(sample.seed)
    q0 = rng.uniform(-0.5, 0.5, size=model.n)
    qd0 = rng.uniform(0.5, 1.0, size=model.n)
    g = (0.0, 0.0, 0.0)
    try:
        traj = simulate(model, q0, qd0, None, 1e-3, 300, gravity=g)
    except NonFiniteStateError:
        return float("nan")
    e0 = total_energy(model, list(traj[0][1]), list(traj[0][2]), gravity=g)
    drift = max(abs(total_energy(model, list(q), list(qd), gravity=g) - e0)
                for _, q, qd, _ in traj[::50])
    return drift / max(1e-12, abs(e0))


CHECKS = (
    ("aba_rnea_roundtrip", check_aba_rnea_roundtrip, 1e-8),
    ("crba_columns", check_crba_columns, 1e-10),
    ("aba_vs_cholesky", check_aba_vs_cholesky, 1e-9),
    ("jacobian_vs_finite_difference", check_jacobian_fd, 1e-5),
    ("gradient_vs_finite_difference", check_ad_vs_fd, 1e-5),
    ("energy_drift", check_energy_drift, 1e-8),
)


def run_checks(model, seed=0, n_states=20, grad_states=3):
    """Run the full oracle suite on one ``Sample``; returns a report dict.

    A check whose error is NaN (a route returned NaN) fails, and its
    ``max_error`` reads NaN.  A model with no movable joints raises
    ``ValueError``.
    """
    if model.n == 0:
        raise ValueError(f"model {model.name!r} has no movable joints")
    sample = Sample(model, seed, n_states, grad_states)
    report = {"model": model.name, "dof": model.n, "seed": seed, "checks": {}}
    all_pass = True
    for name, fn, tol in CHECKS:
        err = fn(sample)
        ok = bool(np.isfinite(err) and err < tol)
        all_pass = all_pass and ok
        report["checks"][name] = {"max_error": float(err), "tolerance": tol,
                                  "passed": ok}
    report["passed"] = all_pass
    return report
