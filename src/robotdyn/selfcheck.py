"""Cross-algorithm verification suite run by ``robot check``.

Every check pits two independent computation routes against each other on
seeded random states (inverse vs forward dynamics round trip, mass-matrix
columns vs unit-acceleration inverse dynamics, articulated-body vs
factorization forward dynamics, analytic vs finite-difference Jacobians,
reverse-mode gradients vs finite differences, integrator energy drift).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .dynamics import NonFiniteStateError, aba, forward_dynamics_cholesky, mass_matrix, \
    rnea, simulate, total_energy
from .kinematics import forward_kinematics, link_jacobian


def _random_state(model, rng, scale=1.0):
    lo, hi = model.joint_limits()
    lo = np.where(np.isfinite(lo), np.maximum(lo, -np.pi), -np.pi)
    hi = np.where(np.isfinite(hi), np.minimum(hi, np.pi), np.pi)
    q = rng.uniform(lo, hi)
    qd = rng.uniform(-scale, scale, size=model.n)
    tau = rng.uniform(-scale, scale, size=model.n)
    return q, qd, tau


def _random_states(model, rng, n_states):
    """``n_states`` draws of ``_random_state``, in order, as (n, n_states)
    arrays ``q``, ``qd``, ``tau``: row j holds coordinate j of every state."""
    draws = [_random_state(model, rng) for _ in range(n_states)]
    return tuple(np.array(x).T.copy() for x in zip(*draws))


def _worst(errors):
    """Largest error, from 0.0 for no errors; NaN if any error is NaN."""
    return float(np.max(errors, initial=0.0))


def _rel_inf(a, b):
    """Per-state relative max-norm error of (n, k) batches: max|a - b| / max(1, max|b|)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b), axis=0) / np.maximum(1.0, np.max(np.abs(b), axis=0))


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


def _mass_matrices(model, q):
    """Mass matrices of the (n, k) configurations ``q`` as a (k, n, n) array."""
    return np.moveaxis(_batch_array(mass_matrix(model, list(q)), q.shape[1]), -1, 0)


def check_aba_rnea_roundtrip(model, rng, n_states):
    q, qd, tau = _random_states(model, rng, n_states)
    qdd = aba(model, list(q), list(qd), list(tau))
    back = rnea(model, list(q), list(qd), qdd)
    return _worst(_rel_inf(back, tau))


def check_crba_columns(model, rng, n_states):
    """Each mass-matrix column against inverse dynamics of a unit acceleration."""
    n = model.n
    q, _, _ = _random_states(model, rng, n_states)
    M = _mass_matrices(model, q)
    # column s*n + j: state s, unit acceleration of joint j
    cols = rnea(model, list(np.repeat(q, n, axis=1)), [0.0] * n,
                list(np.tile(np.eye(n), n_states)), gravity=(0.0, 0.0, 0.0))
    cols = np.array(cols).T.reshape(n_states, n, n)  # [s, j, i]
    return _worst(np.max(np.abs(M - cols.transpose(0, 2, 1)), axis=1))


def check_aba_vs_cholesky(model, rng, n_states):
    q, qd, tau = _random_states(model, rng, n_states)
    a1 = aba(model, list(q), list(qd), list(tau))
    a2 = forward_dynamics_cholesky(model, list(q), list(qd), list(tau))
    return _worst(_rel_inf(a1, a2))


def check_mass_matrix_symmetry(model, rng, n_states):
    q, _, _ = _random_states(model, rng, n_states)
    M = _mass_matrices(model, q)
    return _worst(np.max(np.abs(M - M.transpose(0, 2, 1)), axis=(1, 2)))


def check_mass_matrix_pd(model, rng, n_states):
    """0.0 when every sampled mass matrix admits a Cholesky factorization."""
    q, _, _ = _random_states(model, rng, n_states)
    try:
        np.linalg.cholesky(_mass_matrices(model, q))
    except np.linalg.LinAlgError:
        return 1.0
    return 0.0


def check_jacobian_fd(model, rng, n_states, step=1e-6):
    """Analytic geometric Jacobian vs central finite differences of FK."""
    n = model.n
    link = model.link_names()[-1]
    q, _, _ = _random_states(model, rng, n_states)
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


def check_ad_vs_fd(model, rng, n_states, step=1e-6):
    """Reverse-mode gradients of each inverse-dynamics output vs central FD."""
    n = model.n
    m = 3 * n
    q, qd, tau = _random_states(model, rng, n_states)
    x = np.concatenate([q, qd, tau])                                  # [i, s]
    # one tape per state, one backward sweep per output: G[s, k, i]
    G = np.array([ad.jacobian_rev(lambda xs: rnea(model, xs[:n], xs[n:2 * n], xs[2 * n:]),
                                  list(x[:, s])) for s in range(n_states)])
    xs = _central_columns(x, step)
    out = np.array(rnea(model, xs[:n], xs[n:2 * n], xs[2 * n:])).reshape(n, n_states, m, 2)
    fd = (out[..., 0] - out[..., 1]) / (2.0 * step)                   # [k, s, i]
    G = G.transpose(1, 0, 2)
    return _worst(np.abs(G - fd) / np.maximum(1.0, np.abs(G)))


def check_energy_drift(model, rng, steps=300, dt=1e-3):
    """Relative energy drift of a passive zero-gravity rollout; NaN when the
    rollout reaches a non-finite state, as it does when the dynamics return
    NaN."""
    q0 = rng.uniform(-0.5, 0.5, size=model.n)
    qd0 = rng.uniform(0.5, 1.0, size=model.n)
    g = (0.0, 0.0, 0.0)
    try:
        traj = simulate(model, q0, qd0, None, dt, steps, gravity=g, integrator="rk4")
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
    ("mass_matrix_symmetry", check_mass_matrix_symmetry, 1e-10),
    ("mass_matrix_positive_definite", check_mass_matrix_pd, 0.5),
    ("jacobian_vs_finite_difference", check_jacobian_fd, 1e-5),
    ("gradient_vs_finite_difference", check_ad_vs_fd, 1e-5),
    ("energy_drift", check_energy_drift, 1e-8),
)


def run_checks(model, seed=0, n_states=20, grad_states=3):
    """Run the full oracle suite; returns a report dict.

    A check whose error is NaN (a route returned NaN) fails, and its
    ``max_error`` reads NaN.
    """
    report = {"model": model.name, "dof": model.n, "seed": seed, "checks": {}}
    all_pass = True
    for name, fn, tol in CHECKS:
        rng = np.random.default_rng(seed)
        if fn is check_energy_drift:
            err = fn(model, rng)
        elif fn is check_ad_vs_fd:
            err = fn(model, rng, grad_states)
        else:
            err = fn(model, rng, n_states)
        ok = bool(np.isfinite(err) and err < tol)
        all_pass = all_pass and ok
        report["checks"][name] = {"max_error": float(err), "tolerance": tol,
                                  "passed": ok}
    report["passed"] = all_pass
    return report
