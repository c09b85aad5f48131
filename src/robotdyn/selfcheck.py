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
from .dynamics import aba, forward_dynamics_cholesky, mass_matrix, rnea, simulate, \
    total_energy
from .kinematics import forward_kinematics, link_jacobian


def _random_state(model, rng, scale=1.0):
    lo, hi = model.joint_limits()
    lo = np.where(np.isfinite(lo), np.maximum(lo, -np.pi), -np.pi)
    hi = np.where(np.isfinite(hi), np.minimum(hi, np.pi), np.pi)
    q = rng.uniform(lo, hi)
    qd = rng.uniform(-scale, scale, size=model.n)
    tau = rng.uniform(-scale, scale, size=model.n)
    return q, qd, tau


def _rel_inf(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def check_aba_rnea_roundtrip(model, rng, n_states):
    err = 0.0
    for _ in range(n_states):
        q, qd, tau = _random_state(model, rng)
        qdd = aba(model, list(q), list(qd), list(tau))
        back = rnea(model, list(q), list(qd), qdd)
        err = max(err, _rel_inf(back, tau))
    return err


def check_crba_columns(model, rng, n_states):
    err = 0.0
    zero = [0.0] * model.n
    for _ in range(n_states):
        q, _, _ = _random_state(model, rng)
        M = np.asarray(mass_matrix(model, list(q)))
        for j in range(model.n):
            ej = [0.0] * model.n
            ej[j] = 1.0
            col = rnea(model, list(q), zero, ej, gravity=(0.0, 0.0, 0.0))
            err = max(err, float(np.max(np.abs(M[:, j] - np.asarray(col)))))
    return err


def check_aba_vs_cholesky(model, rng, n_states):
    err = 0.0
    for _ in range(n_states):
        q, qd, tau = _random_state(model, rng)
        a1 = aba(model, list(q), list(qd), list(tau))
        a2 = forward_dynamics_cholesky(model, list(q), list(qd), list(tau))
        err = max(err, _rel_inf(a1, a2))
    return err


def check_mass_matrix_symmetry(model, rng, n_states):
    err = 0.0
    for _ in range(n_states):
        q, _, _ = _random_state(model, rng)
        M = np.asarray(mass_matrix(model, list(q)))
        err = max(err, float(np.max(np.abs(M - M.T))))
    return err


def check_mass_matrix_pd(model, rng, n_states):
    """0.0 when every sampled mass matrix admits a Cholesky factorization."""
    for _ in range(n_states):
        q, _, _ = _random_state(model, rng)
        M = np.asarray(mass_matrix(model, list(q)))
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return 1.0
    return 0.0


def check_jacobian_fd(model, rng, n_states, step=1e-6):
    """Analytic geometric Jacobian vs central finite differences of FK."""
    link = model.link_names()[-1]
    err = 0.0
    for _ in range(n_states):
        q, _, _ = _random_state(model, rng)
        J = link_jacobian(model, list(q), link)
        for j in range(model.n):
            qp, qm = q.copy(), q.copy()
            qp[j] += step
            qm[j] -= step
            pp = forward_kinematics(model, list(qp))[link]
            pm = forward_kinematics(model, list(qm))[link]
            fd_lin = (np.array(pp.position.values()) - np.array(pm.position.values())) \
                / (2.0 * step)
            Rp = np.array(pp.rotation.values())
            Rm = np.array(pm.rotation.values())
            dR = (Rp - Rm) / (2.0 * step)
            W = dR @ np.array(forward_kinematics(model, list(q))[link].rotation.values()).T
            fd_ang = np.array([W[2, 1], W[0, 2], W[1, 0]])
            err = max(err, float(np.max(np.abs(J[3:6, j] - fd_lin))),
                      float(np.max(np.abs(J[0:3, j] - fd_ang))))
    return err


def check_ad_vs_fd(model, rng, n_states, step=1e-6):
    """Reverse-mode gradients of each inverse-dynamics output vs central FD."""
    n = model.n
    err = 0.0
    for _ in range(n_states):
        q, qd, tau = _random_state(model, rng)
        x0 = np.concatenate([q, qd, tau])

        def tau_out(xs, k):
            out = rnea(model, xs[:n], xs[n:2 * n], xs[2 * n:])
            return out[k]

        for k in range(n):
            g = ad.gradient(lambda xs: tau_out(xs, k), list(x0))
            for i in range(3 * n):
                xp, xm = x0.copy(), x0.copy()
                xp[i] += step
                xm[i] -= step
                fd = (tau_out(list(xp), k) - tau_out(list(xm), k)) / (2.0 * step)
                err = max(err, abs(g[i] - fd) / max(1.0, abs(g[i])))
    return err


def check_energy_drift(model, rng, steps=300, dt=1e-3):
    """Relative energy drift of a passive zero-gravity rollout."""
    q0 = rng.uniform(-0.5, 0.5, size=model.n)
    qd0 = rng.uniform(0.5, 1.0, size=model.n)
    g = (0.0, 0.0, 0.0)
    traj = simulate(model, q0, qd0, None, dt, steps, gravity=g, integrator="rk4")
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
    """Run the full oracle suite; returns a report dict (all values finite)."""
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
