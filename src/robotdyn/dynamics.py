"""Rigid-body dynamics on the kinematic tree.

Implements the classic O(n) / O(n^2) recursions over spatial vectors:
inverse dynamics (recursive Newton-Euler) and its regressor in the inertial
parameters, the joint-space mass matrix (composite rigid body), forward
dynamics (articulated body), plus an independent mass-matrix-factorization
route to forward dynamics and a fixed-step RK4 check integrator.

Gravity is folded in as a fictitious base acceleration of -g, so a single
code path serves gravity on and off.  All functions are pure and generic
over the scalar type of their state arguments and of the model's inertias
(floats, numpy batches, autodiff scalars); other inertias reach them as
``model.with_inertias(...)``.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from . import autodiff as ad
from .kinematics import local_transforms
from .spatial import ForceVector, Mat33, MotionVector, SpatialInertia, Vec3, \
    cross_force, cross_motion, inertia_bilinear

DEFAULT_GRAVITY = Vec3(0.0, 0.0, -9.81)


class DynamicsError(RuntimeError):
    """Dynamics computation impossible on this model or state."""


class NonFiniteStateError(DynamicsError):
    """A rollout reached a non-finite state or torque."""


def _as_gravity(gravity):
    if gravity is None:
        return DEFAULT_GRAVITY
    if isinstance(gravity, Vec3):
        return gravity
    return Vec3.fromlist(list(gravity))


def _inertias(model, **state):
    """The model's per-body inertias, after checking that it has dynamics and
    that every state vector has length n."""
    for name, v in state.items():
        _check_len(name, v, model.n)
    if model.kinematics_only:
        raise DynamicsError("dynamics unavailable: model was built kinematics_only")
    return model.inertias()


def _check_len(name, v, n):
    if len(v) != n:
        raise ValueError(f"{name} must have length {n}, got {len(v)}")


def _first(x, mask):
    """First sample of ``x`` (a float or a numpy batch) where ``mask`` holds."""
    return np.broadcast_to(x, np.shape(mask))[mask][0]


def _motion_sweep(model, xs, qd, qdd, g):
    """Outward sweep of body velocities and accelerations, gravity entering as
    a -g base acceleration; yields (i, v_i, a_i) body by body, so a caller's
    work on body i runs before body i + 1 is visited."""
    v = [None] * model.n
    a = [None] * model.n
    a_base = MotionVector(Vec3.zero(), -g)
    for i, body in enumerate(model.bodies):
        X = xs[i]
        vp = v[body.parent] if body.parent >= 0 else MotionVector.zero()
        ap = a[body.parent] if body.parent >= 0 else a_base
        S = body.subspace
        vj = S.scale(qd[i])
        v[i] = X.apply_motion_inv(vp) + vj
        a[i] = X.apply_motion_inv(ap) + S.scale(qdd[i]) + cross_motion(v[i], vj)
        yield i, v[i], a[i]


def rnea(model, q, qd, qdd, gravity=None):
    """Inverse dynamics: generalized forces for configuration (q, qd, qdd).

    Two sweeps: outward velocity/acceleration propagation (gravity as a
    -g base acceleration), inward force accumulation projected onto the
    joint axes.  Returns a list of n joint torques/forces.
    """
    n = model.n
    inertias = _inertias(model, q=q, qd=qd, qdd=qdd)
    g = _as_gravity(gravity)

    xs = local_transforms(model, q)
    f = [None] * n
    for i, v, a in _motion_sweep(model, xs, qd, qdd, g):
        I = inertias[i]
        f[i] = I.times_motion(a) + cross_force(v, I.times_motion(v))

    tau = [None] * n
    for i in range(n - 1, -1, -1):
        body = model.bodies[i]
        tau[i] = body.subspace.dot(f[i])
        if body.parent >= 0:
            f[body.parent] = f[body.parent] + xs[i].apply_force(f[i])
    return tau


def regressor(model, q, qd, qdd, gravity=None):
    """Inverse dynamics as a linear map of the inertial parameters.

    Returns Y with ``Y @ pi`` equal to ``rnea(model.with_inertias(inertias),
    q, qd, qdd, gravity)`` (up to rounding), where ``pi`` stacks
    ``I.params()`` of every body's inertia in body order (10 per body).  For a
    batched state of shape ``batch`` the result has shape ``batch + (n, 10 n)``.

    One outward sweep, shared with ``rnea``.  Joint j's torque from body i's
    force f_i = I a_i + v_i x* I v_i is s_ij . f_i, where s_ij is joint j's
    axis expressed in body i's frame, so the block Y[..., j, 10 i:10 i + 10]
    holds the coefficients of s_ij^T I a_i - (v_i x s_ij)^T I v_i
    (``spatial.inertia_bilinear``; Featherstone 2008, ch. 2).  Every ancestor
    axis is carried one transform down to each body, s_ij = X_i^-1 s_{j,parent},
    with s_ii the body's own axis: motion vectors of one array per entry.
    Blocks of joints that are not body i or an ancestor of it stay zero.
    """
    n = model.n
    _check_len("q", q, n)
    _check_len("qd", qd, n)
    _check_len("qdd", qdd, n)
    g = _as_gravity(gravity)
    batch = np.broadcast_shapes(*(np.shape(x) for x in (*q, *qd, *qdd)))

    xs = local_transforms(model, q)
    Y = np.zeros(batch + (n, 10 * n))
    axes = [None] * n  # axes[i]: {j: s_ij} for joint i and its ancestors
    for i, v, a in _motion_sweep(model, xs, qd, qdd, g):
        body = model.bodies[i]
        axes[i] = {} if body.parent < 0 else \
            {j: xs[i].apply_motion_inv(s) for j, s in axes[body.parent].items()}
        axes[i][i] = body.subspace
        for j, s in axes[i].items():
            terms = zip(inertia_bilinear(s, a), inertia_bilinear(cross_motion(v, s), v))
            for k, (p, r) in enumerate(terms):
                Y[..., j, 10 * i + k] = p - r
    return Y


def gravity_term(model, q, gravity=None):
    """Generalized gravity forces: rnea with zero velocity and acceleration."""
    zero = [0.0] * model.n
    return rnea(model, q, zero, zero, gravity=gravity)


def bias_force(model, q, qd, gravity=None):
    """Coriolis/centripetal plus gravity forces: rnea with zero acceleration."""
    return rnea(model, q, qd, [0.0] * model.n, gravity=gravity)


class _ArticulatedInertia:
    """Symmetric 6x6 inertia-like operator stored as 3x3 blocks [[A, B], [B^T, D]]."""

    __slots__ = ("A", "B", "D")

    def __init__(self, A, B, D):
        self.A = A
        self.B = B
        self.D = D

    @staticmethod
    def from_rigid(I):
        h = I.com.scale(I.mass)
        return _ArticulatedInertia(I.rot_inertia, Mat33.skew(h),
                                   Mat33.identity().scale(I.mass))

    def __add__(self, o):
        return _ArticulatedInertia(self.A + o.A, self.B + o.B, self.D + o.D)

    def apply(self, v):
        return ForceVector(self.A.matvec(v.ang) + self.B.matvec(v.lin),
                           self.B.tmatvec(v.ang) + self.D.matvec(v.lin))

    def minus_rank1(self, U, dinv):
        """self - U U^T / d for a spatial force vector U."""
        tu, fu = U.ang, U.lin
        return _ArticulatedInertia(
            self.A - Mat33.outer(tu, tu).scale(dinv),
            self.B - Mat33.outer(tu, fu).scale(dinv),
            self.D - Mat33.outer(fu, fu).scale(dinv))

    def transform(self, X):
        """Re-express in the parent frame of X (congruence by the motion map)."""
        R, p = X.rot, X.trans
        P = Mat33.skew(p)
        RA = self.A.rotate_sym(R)
        RB = R.matmat(self.B).matmat(R.T())
        RD = self.D.rotate_sym(R)
        RBP = RB.matmat(P)  # P RB^T == -(RB P)^T, as P is skew
        A = RA - RBP - RBP.T() - P.matmat(RD).matmat(P)
        B = RB + P.matmat(RD)
        return _ArticulatedInertia(A, B, RD)


def mass_matrix(model, q):
    """Joint-space mass matrix via the composite-rigid-body recursion.

    Symmetric by construction (one triangle computed, both filled).
    Returns an n x n nested list for every scalar type; ``np.asarray(M)``
    gives the matrix of a float result.
    """
    n = model.n
    inertias = _inertias(model, q=q)

    xs = local_transforms(model, q)
    Ic = [_ArticulatedInertia.from_rigid(I) for I in inertias]
    for i in range(n - 1, 0, -1):
        p = model.bodies[i].parent
        if p >= 0:
            Ic[p] = Ic[p] + Ic[i].transform(xs[i])

    M = [[0.0] * n for _ in range(n)]
    for i, body in enumerate(model.bodies):
        S = body.subspace
        F = Ic[i].apply(S)
        M[i][i] = S.dot(F)
        k = i
        while model.bodies[k].parent >= 0:
            F = xs[k].apply_force(F)
            k = model.bodies[k].parent
            M[i][k] = M[k][i] = model.bodies[k].subspace.dot(F)
    return M


def aba(model, q, qd, tau, gravity=None):
    """Forward dynamics via the articulated-body recursion (three sweeps)."""
    n = model.n
    inertias = _inertias(model, q=q, qd=qd, tau=tau)
    g = _as_gravity(gravity)

    xs = local_transforms(model, q)
    v = [None] * n
    c = [None] * n
    IA = [None] * n
    pA = [None] * n

    for i, body in enumerate(model.bodies):
        vp = v[body.parent] if body.parent >= 0 else MotionVector.zero()
        vj = body.subspace.scale(qd[i])
        v[i] = xs[i].apply_motion_inv(vp) + vj
        c[i] = cross_motion(v[i], vj)
        IA[i] = _ArticulatedInertia.from_rigid(inertias[i])
        pA[i] = cross_force(v[i], inertias[i].times_motion(v[i]))

    U = [None] * n
    dinv = [None] * n
    u = [None] * n
    for i in range(n - 1, -1, -1):
        body = model.bodies[i]
        S = body.subspace
        U[i] = IA[i].apply(S)
        d = S.dot(U[i])
        A, D = IA[i].A, IA[i].D  # a valid d is at most trace(A) + trace(D)
        size = sum(ad.value(x) for x in (A.a, A.e, A.i, D.a, D.e, D.i))
        singular = ad.value(d) <= 1e-12 * abs(size)  # size < 0 on indefinite inertias
        if np.any(singular):
            raise DynamicsError(
                f"singular articulated projection at joint '{body.joint_name}' "
                f"(axis inertia {_first(ad.value(d), singular):.3g}); check link inertias")
        dinv[i] = 1.0 / d
        u[i] = tau[i] - S.dot(pA[i])
        if body.parent >= 0:
            Ia = IA[i].minus_rank1(U[i], dinv[i])
            pa = pA[i] + Ia.apply(c[i]) + U[i].scale(dinv[i] * u[i])
            IA[body.parent] = IA[body.parent] + Ia.transform(xs[i])
            pA[body.parent] = pA[body.parent] + xs[i].apply_force(pa)

    a = [None] * n
    qdd = [None] * n
    a_base = MotionVector(Vec3.zero(), -g)
    for i, body in enumerate(model.bodies):
        ap = a[body.parent] if body.parent >= 0 else a_base
        ai = xs[i].apply_motion_inv(ap) + c[i]
        qdd[i] = dinv[i] * (u[i] - ai.dot(U[i]))
        a[i] = ai + body.subspace.scale(qdd[i])
    return qdd


def _cholesky_solve(M, b, n):
    """Solve M x = b for symmetric positive-definite M (nested-list, generic)."""
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = M[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k]
            if i == j:
                if np.any(ad.value(s) <= 0.0):
                    raise DynamicsError(
                        "mass matrix is not positive definite (invalid inertias?)")
                L[i][i] = ad.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    y = [0.0] * n
    for i in range(n):
        s = b[i]
        for k in range(i):
            s = s - L[i][k] * y[k]
        y[i] = s / L[i][i]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s = s - L[k][i] * x[k]
        x[i] = s / L[i][i]
    return x


def forward_dynamics_cholesky(model, q, qd, tau, gravity=None):
    """Forward dynamics via M(q) qdd = tau - bias: the independent check route."""
    _check_len("tau", tau, model.n)
    return _cholesky_forward(model, mass_matrix(model, q), q, qd, tau, gravity=gravity)


def _cholesky_forward(model, M, q, qd, tau, gravity=None):
    """The solve of ``forward_dynamics_cholesky`` with the mass matrix ``M``
    given, for a caller that already holds it."""
    n = model.n
    h = bias_force(model, q, qd, gravity=gravity)
    rhs = [tau[i] - h[i] for i in range(n)]
    return _cholesky_solve(M, rhs, n)


def potential_energy(model, q, gravity=None):
    """-sum_i m_i g . com_world_i over the moving bodies (zero reference at
    the base origin; mass fixed to the base is a constant and left out)."""
    from .kinematics import world_transforms
    inertias = _inertias(model, q=q)
    g = _as_gravity(gravity)
    world = world_transforms(model, q)
    U = 0.0
    for X, I in zip(world, inertias):
        com_w = X.apply_point(I.com)
        U = U - I.mass * g.dot(com_w)
    return U


def total_energy(model, q, qd, gravity=None):
    """Kinetic plus gravitational potential energy of the whole tree."""
    _check_len("qd", qd, model.n)
    M = mass_matrix(model, q)
    qd = np.asarray(qd, dtype=float)
    kin = 0.5 * float(qd @ np.asarray(M) @ qd)
    return kin + float(potential_energy(model, q, gravity=gravity))


def simulate(model, q0, qd0, torque_fn, dt, steps, gravity=None):
    """Fixed-step RK4 rollout with accelerations from the articulated-body solver.

    ``torque_fn(t, q, qd)`` returns the joint torque vector (may be None for
    passive motion).  Returns a list of (t, q, qd, qdd) with numpy arrays,
    including the initial state.  Each step starts from the ``qdd`` of the
    sample before it, so ``torque_fn`` and the articulated-body solver run
    1 + 4·steps times.  A non-finite state or torque raises
    ``NonFiniteStateError`` ("non-finite initial state", or "non-finite state
    at step i"); ``torque_fn`` never sees a non-finite state.  This is a
    verification tool, not a production simulator: no contacts, no
    constraints.

    The accelerations come from ``aba`` traced once per call into a
    straight-line float kernel (``tracing.trace_kernel``), with ``gravity``
    and the inertias of ``model`` baked in as constants (roll out other
    inertias on ``model.with_inertias(...)``): every result and error is
    ``aba``'s.  Tracing and compiling take 20–40 ms on a 6-DoF arm; each call
    then runs about 6–7x faster than ``aba`` on floats.  The integrator steps
    run on Python floats, with the operations of float64 arrays in the same
    order; only ``torque_fn`` sees numpy arrays, and every returned array is
    a fresh float64 copy.
    """
    if not (dt > 0.0 and isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")

    n = model.n
    # the state and every stage are Python float lists: the same IEEE
    # operations, in the same order, as float64 arrays, at less cost per operation
    q = np.asarray(q0, dtype=float).tolist()
    qd = np.asarray(qd0, dtype=float).tolist()
    zeros = [0.0] * n
    from .tracing import trace_kernel  # on first use: importing robotdyn stays cheap
    accelerations = trace_kernel(lambda *state: aba(model, *state, gravity=gravity), n, n, n)

    def accel(t, q, qd, where):
        # the state is checked before torque_fn sees it, the torque after
        if not (all(map(isfinite, q)) and all(map(isfinite, qd))):
            raise NonFiniteStateError(f"non-finite {where}")
        tau = None if torque_fn is None else torque_fn(t, np.array(q), np.array(qd))
        if tau is None:
            tau = zeros
        elif not np.all(np.isfinite(tau)):
            raise NonFiniteStateError(f"non-finite {where}")
        else:
            tau = np.asarray(tau, dtype=float).tolist()
        qdd = accelerations(q, qd, tau)
        # Python floats, as a float64 array would give them back: numpy scalars
        # in gravity or the inertias make numpy scalars here
        return list(map(float, qdd))

    qdd = accel(0.0, q, qd, "initial state")
    traj = [(0.0, np.array(q), np.array(qd), np.array(qdd))]
    t, half, sixth = 0.0, 0.5 * dt, dt / 6.0
    for step_idx in range(steps):
        where = f"state at step {step_idx}"
        k2q = [v + half * a for v, a in zip(qd, qdd)]
        k2v = accel(t + half, [x + half * v for x, v in zip(q, qd)], k2q, where)
        k3q = [v + half * a for v, a in zip(qd, k2v)]
        k3v = accel(t + half, [x + half * v for x, v in zip(q, k2q)], k3q, where)
        k4q = [v + dt * a for v, a in zip(qd, k3v)]
        k4v = accel(t + dt, [x + dt * v for x, v in zip(q, k3q)], k4q, where)
        q = [x + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
             for x, k1, k2, k3, k4 in zip(q, qd, k2q, k3q, k4q)]
        qd = [v + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
              for v, k1, k2, k3, k4 in zip(qd, qdd, k2v, k3v, k4v)]
        t += dt
        qdd = accel(t, q, qd, where)
        traj.append((t, np.array(q), np.array(qd), np.array(qdd)))
    return traj
