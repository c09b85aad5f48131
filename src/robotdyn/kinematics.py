"""Forward kinematics, geometric Jacobians and damped Gauss-Newton IK."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .spatial import Mat33, MotionVector, SpatialTransform, Vec3, rot_basis_angle


class Pose:
    """Pose of a link frame in the base frame."""

    __slots__ = ("rotation", "position")

    def __init__(self, rotation, position):
        self.rotation = rotation
        self.position = position

    def __repr__(self):
        return f"Pose({self.rotation}, {self.position})"


@dataclass
class IKResult:
    q: np.ndarray
    converged: bool
    residual: float
    iterations: int
    restarts: int      # random-restart rounds
    backtracks: int    # step halvings, summed over both line searches


def local_transforms(model, q):
    """Per-body pose of the body frame in its parent frame (origin then joint).

    A revolute or continuous joint only rotates, so its body frame keeps the
    translation of the joint origin; its rotation is built from the body's
    ``basis``, and an origin rotation of exactly E is skipped (no entry is -0.0).
    """
    xs = []
    for body, qj in zip(model.bodies, q):
        origin = body.origin
        if body.joint_type == "prismatic":
            xs.append(origin.compose(SpatialTransform(Mat33.identity(), body.axis.scale(qj))))
        else:
            R = rot_basis_angle(body.basis, qj)
            xs.append(SpatialTransform(R if body.origin_is_identity else origin.rot.matmat(R),
                                       origin.trans))
    return xs


def world_transforms(model, q):
    """Per-body pose of the body frame in the base frame."""
    local = local_transforms(model, q)
    world = []
    for i, body in enumerate(model.bodies):
        if body.parent < 0:
            world.append(local[i])
        else:
            world.append(world[body.parent].compose(local[i]))
    return world


def link_transform(world, link):
    """Pose of a ``Link`` frame in the base frame, given the body world poses."""
    X = world[link.body] if link.body >= 0 else SpatialTransform.identity()
    return X if link.offset is None else X.compose(link.offset)


def forward_kinematics(model, q):
    """Pose of every link frame in the base frame, keyed by link name."""
    _check_q(model, q)
    world = world_transforms(model, q)
    xs = [link_transform(world, link) for link in model.links]
    return {link.name: Pose(X.rot, X.trans) for link, X in zip(model.links, xs)}


def link_jacobian(model, q, link):
    """Geometric Jacobian of a link frame: rows 0-2 angular, 3-5 linear,
    base-frame coordinates, reference point at the link frame origin.

    A batch of configurations (``q`` of equal-shape numpy arrays) gives an
    array of shape ``(6, n, *batch)``.
    """
    _check_q(model, q)
    frame = model.link(link)
    batch = np.broadcast_shapes(*(np.shape(ad.value(x)) for x in q))
    return _jacobian(model, world_transforms(model, q), frame, batch)


def _jacobian(model, world, frame, batch=None, X=None):
    """``link_jacobian`` of ``frame`` from the body world poses ``world`` of a
    float configuration or, given the ``batch`` shape, of any scalar type by
    value.  ``X`` is the frame's pose, if it is already known."""
    p_link = (link_transform(world, frame) if X is None else X).trans
    J = np.zeros((6, model.n) + (batch or ()))
    i = frame.body
    while i >= 0:
        body = model.bodies[i]
        axis_w = world[i].rot.matvec(body.axis)
        if body.joint_type == "prismatic":
            col = MotionVector(Vec3.zero(), axis_w)
        else:
            col = MotionVector(axis_w, axis_w.cross(p_link - world[i].trans))
        if batch is None:
            J[:, i] = col.tolist()
        else:
            for row, x in enumerate(col.tolist()):
                J[row, i] = ad.value(x)
        i = body.parent
    return J


def _check_q(model, q):
    if len(q) != model.n:
        raise ValueError(f"expected {model.n} joint coordinates, got {len(q)}")


# bound on the cosine of the orientation error, so that acos stays differentiable
_COS_MAX = 1.0 - 1e-12
POS_TOLERANCE, ROT_TOLERANCE = 1e-5, 1e-4  # IK convergence: position (m), angle (rad)
_STEP = 0.1  # first step length of the gradient fallback


def _pose_loss(model, frame, qs, target_pos, target_rot):
    """IK loss of ``qs`` as ``(loss, position error, orientation error θ, body
    world poses, link pose, c)``, generic over the scalar type of ``qs``.  θ is
    the angle of ``RᵀR*`` and c its unclamped cosine; 0 and 1 if position-only."""
    world = world_transforms(model, qs)
    X = link_transform(world, frame)
    d = X.trans - target_pos
    pos_sq = d.dot(d)
    if target_rot is None:
        return pos_sq, ad.sqrt(pos_sq), 0.0, world, X, 1.0
    c = (X.rot.T().matmat(target_rot).trace() - 1.0) * 0.5
    theta = ad.acos(ad.minimum(ad.maximum(c, -_COS_MAX), _COS_MAX))
    return pos_sq + theta * theta, ad.sqrt(pos_sq), theta, world, X, c


def _pose_gradient(X, c, J, target_pos, target_rot):
    """Gradient of ``_pose_loss`` at a float configuration, in closed form from
    its link pose ``X`` and cosine ``c``, and the geometric Jacobian ``J``.

    The position term is 2·J_linᵀ(p − p*).  Joint j turns R at the rate
    dR/dq_j = [ω_j]×R, so c = (tr(RᵀR*) − 1)/2 changes at ½·ω_j·vex(A − Aᵀ)
    with A = R*·Rᵀ, and θ² = acos(c)² contributes
    −θ/√(1 − c²)·J_angᵀ·vex(A − Aᵀ).  That term is zero where the clamp on c
    is active, as ``ad.minimum``/``ad.maximum`` make the AD gradient.
    """
    grad = 2.0 * (J[3:6].T @ np.array((X.trans - target_pos).tolist()))
    if -_COS_MAX <= c <= _COS_MAX:   # c is 1 for a position-only target
        A = target_rot.matmat(X.rot.T())
        vex = np.array([A.h - A.f, A.c - A.g, A.d - A.b])
        grad -= math.acos(c) / math.sqrt(1.0 - c * c) * (J[0:3].T @ vex)
    return grad


def inverse_kinematics(model, target, link, q0, max_iters=500, seed=0):
    """IK by damped Gauss-Newton steps, with gradient descent as the fallback,
    backtracking line searches and limit clamping.

    One ``search`` halves the step until the loss drops: from 1 along the
    Gauss-Newton direction, else along the gradient from a persistent step
    that grows ×1.5 after each accepted gradient step.  The gradient is
    analytic (``_pose_gradient``); reverse-mode AD of ``_pose_loss`` serves
    only as its test oracle.  A stall restarts from the best of five random
    in-limit configurations, and the best iterate is returned.

    ``target`` is a Pose (full-pose IK) or a Vec3 (position only).  A solve
    converges when the position error is below ``POS_TOLERANCE`` and, for a
    Pose, the orientation error below ``ROT_TOLERANCE``.  Joint limits are
    enforced by projection after every step.  Non-convergence is reported
    through the returned flag, never as an exception.  ``ValueError`` names a
    non-finite entry of ``q0`` or of the target, or ``max_iters < 0``.
    """
    frame = model.link(link)
    _check_q(model, q0)
    target_rot = target.rotation if isinstance(target, Pose) else None
    target_pos = target.position if isinstance(target, Pose) else target
    if not isinstance(target_pos, Vec3):
        target_pos = Vec3.fromlist(list(target_pos))
    q0 = np.asarray(q0, dtype=float)
    for ok, message in (
            (all(map(math.isfinite, target_pos.tolist())), "target position must be finite"),
            (target_rot is None or all(map(math.isfinite, sum(target_rot.rows(), []))),
             "target rotation must be finite"),
            (np.isfinite(q0).all(), "q0 must be finite"),
            (max_iters >= 0, "max_iters must be >= 0")):
        if not ok:
            raise ValueError(message)

    lo, hi = model.joint_limits()
    lo_s = np.maximum(lo, -2.0 * np.pi)
    hi_s = np.minimum(hi, 2.0 * np.pi)
    q = np.minimum(np.maximum(q0, lo), hi)
    damping = 1e-6 * np.eye(model.n)
    rng = random.Random(seed)
    perturbed = False
    step = _STEP
    restarts = backtracks = stagnant = 0

    def evaluate(qv):
        return _pose_loss(model, frame, qv.tolist(), target_pos, target_rot)

    def converged(ev):
        return ev[1] < POS_TOLERANCE and (target_rot is None or ev[2] < ROT_TOLERANCE)

    def newton_direction(J, grad):
        # Gauss-Newton curvature of the squared-error loss from the geometric
        # Jacobian, Tikhonov-damped so the solve is always well posed.
        H = 2.0 * (J[3:6].T @ J[3:6])
        if target_rot is not None:
            H += 2.0 * (J[0:3].T @ J[0:3])
        return np.linalg.solve(H + damping, grad)

    def search(q, ev, direction, s):
        # the first of q - s·direction, q - s/2·direction, ... (20 tries) that
        # lowers the loss, as (q, evaluation, s); None if none does
        nonlocal backtracks
        for _ in range(20):
            q_trial = np.minimum(np.maximum(q - s * direction, lo), hi)
            trial = evaluate(q_trial)
            if trial[0] < ev[0]:
                return q_trial, trial, s
            s *= 0.5
            backtracks += 1
        return None

    ev = evaluate(q)
    best = (q, ev)
    for it in range(max_iters + 1):   # ends at the number of iterations that ran
        if it == max_iters or converged(ev):
            break
        if target_rot is not None and ev[2] > np.pi - 1e-3 and not perturbed:
            # orientation error at the antipode: nudge once to leave the stall
            q = np.minimum(np.maximum(q + np.array([1e-3 * (2.0 * rng.random() - 1.0)
                                                    for _ in range(model.n)]), lo), hi)
            ev = evaluate(q)
            perturbed = True
            continue
        # the world and link poses of the iterate's loss feed its Jacobian and gradient
        J = _jacobian(model, ev[3], frame, X=ev[4])
        grad = _pose_gradient(ev[4], ev[5], J, target_pos, target_rot)
        found = search(q, ev, newton_direction(J, grad), 1.0)
        if found is None:
            found = search(q, ev, grad, step)
            if found is not None:
                step = min(found[2] * 1.5, 1e3 * _STEP)
        if found is not None:
            loss_before = ev[0]
            q, ev, _ = found
            if ev[0] < best[1][0]:
                best = (q, ev)
            stagnant = stagnant + 1 if loss_before - ev[0] < 1e-3 * (ev[0] + 1e-30) else 0
        if found is None or stagnant >= 5:
            # Stalled or grinding at a limit-constrained local minimum:
            # restart from the best of a few random in-limit configurations,
            # keeping the best iterate found so far.
            restarts += 1
            cands = [np.array([rng.uniform(a, b) for a, b in zip(lo_s, hi_s)])
                     for _ in range(5)]
            q, ev = min(((c, evaluate(c)) for c in cands), key=lambda c: c[1][0])
            step = _STEP
            stagnant = 0
            perturbed = False

    if ev[0] < best[1][0]:
        best = (q, ev)
    q, ev = best
    return IKResult(q=q, converged=bool(converged(ev)), residual=max(ev[1], ev[2]),
                    iterations=it, restarts=restarts, backtracks=backtracks)
