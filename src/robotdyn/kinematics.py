"""Forward kinematics, geometric Jacobians and gradient-descent IK."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .spatial import Mat33, MotionVector, SpatialTransform, Vec3, rot_axis_angle


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
    translation of the joint origin.
    """
    xs = []
    for body, qj in zip(model.bodies, q):
        origin = body.origin
        if body.joint_type == "prismatic":
            xs.append(origin.compose(SpatialTransform(Mat33.identity(), body.axis.scale(qj))))
        else:
            xs.append(SpatialTransform(origin.rot.matmat(rot_axis_angle(body.axis, qj)),
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


def _jacobian(model, world, frame, batch=()):
    """``link_jacobian`` of ``frame`` from the body world poses ``world`` of a
    configuration, or of a batch of configurations of shape ``batch``."""
    p_link = link_transform(world, frame).trans
    J = np.zeros((6, model.n) + batch)
    i = frame.body
    while i >= 0:
        body = model.bodies[i]
        axis_w = world[i].rot.matvec(body.axis)
        if body.joint_type == "prismatic":
            col = MotionVector(Vec3.zero(), axis_w)
        else:
            col = MotionVector(axis_w, axis_w.cross(p_link - world[i].trans))
        for row, x in enumerate(col.tolist()):
            J[row, i] = ad.value(x)
        i = body.parent
    return J


def _check_q(model, q):
    if len(q) != model.n:
        raise ValueError(f"expected {model.n} joint coordinates, got {len(q)}")


# bound on the cosine of the orientation error, so that acos stays differentiable
_COS_MAX = 1.0 - 1e-12


def _pose_loss(model, frame, qs, target_pos, target_rot):
    """Loss pieces for IK, and the body world poses they come from; generic
    over the scalar type of qs."""
    world = world_transforms(model, qs)
    X = link_transform(world, frame)
    d = X.trans - target_pos
    pos_sq = d.dot(d)
    loss = pos_sq
    cos_theta = None
    if target_rot is not None:
        rel = X.rot.T().matmat(target_rot)
        c = (rel.trace() - 1.0) * 0.5
        cos_theta = ad.minimum(ad.maximum(c, -_COS_MAX), _COS_MAX)
        theta = ad.acos(cos_theta)
        loss = loss + theta * theta
    return loss, pos_sq, cos_theta, world


def _pose_gradient(X, J, target_pos, target_rot):
    """Gradient of ``_pose_loss`` at a float configuration, in closed form from
    the link pose ``X`` and its geometric Jacobian ``J``.

    The position term is 2·J_linᵀ(p − p*).  Joint j turns R at the rate
    dR/dq_j = [ω_j]×R, so c = (tr(RᵀR*) − 1)/2 changes at ½·ω_j·vex(A − Aᵀ)
    with A = R*·Rᵀ, and θ² = acos(c)² contributes
    −θ/√(1 − c²)·J_angᵀ·vex(A − Aᵀ).  That term is zero where the clamp on c
    is active, as ``ad.minimum``/``ad.maximum`` make the AD gradient.
    """
    grad = 2.0 * (J[3:6].T @ np.array((X.trans - target_pos).tolist()))
    if target_rot is not None:
        c = (X.rot.T().matmat(target_rot).trace() - 1.0) * 0.5
        if -_COS_MAX <= c <= _COS_MAX:
            A = target_rot.matmat(X.rot.T())
            vex = np.array([A.h - A.f, A.c - A.g, A.d - A.b])
            grad -= math.acos(c) / math.sqrt(1.0 - c * c) * (J[0:3].T @ vex)
    return grad


def inverse_kinematics(model, target, link, q0, max_iters=500, step_size=0.1,
                       pos_tolerance=1e-5, rot_tolerance=1e-4,
                       position_only=None, seed=0):
    """IK by damped Gauss-Newton steps, with gradient descent as the fallback,
    backtracking line searches and limit clamping.

    The gradient of the pose loss is analytic, from the geometric Jacobian of
    the link (``_pose_gradient``); reverse-mode AD of ``_pose_loss`` serves
    only as its test oracle.

    ``target`` is a Pose (full-pose IK) or a Vec3 (position only).  Joint
    limits are enforced by projection after every step.  Non-convergence is
    reported through the returned flag, never as an exception.
    """
    frame = model.link(link)
    _check_q(model, q0)
    if isinstance(target, Pose):
        target_pos, target_rot = target.position, target.rotation
        if position_only:
            target_rot = None
    elif isinstance(target, Vec3):
        target_pos, target_rot = target, None
    else:
        target_pos, target_rot = Vec3.fromlist(list(target)), None

    lo, hi = model.joint_limits()
    lo_s = np.maximum(lo, -2.0 * np.pi)
    hi_s = np.minimum(hi, 2.0 * np.pi)
    q = np.clip(np.asarray(q0, dtype=float), lo, hi)
    rng = random.Random(seed)
    perturbed = False
    step = step_size

    def eval_float(qv):
        # the world poses come along, so that an accepted iterate reuses them
        loss, pos_sq, cos_t, world = _pose_loss(model, frame, list(qv), target_pos,
                                                target_rot)
        ang = math.acos(cos_t) if cos_t is not None else 0.0
        return float(loss), float(np.sqrt(pos_sq)), float(ang), world

    def newton_direction(J, grad):
        # Gauss-Newton curvature of the squared-error loss from the geometric
        # Jacobian, Tikhonov-damped so the solve is always well posed.
        H = 2.0 * (J[3:6].T @ J[3:6])
        if target_rot is not None:
            H += 2.0 * (J[0:3].T @ J[0:3])
        return np.linalg.solve(H + 1e-6 * np.eye(model.n), grad)

    loss, pos_err, ang_err, world = eval_float(q)
    best_q, best = q.copy(), (loss, pos_err, ang_err)
    stagnant = 0
    restarts = backtracks = 0
    it = 0
    for it in range(max_iters):
        done_pos = pos_err < pos_tolerance
        done_rot = target_rot is None or ang_err < rot_tolerance
        if done_pos and done_rot:
            break
        if target_rot is not None and ang_err > np.pi - 1e-3 and not perturbed:
            # orientation error at the antipode: nudge once to leave the stall
            q = np.clip(q + np.array([1e-3 * (2.0 * rng.random() - 1.0)
                                      for _ in range(model.n)]), lo, hi)
            loss, pos_err, ang_err, world = eval_float(q)
            perturbed = True
            continue
        # the forward kinematics of the iterate's loss feed its Jacobian and gradient
        J = _jacobian(model, world, frame)
        grad = _pose_gradient(link_transform(world, frame), J, target_pos, target_rot)
        accepted = False
        loss_before = loss
        # Preferred direction: damped Gauss-Newton.  Fallback: raw gradient.
        # Both use the same backtracking rule (halve until the loss decreases).
        s = 1.0
        direction = newton_direction(J, grad)
        for _ in range(20):
            q_trial = np.clip(q - s * direction, lo, hi)
            trial = eval_float(q_trial)
            if trial[0] < loss:
                q = q_trial
                loss, pos_err, ang_err, world = trial
                accepted = True
                break
            s *= 0.5
            backtracks += 1
        if not accepted:
            for _ in range(20):
                q_trial = np.clip(q - step * grad, lo, hi)
                trial = eval_float(q_trial)
                if trial[0] < loss:
                    q = q_trial
                    loss, pos_err, ang_err, world = trial
                    step = min(step * 1.5, 1e3 * step_size)
                    accepted = True
                    break
                step *= 0.5
                backtracks += 1
        if accepted:
            if loss < best[0]:
                best_q, best = q.copy(), (loss, pos_err, ang_err)
            if loss_before - loss < 1e-3 * (loss + 1e-30):
                stagnant += 1
            else:
                stagnant = 0
        if not accepted or stagnant >= 5:
            # Stalled or grinding at a limit-constrained local minimum:
            # restart from the best of a few random in-limit configurations,
            # keeping the best iterate found so far.
            restarts += 1
            best_cand = None
            for _ in range(5):
                cand = np.array([rng.uniform(lo_s[j], hi_s[j])
                                 for j in range(model.n)])
                trial = eval_float(cand)
                if best_cand is None or trial[0] < best_cand[1][0]:
                    best_cand = (cand, trial)
            q = best_cand[0]
            loss, pos_err, ang_err, world = best_cand[1]
            step = step_size
            stagnant = 0
            perturbed = False

    if loss < best[0]:
        best_q, best = q.copy(), (loss, pos_err, ang_err)
    loss, pos_err, ang_err = best
    done_pos = pos_err < pos_tolerance
    done_rot = target_rot is None or ang_err < rot_tolerance
    residual = pos_err if target_rot is None else max(pos_err, ang_err)
    return IKResult(q=best_q, converged=bool(done_pos and done_rot),
                    residual=residual, iterations=it, restarts=restarts,
                    backtracks=backtracks)
