"""Forward kinematics, geometric Jacobians and damped Gauss-Newton IK."""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .spatial import Mat33, SpatialTransform, Vec3, rot_basis_angle


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
    backtracks: int    # step halvings of the line search, summed over iterations
    evaluations: int   # pose evaluations (loss at one configuration)


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
    world = []
    for body, X in zip(model.bodies, local_transforms(model, q)):
        world.append(X if body.parent < 0 else world[body.parent].compose(X))
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
    return _jacobian(model, frame, _pose_and_chain(model, frame, q), batch)


def _pose_and_chain(model, frame, qs):
    """The pose of ``frame`` and its chain as one flat list, generic over the
    scalar type of ``qs``: p, R row by row, then the world axis and the world
    origin of each joint that moves the frame, from its body to the base."""
    world = world_transforms(model, qs)
    X = link_transform(world, frame)
    flat = sum(X.rot.rows(), X.trans.tolist())
    i = frame.body
    while i >= 0:
        flat += world[i].rot.matvec(model.bodies[i].axis).tolist() + world[i].trans.tolist()
        i = model.bodies[i].parent
    return flat


def _jacobian(model, frame, flat, batch=None):
    """``link_jacobian`` of ``frame`` from its ``_pose_and_chain`` list ``flat``
    at a float configuration or, given the ``batch`` shape, at any scalar type
    by value.

    With p the link position and a, o the world axis and origin of a chain
    joint, its column is (a, a × (p − o)) for a revolute joint and (0, a) for
    a prismatic one, formed entry by entry with the operations of
    ``Vec3.__sub__`` and ``Vec3.cross``, in their order.
    """
    J = np.zeros((6, model.n) + (batch or ()))
    px, py, pz = flat[:3]
    i, k = frame.body, 12
    while i >= 0:
        body = model.bodies[i]
        ax, ay, az, ox, oy, oz = flat[k:k + 6]
        if body.joint_type == "prismatic":
            col = (0.0, 0.0, 0.0, ax, ay, az)
        else:
            rx, ry, rz = px - ox, py - oy, pz - oz
            col = (ax, ay, az, ay * rz - az * ry, az * rx - ax * rz, ax * ry - ay * rx)
        if batch is None:
            J[:, i] = col
        else:
            for row, x in enumerate(col):
                J[row, i] = ad.value(x)
        i, k = body.parent, k + 6
    return J


def _check_q(model, q):
    if len(q) != model.n:
        raise ValueError(f"expected {model.n} joint coordinates, got {len(q)}")


# bound on the cosine of the orientation error, so that acos stays differentiable
_COS_MAX = 1.0 - 1e-12
POS_TOLERANCE, ROT_TOLERANCE = 1e-5, 1e-4  # IK convergence: position (m), angle (rad)


def _pose_loss(model, frame, qs, target_pos, target_rot):
    """IK loss of ``qs`` as ``(loss, position error, orientation error θ, pose
    and chain list, link pose, c)``, generic over the scalar type of ``qs``.  θ
    is the angle of ``RᵀR*`` and c its unclamped cosine; 0 and 1 if position-only."""
    return _pose_error(_pose_and_chain(model, frame, qs), target_pos, target_rot)


def _pose_error(flat, target_pos, target_rot):
    """``_pose_loss`` from the ``_pose_and_chain`` list ``flat``."""
    X = SpatialTransform(Mat33(*flat[3:12]), Vec3(*flat[:3]))
    d = X.trans - target_pos
    pos_sq = d.dot(d)
    if target_rot is None:
        return pos_sq, ad.sqrt(pos_sq), 0.0, flat, X, 1.0
    c = (X.rot.T().matmat(target_rot).trace() - 1.0) * 0.5
    theta = ad.acos(ad.minimum(ad.maximum(c, -_COS_MAX), _COS_MAX))
    return pos_sq + theta * theta, ad.sqrt(pos_sq), theta, flat, X, c


def _ik_kernel(model, frame):
    """``_pose_and_chain`` of ``frame``, a function of ``qs`` compiled by
    ``tracing.trace_kernel`` on first use and kept on ``model``.  The kernel's
    fallback reaches ``model`` through a weak reference, so that a dropped
    model is freed by reference counting."""
    kernels = model._ik_kernels
    if frame.name not in kernels:
        from .tracing import trace_kernel  # on first use: importing robotdyn stays cheap
        owner = weakref.ref(model)
        kernels[frame.name] = trace_kernel(lambda qs: _pose_and_chain(owner(), frame, qs),
                                           model.n)
    return kernels[frame.name]


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
    """IK by damped Gauss-Newton steps, a backtracking line search and limit
    clamping, with random restarts.

    Each iteration takes one damped Gauss-Newton direction and halves the step
    from 1 until the loss drops.  The gradient is analytic
    (``_pose_gradient``); reverse-mode AD of ``_pose_loss`` serves only as its
    test oracle.  A search whose 20 halvings all fail, or five steps in a row
    that lower the loss by less than 0.1%, restart from the best of five
    random in-limit configurations, and the best iterate is returned.  The
    result counts the ``iterations`` that ran, the ``restarts``, the
    ``backtracks`` (step halvings) and the ``evaluations`` of the pose and its
    loss.

    Each loss and Jacobian read the link pose and chain (``_pose_and_chain``)
    from a straight-line float kernel (``tracing.trace_kernel``), traced on the
    first solve for a (model, link), in a few ms for a 6-DoF arm, and kept on
    the model; every result is the generic code's, bit for bit.

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
    q = np.minimum(np.maximum(q0, lo), hi)
    damping = 1e-6 * np.eye(model.n)
    rng = None   # built on the first restart: most solves draw nothing
    restarts = backtracks = stagnant = evaluations = 0

    pose_and_chain = _ik_kernel(model, frame)

    def evaluate(qv):
        nonlocal evaluations
        evaluations += 1
        return _pose_error(pose_and_chain(qv.tolist()), target_pos, target_rot)

    def converged(ev):
        return ev[1] < POS_TOLERANCE and (target_rot is None or ev[2] < ROT_TOLERANCE)

    def newton_direction(J, grad):
        # Gauss-Newton curvature of the squared-error loss from the geometric
        # Jacobian, Tikhonov-damped so the solve is always well posed.
        H = 2.0 * (J[3:6].T @ J[3:6])
        if target_rot is not None:
            H += 2.0 * (J[0:3].T @ J[0:3])
        return np.linalg.solve(H + damping, grad)

    ev = evaluate(q)
    best = (q, ev)
    for it in range(max_iters + 1):   # ends at the number of iterations that ran
        if it == max_iters or converged(ev):
            break
        # the pose and chain of the iterate's loss feed its Jacobian and gradient
        J = _jacobian(model, frame, ev[3])
        grad = _pose_gradient(ev[4], ev[5], J, target_pos, target_rot)
        direction, s = newton_direction(J, grad), 1.0
        for _ in range(20):   # the first of q - d, q - d/2, ... that lowers the loss
            q_trial = np.minimum(np.maximum(q - s * direction, lo), hi)
            trial = evaluate(q_trial)
            lowered = trial[0] < ev[0]
            if lowered:
                break
            s *= 0.5
            backtracks += 1
        if lowered:
            stagnant = stagnant + 1 if ev[0] - trial[0] < 1e-3 * (trial[0] + 1e-30) else 0
            q, ev = q_trial, trial
            if ev[0] < best[1][0]:
                best = (q, ev)
        if not lowered or stagnant >= 5:
            # Stalled or grinding at a limit-constrained local minimum:
            # restart from the best of a few random in-limit configurations,
            # keeping the best iterate found so far.
            restarts += 1
            rng = rng or random.Random(seed)
            box = list(zip(np.maximum(lo, -2.0 * np.pi), np.minimum(hi, 2.0 * np.pi)))
            cands = [np.array([rng.uniform(a, b) for a, b in box]) for _ in range(5)]
            q, ev = min(((c, evaluate(c)) for c in cands), key=lambda c: c[1][0])
            stagnant = 0

    if ev[0] < best[1][0]:
        best = (q, ev)
    q, ev = best
    return IKResult(q=q, converged=bool(converged(ev)), residual=max(ev[1], ev[2]),
                    iterations=it, restarts=restarts, backtracks=backtracks,
                    evaluations=evaluations)
