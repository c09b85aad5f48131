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


def _chain(model, frame):
    """Indices of the bodies whose joints move ``frame``, from its body to the base."""
    chain, i = [], frame.body
    while i >= 0:
        chain.append(i)
        i = model.bodies[i].parent
    return chain


def _pose_and_chain(model, frame, qs):
    """The pose of ``frame`` and its chain as one flat list, generic over the
    scalar type of ``qs``: p, R row by row, then the world axis and the world
    origin of each joint that moves the frame, in ``_chain`` order."""
    world = world_transforms(model, qs)
    X = link_transform(world, frame)
    flat = sum(X.rot.rows(), X.trans.tolist())
    for i in _chain(model, frame):
        flat += world[i].rot.matvec(model.bodies[i].axis).tolist() + world[i].trans.tolist()
    return flat


def _columns(model, frame, flat):
    """The geometric Jacobian columns of ``frame``'s chain joints, in ``_chain``
    order, from its ``_pose_and_chain`` list ``flat``, generic over its scalar
    type.

    With p the link position and a, o the world axis and origin of a chain
    joint, its column is (a, a × (p − o)) for a revolute joint and (0, a) for
    a prismatic one, formed entry by entry with the operations of
    ``Vec3.__sub__`` and ``Vec3.cross``, in their order.
    """
    px, py, pz = flat[:3]
    cols = []
    for k, i in enumerate(_chain(model, frame)):
        ax, ay, az, ox, oy, oz = flat[12 + 6 * k:18 + 6 * k]
        if model.bodies[i].joint_type == "prismatic":
            cols.append((0.0, 0.0, 0.0, ax, ay, az))
        else:
            rx, ry, rz = px - ox, py - oy, pz - oz
            cols.append((ax, ay, az, ay * rz - az * ry, az * rx - ax * rz, ax * ry - ay * rx))
    return cols


def _jacobian(model, frame, flat, batch=None):
    """``link_jacobian`` of ``frame`` from its ``_pose_and_chain`` list ``flat``
    at a float configuration or, given the ``batch`` shape, at any scalar type
    by value: the ``_columns`` of its chain joints, zero elsewhere."""
    J = np.zeros((6, model.n) + (batch or ()))
    for i, col in zip(_chain(model, frame), _columns(model, frame, flat)):
        for row, x in enumerate(col):
            J[row, i] = ad.value(x)
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


def _kept_kernel(model, key, f, *sizes):
    """``f(model, *lists)`` compiled by ``tracing.trace_kernel`` on first use
    and kept on ``model`` under ``key``.  The kernel's fallback reaches
    ``model`` through a weak reference, so that a dropped model is freed by
    reference counting."""
    kernels = model._ik_kernels
    if key not in kernels:
        from .tracing import trace_kernel  # on first use: importing robotdyn stays cheap
        owner = weakref.ref(model)
        kernels[key] = trace_kernel(lambda *lists: f(owner(), *lists), *sizes)
    return kernels[key]


def _ik_kernel(model, frame):
    """``_pose_and_chain`` of ``frame``, a kept kernel of ``qs``."""
    return _kept_kernel(model, frame.name, lambda m, qs: _pose_and_chain(m, frame, qs), model.n)


def _gauss_newton_kernel(model, frame, full):
    """``_gauss_newton`` of ``frame`` for a full-pose (``full``) or a
    position-only target, a kept kernel of ``(flat, e)``."""
    return _kept_kernel(model, (frame.name, full),
                        lambda m, flat, e: _gauss_newton(m, frame, flat, e),
                        12 + 6 * len(_chain(model, frame)), 7 if full else 3)


def _error_terms(X, c, target_pos, target_rot):
    """The ``e`` of ``_gauss_newton_system`` at a float configuration, from its
    link pose ``X`` and cosine ``c`` (``_pose_error``): d = p − p*, and for a
    full pose also w = acos(c)/√(1 − c²), or 0 where the clamp on c is
    active, and vex(A − Aᵀ) with A = R*·Rᵀ."""
    e = (X.trans - target_pos).tolist()
    if target_rot is None:
        return e
    A = target_rot.matmat(X.rot.T())
    w = math.acos(c) / math.sqrt(1.0 - c * c) if -_COS_MAX <= c <= _COS_MAX else 0.0
    return e + [w, A.h - A.f, A.c - A.g, A.d - A.b]


def _dot(u, v):
    """Σ u_k·v_k from the first product on: a 0.0 start would fold in a trace."""
    terms = [x * y for x, y in zip(u, v)]
    return sum(terms[1:], terms[0])


def _gauss_newton_system(model, frame, flat, e):
    """The damped Gauss-Newton system (H, g) of ``_pose_loss`` over ``frame``'s
    chain joints, in ``_chain`` order, generic over the scalar type of its
    ``_pose_and_chain`` list ``flat`` and of its ``_error_terms`` ``e``.

    With J the ``_columns``, g is the loss gradient 2·J_linᵀd, minus
    w·J_angᵀvex(A − Aᵀ) for a full pose: joint j turns R at the rate
    dR/dq_j = [ω_j]×R, so c = (tr(RᵀR*) − 1)/2 changes at ½·ω_j·vex(A − Aᵀ)
    and θ² = acos(c)² at −w·ω_j·vex(A − Aᵀ); w is 0 where the clamp on c is
    active, as ``ad.minimum``/``ad.maximum`` make the AD gradient.  H is the
    Gauss-Newton curvature 2·J_linᵀJ_lin (+ 2·J_angᵀJ_ang for a full pose),
    Tikhonov-damped by 1e-6·I, as nested lists.
    """
    cols = _columns(model, frame, flat)
    rows = slice(0, 6) if len(e) == 7 else slice(3, 6)
    g = [2.0 * _dot(col[3:], e[:3]) for col in cols]
    if len(e) == 7:
        g = [gj - e[3] * _dot(col[:3], e[4:]) for gj, col in zip(g, cols)]
    H = [[None] * len(cols) for _ in cols]
    for i, a in enumerate(cols):
        for j in range(i + 1):
            H[i][j] = H[j][i] = 2.0 * _dot(a[rows], cols[j][rows])
        H[i][i] = H[i][i] + 1e-6
    return H, g


def _gauss_newton(model, frame, flat, e):
    """The damped Gauss-Newton direction H⁻¹g of ``_gauss_newton_system``, over
    ``frame``'s chain joints in ``_chain`` order, solved by Cholesky: it raises
    ``DynamicsError`` where the solve rejects H."""
    from .dynamics import _cholesky_solve  # dynamics imports this module
    H, g = _gauss_newton_system(model, frame, flat, e)
    return _cholesky_solve(H, g, len(g))


def inverse_kinematics(model, target, link, q0, max_iters=500, seed=0):
    """IK by damped Gauss-Newton steps, a backtracking line search and limit
    clamping, with random restarts.

    Each iteration takes one damped Gauss-Newton direction and halves the step
    from 1 until the loss drops.  The gradient is analytic
    (``_gauss_newton_system``); reverse-mode AD of ``_pose_loss`` serves only
    as its test oracle.  A search whose 20 halvings all fail, a system that
    the Cholesky solve rejects, or five steps in a row that lower the loss by
    less than 0.1%, restart from the best of five random in-limit
    configurations, and the best iterate is returned.  The result counts the
    ``iterations`` that ran, the ``restarts``, the ``backtracks`` (step
    halvings) and the ``evaluations`` of the pose and its loss.

    Two straight-line float kernels (``tracing.trace_kernel``) do the float
    work: each loss reads the link pose and chain (``_pose_and_chain``) from
    one, and each iteration takes its direction, from the Jacobian columns to
    the solve (``_gauss_newton``), from the other.  They are traced on the
    first solve for a (model, link) and, for the second, target kind, in a
    few ms each for a 6-DoF arm, and kept on the model; every result is the
    generic code's, bit for bit.

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

    from .dynamics import DynamicsError   # dynamics imports this module
    lo, hi = model.joint_limits()
    q = np.minimum(np.maximum(q0, lo), hi)
    rng = None   # built on the first restart: most solves draw nothing
    restarts = backtracks = stagnant = evaluations = 0

    pose_and_chain = _ik_kernel(model, frame)
    gauss_newton = _gauss_newton_kernel(model, frame, target_rot is not None)
    chain, direction = _chain(model, frame), np.zeros(model.n)   # 0 off the chain

    def evaluate(qv):
        nonlocal evaluations
        evaluations += 1
        return _pose_error(pose_and_chain(qv.tolist()), target_pos, target_rot)

    def converged(ev):
        return ev[1] < POS_TOLERANCE and (target_rot is None or ev[2] < ROT_TOLERANCE)

    ev = evaluate(q)
    best = (q, ev)
    for it in range(max_iters + 1):   # ends at the number of iterations that ran
        if it == max_iters or converged(ev):
            break
        # the pose and chain of the iterate's loss feed its Gauss-Newton system
        lowered, s, halvings = False, 1.0, 20
        e = _error_terms(ev[4], ev[5], target_pos, target_rot)
        try:
            direction[chain] = gauss_newton(ev[3], e)
        except DynamicsError:   # the solve rejected H: restart as a failed search does
            halvings = 0
        for _ in range(halvings):   # the first of q - d, q - d/2, ... that lowers the loss
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
