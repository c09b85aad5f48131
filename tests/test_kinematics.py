"""Forward kinematics, geometric Jacobians, and gradient IK."""

import math

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn import kinematics
from robotdyn.dynamics import aba
from robotdyn.kinematics import (
    _COS_MAX,
    Pose,
    _jacobian,
    _pose_gradient,
    _pose_loss,
    forward_kinematics,
    inverse_kinematics,
    link_jacobian,
    local_transforms,
    world_transforms,
)
from robotdyn.spatial import Mat33, SpatialTransform, Vec3, rot_axis_angle
from robotdyn.tracing import trace_kernel
from conftest import random_state, urdf_text


def two_link_fk_oracle(q1, q2):
    """Closed-form planar chain with unit link lengths."""
    return (np.cos(q1) + np.cos(q1 + q2), np.sin(q1) + np.sin(q1 + q2), 0.0)


def rot_log_fd(model, q, link, j, step=1e-6):
    """Angular velocity column of joint j by finite-differencing the rotation."""
    qp, qm = list(q), list(q)
    qp[j] += step
    qm[j] -= step
    Rp = np.array(forward_kinematics(model, qp)[link].rotation.rows())
    Rm = np.array(forward_kinematics(model, qm)[link].rotation.rows())
    R0 = np.array(forward_kinematics(model, list(q))[link].rotation.rows())
    W = ((Rp - Rm) / (2 * step)) @ R0.T
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def pos_fd(model, q, link, j, step=1e-6):
    qp, qm = list(q), list(q)
    qp[j] += step
    qm[j] -= step
    pp = np.array(forward_kinematics(model, qp)[link].position.values())
    pm = np.array(forward_kinematics(model, qm)[link].position.values())
    return (pp - pm) / (2 * step)


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_pendulum_zero_articulation(pendulum):
    poses = forward_kinematics(pendulum, [0.0])
    # joint origin is at the base origin in this fixture
    np.testing.assert_allclose(poses["bob"].position.values(), [0, 0, 0],
                               atol=1e-15)
    np.testing.assert_allclose(np.array(poses["bob"].rotation.rows()),
                               np.eye(3), atol=1e-15)


def test_fk_two_link_straight(two_link):
    p = forward_kinematics(two_link, [0.0, 0.0])["tool"].position
    np.testing.assert_allclose(p.values(), [2, 0, 0], atol=1e-14)


def test_fk_two_link_elbow_bent(two_link):
    p = forward_kinematics(two_link, [np.pi / 2, -np.pi / 2])["tool"].position
    np.testing.assert_allclose(p.values(), [1, 1, 0], atol=1e-14)


def test_fk_two_link_matches_closed_form_at_random_q(two_link):
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, size=2)
        p = forward_kinematics(two_link, list(q))["tool"].position
        np.testing.assert_allclose(p.values(), two_link_fk_oracle(*q),
                                   atol=1e-12)


def test_fk_returns_all_links(six_dof):
    poses = forward_kinematics(six_dof, [0.0] * 6)
    assert set(poses) == set(six_dof.link_names())
    for pose in poses.values():
        R = np.array(pose.rotation.rows())
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)


def test_fk_wrong_q_length_raises(two_link):
    with pytest.raises(ValueError):
        forward_kinematics(two_link, [0.0])


# ---------------------------------------------------------------------------
# Jacobian


def test_jacobian_pendulum_column(pendulum):
    # Revolute about y with the bob 1 m along x: omega = y, v = y x x ... at
    # q=0 the bob frame sits at the origin, so the linear part vanishes.
    J = link_jacobian(pendulum, [0.0], "bob")
    np.testing.assert_allclose(J[:, 0], [0, 1, 0, 0, 0, 0], atol=1e-14)


def test_jacobian_two_link_straight(two_link):
    J = link_jacobian(two_link, [0.0, 0.0], "tool")
    # z-axis revolute joints; lever arms 2 and 1 along x give +y velocities
    np.testing.assert_allclose(J[:, 0], [0, 0, 1, 0, 2, 0], atol=1e-14)
    np.testing.assert_allclose(J[:, 1], [0, 0, 1, 0, 1, 0], atol=1e-14)


def test_jacobian_off_path_columns_are_zero(six_dof):
    rng = np.random.default_rng(1)
    q = list(rng.uniform(-1, 1, size=6))
    J = link_jacobian(six_dof, q, "link2")
    # link2 is moved only by joints 1 and 2
    np.testing.assert_allclose(J[:, 2:], 0.0, atol=1e-15)


def test_jacobian_matches_finite_difference(two_link, six_dof):
    rng = np.random.default_rng(2)
    for model, link in ((two_link, "tool"), (six_dof, "tool")):
        for _ in range(5):
            q = rng.uniform(-np.pi, np.pi, size=model.n)
            J = link_jacobian(model, list(q), link)
            for j in range(model.n):
                np.testing.assert_allclose(J[3:6, j], pos_fd(model, q, link, j),
                                           atol=1e-6)
                np.testing.assert_allclose(J[0:3, j],
                                           rot_log_fd(model, q, link, j),
                                           atol=1e-6)


def test_jacobian_of_a_batch_stacks_per_sample_jacobians(six_dof):
    rng = np.random.default_rng(8)
    qs = rng.uniform(-np.pi, np.pi, size=(6, 5))
    J = link_jacobian(six_dof, list(qs), "tool")
    assert J.shape == (6, 6, 5)
    for s in range(5):
        assert J[:, :, s].tobytes() == link_jacobian(six_dof, list(qs[:, s]), "tool").tobytes()


def test_jacobian_shape_and_unknown_link(two_link):
    assert link_jacobian(two_link, [0.1, 0.2], "link1").shape == (6, 2)
    with pytest.raises(KeyError):
        link_jacobian(two_link, [0.1, 0.2], "nope")


# ---------------------------------------------------------------------------
# inverse kinematics


def ik_gradients(model, link, q, target_pos, target_rot):
    """The analytic IK gradient at ``q`` and its oracle, reverse-mode AD of
    the pose loss."""
    frame = model.link(link)
    ev = _pose_loss(model, frame, list(q), target_pos, target_rot)
    g = _pose_gradient(ev[4], ev[5], _jacobian(model, ev[3], frame), target_pos, target_rot)
    g_ad = ad.gradient(lambda qs: _pose_loss(model, frame, qs, target_pos, target_rot)[0],
                       list(q))
    return g, np.array(g_ad)


def assert_ik_gradient_matches_ad(model, link, q, target):
    """Full-pose and position-only gradients equal AD to 1e-12 relative."""
    for target_rot in (target.rotation, None):
        g, g_ad = ik_gradients(model, link, q, target.position, target_rot)
        err = np.max(np.abs(g - g_ad), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(g_ad), initial=0.0), (link, target_rot, err)


@pytest.mark.parametrize("name", ["two_link_planar", "six_dof_arm"])
def test_ik_gradient_equals_ad_gradient(name):
    model = rd.load_model(rd.fixture_path(name))
    rng = np.random.default_rng(4)
    for _ in range(50):
        target = forward_kinematics(model, list(rng.uniform(-np.pi, np.pi, model.n)))["tool"]
        assert_ik_gradient_matches_ad(model, "tool", rng.uniform(-np.pi, np.pi, model.n),
                                      target)


def test_ik_gradient_orientation_term_is_zero_where_the_clamp_is_active(six_dof):
    rng = np.random.default_rng(6)
    q = rng.uniform(-np.pi, np.pi, 6)
    pose = forward_kinematics(six_dof, list(q))["tool"]
    target_pos = pose.position + rd.Vec3(0.1, -0.2, 0.05)
    c = (pose.rotation.T().matmat(pose.rotation).trace() - 1.0) * 0.5
    assert c > _COS_MAX
    full, full_ad = ik_gradients(six_dof, "tool", q, target_pos, pose.rotation)
    pos_only, _ = ik_gradients(six_dof, "tool", q, target_pos, None)
    assert np.any(pos_only != 0.0)
    assert full.tobytes() == pos_only.tobytes()
    np.testing.assert_allclose(full, full_ad, rtol=0, atol=1e-12 * np.max(np.abs(full_ad)))


def test_ik_fixed_point_returns_immediately(two_link):
    q0 = [0.3, -0.7]
    target = forward_kinematics(two_link, q0)["tool"]
    res = inverse_kinematics(two_link, target, "tool", q0=q0)
    assert res.converged
    assert res.iterations == 0
    assert (res.restarts, res.backtracks) == (0, 0)
    np.testing.assert_allclose(res.q, q0, atol=1e-12)
    # the orientation-error acos clamp leaves a ~1e-6 residual floor
    assert res.residual < 1e-5


def test_ik_nudges_once_off_an_orientation_antipode(six_dof):
    # the target is the start turned by pi about the last joint: the
    # orientation error starts at the antipode, where the solver nudges q
    q0 = [-1.0] * 6
    q_target = q0[:5] + [q0[5] + np.pi]
    target = forward_kinematics(six_dof, q_target)["tool"]
    start = _pose_loss(six_dof, six_dof.link("tool"), q0, target.position, target.rotation)
    assert start[2] > np.pi - 1e-3
    res = inverse_kinematics(six_dof, target, "tool", q0=q0)
    assert res.converged and res.restarts == 0
    # the orientation-error acos clamp leaves a ~1e-6 residual floor
    assert res.residual < 1e-5
    got = forward_kinematics(six_dof, list(res.q))["tool"]
    np.testing.assert_allclose(got.position.values(), target.position.values(), atol=1e-5)


def test_ik_two_link_position_target(two_link):
    res = inverse_kinematics(two_link, Vec3(1.0, 1.0, 0.0), "tool",
                             q0=[0.1, 0.1])
    assert res.converged
    p = forward_kinematics(two_link, list(res.q))["tool"].position
    np.testing.assert_allclose(p.values(), [1, 1, 0], atol=1e-4)


def test_ik_unreachable_target_reports_residual(two_link):
    res = inverse_kinematics(two_link, Vec3(3.0, 0.0, 0.0), "tool",
                             q0=[0.3, 0.2])
    assert not res.converged
    # max reach is 2 m, so the best possible distance to (3,0,0) is 1 m
    np.testing.assert_allclose(res.residual, 1.0, atol=1e-3)
    # the solver stalls at full reach, backtracks and restarts
    assert res.restarts > 0 and res.backtracks > 0


def test_ik_respects_joint_limits(six_dof):
    rng = np.random.default_rng(3)
    lo, hi = six_dof.joint_limits()
    target = forward_kinematics(six_dof, list(rng.uniform(-1, 1, size=6)))[
        "tool"].position
    res = inverse_kinematics(six_dof, target, "tool",
                             q0=list(rng.uniform(-1, 1, size=6)), seed=0)
    assert np.all(res.q >= lo - 1e-12) and np.all(res.q <= hi + 1e-12)


def test_ik_full_pose_reachable(two_link):
    q_true = [0.9, -0.4]
    target = forward_kinematics(two_link, q_true)["tool"]
    res = inverse_kinematics(two_link, target, "tool", q0=[0.2, 0.2])
    assert res.converged
    got = forward_kinematics(two_link, list(res.q))["tool"]
    np.testing.assert_allclose(got.position.values(), target.position.values(),
                               atol=1e-4)


def test_ik_position_of_a_pose_target_ignores_rotation(two_link):
    # position-only IK of a pose is IK of its position: a Vec3 target
    target = forward_kinematics(two_link, [0.9, -0.4])["tool"]
    res = inverse_kinematics(two_link, target.position, "tool", q0=[0.2, 0.2])
    assert res.converged


def test_ik_loss_is_nonincreasing_across_iterations(two_link):
    # Instrumented descent check: replay the iterates via a wrapped model
    # would be invasive; instead verify the endpoint beats the start.
    q0 = [0.1, 0.1]
    target = Vec3(1.0, 1.0, 0.0)
    start = forward_kinematics(two_link, q0)["tool"].position
    d0 = np.linalg.norm(np.array(start.values()) - np.array(target.values()))
    res = inverse_kinematics(two_link, target, "tool", q0=q0)
    assert res.residual <= d0


def test_ik_wrong_q0_length(two_link):
    with pytest.raises(ValueError):
        inverse_kinematics(two_link, Vec3(1, 1, 0), "tool", q0=[0.0])


# keyword arguments that replace a valid call's, and the error they raise: a
# ValueError, or a TypeError for the step size and tolerances, which are constants
IK_BAD_INPUT = {
    "nan_target_position": ({"target": Vec3(math.nan, 0.1, 0.4)}, ValueError,
                            "target position must be finite"),
    "inf_target_position": ({"target": Vec3(0.5, math.inf, 0.0)}, ValueError,
                            "target position must be finite"),
    "nan_target_rotation": ({"target": Pose(Mat33(1.0, 0.0, 0.0, 0.0, math.nan, 0.0,
                                                  0.0, 0.0, 1.0), Vec3(1.0, 1.0, 0.0))},
                            ValueError, "target rotation must be finite"),
    "nan_q0": ({"q0": [math.nan, 0.1]}, ValueError, "q0 must be finite"),
    "negative_max_iters": ({"max_iters": -3}, ValueError, "max_iters must be >= 0"),
    "zero_step_size": ({"step_size": 0.0}, TypeError,
                       "unexpected keyword argument 'step_size'"),
    "inf_step_size": ({"step_size": math.inf}, TypeError,
                      "unexpected keyword argument 'step_size'"),
    "negative_pos_tolerance": ({"pos_tolerance": -1e-5}, TypeError,
                               "unexpected keyword argument 'pos_tolerance'"),
    "nan_rot_tolerance": ({"rot_tolerance": math.nan}, TypeError,
                          "unexpected keyword argument 'rot_tolerance'"),
}


@pytest.mark.parametrize("case", sorted(IK_BAD_INPUT))
def test_ik_rejects_input_it_cannot_honour_before_any_work(two_link, monkeypatch, case):
    kwargs, error, message = IK_BAD_INPUT[case]

    def no_work(*args):
        raise AssertionError("the pose loss was evaluated")

    monkeypatch.setattr(kinematics, "_pose_loss", no_work)
    args = {"target": Vec3(1.0, 1.0, 0.0), "q0": [0.1, 0.1], **kwargs}
    with pytest.raises(error, match=message):
        inverse_kinematics(two_link, args.pop("target"), "tool", **args)


def test_ik_accepts_the_edges_of_its_input_domain(two_link):
    # no iterations at all
    res = inverse_kinematics(two_link, Vec3(1.0, 1.0, 0.0), "tool", q0=[0.1, 0.1],
                             max_iters=0)
    assert (res.iterations, res.converged) == (0, False)


def test_ik_composes_the_link_pose_once_per_loss_and_one_jacobian_per_iteration(
        six_dof, monkeypatch):
    calls = dict.fromkeys(("_pose_loss", "link_transform", "_jacobian"), 0)

    def counted(name):
        fn = getattr(kinematics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    target = forward_kinematics(six_dof, [0.4, -0.8, 1.1, 0.3, -0.6, 0.9])["tool"]
    for name in calls:
        monkeypatch.setattr(kinematics, name, counted(name))
    res = inverse_kinematics(six_dof, target, "tool", q0=[0.0] * 6, seed=0)
    assert res.converged and res.restarts == 0 and res.iterations >= 3
    assert calls["_jacobian"] == res.iterations
    assert calls["link_transform"] == calls["_pose_loss"] > res.iterations


@pytest.mark.parametrize("max_iters", [1, 3])
def test_ik_counts_every_iteration_of_a_solve_that_runs_to_the_cap(six_dof, monkeypatch,
                                                                     max_iters):
    jacobians = [0]
    jacobian = kinematics._jacobian

    def counted(*args, **kwargs):
        jacobians[0] += 1
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(kinematics, "_jacobian", counted)
    res = inverse_kinematics(six_dof, Vec3(5.0, 0.0, 0.0), "tool", q0=[0.0] * 6,
                             max_iters=max_iters)
    assert not res.converged
    assert res.iterations == jacobians[0] == max_iters


# ---------------------------------------------------------------------------
# joint basis: local_transforms against the composition it replaced

# axis-aligned axes, with signed zeros, then random unit axes
BASIS_AXES = [(1.0, 0.0, 0.0), (-0.0, 1.0, -0.0), (0.0, -0.0, -1.0), (-1.0, -0.0, 0.0),
              (0.0, -1.0, 0.0), (-0.0, -0.0, 1.0)] + [
    tuple(v / np.linalg.norm(v)) for v in np.random.default_rng(11).normal(size=(3, 3))]
BOX = (1.5, (0.1, -0.05, 0.2), (0.3, -0.2, 0.1), (0.02, 0.001, -0.002, 0.03, 0.0015, 0.025))


def reference_local_transforms(model, q):
    """Every origin rotation multiplied in, every rotation from its axis."""
    xs = []
    for body, qj in zip(model.bodies, q):
        origin = body.origin
        if body.joint_type == "prismatic":
            xs.append(origin.compose(SpatialTransform(Mat33.identity(), body.axis.scale(qj))))
        else:
            xs.append(SpatialTransform(origin.rot.matmat(rot_axis_angle(body.axis, qj)),
                                       origin.trans))
    return xs


def entries(X):
    return sum(X.rot.rows(), []) + X.trans.tolist()


def basis_chain():
    """A chain of every joint type on every axis of ``BASIS_AXES``, each under
    an identity, a nearly identity and a random rpy origin."""
    rng = np.random.default_rng(12)
    links, joints = [("base", None)], []
    for axis in BASIS_AXES:
        for rpy in ((0.0, 0.0, 0.0), (1e-9, -1e-9, 0.0), tuple(rng.uniform(-np.pi, np.pi, 3))):
            for jtype in ("revolute", "continuous", "prismatic"):
                k = len(joints) + 1
                links.append((f"l{k}", BOX))
                joints.append((f"j{k}", jtype, links[k - 1][0], f"l{k}",
                               tuple(rng.uniform(-0.5, 0.5, 3)), rpy, axis))
    return rd.build_model(rd.parse_urdf(urdf_text("basis_chain", links, joints)))


@pytest.fixture(scope="module")
def chain():
    return basis_chain()


def test_basis_chain_covers_identity_and_rotated_origins(chain):
    flags = [(b.joint_type, b.origin_is_identity) for b in chain.bodies]
    for jtype in ("revolute", "continuous", "prismatic"):
        assert (jtype, True) in flags and (jtype, False) in flags


def test_local_transforms_on_floats_equal_the_reference_bit_for_bit(chain):
    rng = np.random.default_rng(13)
    for q in ([0.0] * chain.n, [-0.0] * chain.n, [math.pi] * chain.n,
              *(rng.uniform(-7.0, 7.0, chain.n).tolist() for _ in range(20))):
        for X, R in zip(local_transforms(chain, q), reference_local_transforms(chain, q)):
            for a, b in zip(entries(X), entries(R)):
                assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_local_transforms_on_a_batch_equal_the_reference_bytes(chain):
    q = list(np.random.default_rng(14).uniform(-7.0, 7.0, (chain.n, 64)))
    for X, R in zip(local_transforms(chain, q), reference_local_transforms(chain, q)):
        for a, b in zip(entries(X), entries(R)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_local_transforms_on_vars_equal_the_reference_in_value_and_gradient(chain):
    rng = np.random.default_rng(15)
    q = rng.uniform(-7.0, 7.0, chain.n).tolist()
    weights = rng.normal(size=12 * chain.n)
    values = {}

    def weighted_sum(fn):
        # every entry gets its own weight, so each entry's gradient shows
        def f(qs):
            xs = [x for X in fn(chain, qs) for x in entries(X)]
            values[fn] = [ad.value(x) for x in xs]
            return sum(w * x for w, x in zip(weights, xs))
        return f

    got = ad.gradient(weighted_sum(local_transforms), q)
    want = ad.gradient(weighted_sum(reference_local_transforms), q)
    assert values[local_transforms] == values[reference_local_transforms]
    assert list(got) == list(want)


def test_traced_aba_on_a_tree_with_rotated_origins_equals_aba():
    rng = np.random.default_rng(16)
    links, joints = [("base", None)], []
    for k in range(1, 7):
        rpy = (0.0, 0.0, 0.0) if k % 2 else tuple(rng.uniform(-np.pi, np.pi, 3))
        links.append((f"l{k}", BOX))
        joints.append((f"j{k}", ("revolute", "continuous", "prismatic")[k % 3],
                       links[rng.integers(0, k)][0], f"l{k}",
                       tuple(rng.uniform(-0.5, 0.5, 3)), rpy, BASIS_AXES[(3 * k) % 9]))
    model = rd.build_model(rd.parse_urdf(urdf_text("rotated_tree", links, joints)))
    assert {b.origin_is_identity for b in model.bodies} == {True, False}
    n = model.n
    kernel = trace_kernel(lambda *state: aba(model, *state), n, n, n)
    for _ in range(10):
        state = [x.tolist() for x in random_state(model, rng, scale=3.0)]
        got, want = kernel(*state), aba(model, *state)
        assert got is not None
        for a, b in zip(got, want):
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("name", ["two_link_planar", "six_dof_arm"])
def test_link_jacobian_of_var_and_dual_q_equals_its_float_result(name):
    model = rd.load_model(rd.fixture_path(name))
    q = np.random.default_rng(17).uniform(-np.pi, np.pi, model.n).tolist()
    want = link_jacobian(model, q, "tool")
    world = world_transforms(model, q)
    assert _jacobian(model, world, model.link("tool")).tobytes() == want.tobytes()
    tape = ad.Tape()
    for qs in ([tape.var(x) for x in q], ad.Dual.seed(q)):
        assert link_jacobian(model, qs, "tool").tobytes() == want.tobytes()
