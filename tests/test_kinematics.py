"""Forward kinematics, geometric Jacobians, and gradient IK."""

import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn import kinematics, tracing
from robotdyn.dynamics import DynamicsError, aba
from robotdyn.kinematics import (
    _COS_MAX,
    Pose,
    _chain,
    _error_terms,
    _gauss_newton_system,
    _jacobian,
    _pose_and_chain,
    _pose_loss,
    forward_kinematics,
    inverse_kinematics,
    link_jacobian,
    local_transforms,
)
from robotdyn.spatial import Mat33, MotionVector, SpatialTransform, Vec3, rot_axis_angle
from conftest import random_state, spy_kernel, urdf_text


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


def reference_jacobian(model, frame, flat, batch=None):
    """``_jacobian`` from spatial-algebra objects: with p the link position and
    a, o the world axis and origin of a chain joint, its column is
    ``MotionVector(a, a.cross(p - o))``, or ``MotionVector(0, a)`` if prismatic."""
    J = np.zeros((6, model.n) + (batch or ()))
    p = Vec3(*flat[:3])
    i, k = frame.body, 12
    while i >= 0:
        body = model.bodies[i]
        a = Vec3(*flat[k:k + 3])
        if body.joint_type == "prismatic":
            col = MotionVector(Vec3.zero(), a)
        else:
            col = MotionVector(a, a.cross(p - Vec3(*flat[k + 3:k + 6])))
        for row, x in enumerate(col.tolist()):
            J[row, i] = ad.value(x)
        i, k = body.parent, k + 6
    return J


def assert_jacobians_equal_the_reference(model, qs):
    """``_jacobian`` of every link, at each float configuration of ``qs`` and at
    all of them as one batch, has the bytes of ``reference_jacobian``."""
    batch = list(np.array(qs, dtype=float).T)
    for link in model.link_names():
        frame = model.link(link)
        for q, shape in [(q, None) for q in qs] + [(batch, (len(qs),))]:
            flat = _pose_and_chain(model, frame, q)
            got = _jacobian(model, frame, flat, shape)
            assert got.tobytes() == reference_jacobian(model, frame, flat, shape).tobytes(), \
                (link, q)


LOADABLE_FIXTURES = ("pendulum", "pendulum_mass2", "two_link_planar", "six_dof_arm")


@pytest.mark.parametrize("name", LOADABLE_FIXTURES)
def test_jacobian_equals_the_spatial_algebra_reference_bit_for_bit(name):
    model = rd.load_model(rd.fixture_path(name))
    rng = np.random.default_rng(18)
    qs = [[0.0] * model.n, [-0.0] * model.n] + rng.uniform(-7.0, 7.0, (8, model.n)).tolist()
    assert_jacobians_equal_the_reference(model, qs)


# ---------------------------------------------------------------------------
# inverse kinematics


def gauss_newton_system(model, link, q, target_pos, target_rot):
    """The IK loss's Gauss-Newton system (H, g) at the float ``q``, over the
    link's chain joints in ``_chain`` order, as numpy arrays."""
    frame = model.link(link)
    ev = _pose_loss(model, frame, list(q), target_pos, target_rot)
    H, g = _gauss_newton_system(model, frame, ev[3],
                                _error_terms(ev[4], ev[5], target_pos, target_rot))
    return np.array(H), np.array(g)


def ik_gradients(model, link, q, target_pos, target_rot):
    """The analytic IK gradient at ``q``, the Gauss-Newton system's g with 0
    for every joint off the chain, and its oracle, reverse-mode AD of the pose
    loss."""
    frame = model.link(link)
    g = np.zeros(model.n)
    g[_chain(model, frame)] = gauss_newton_system(model, link, q, target_pos, target_rot)[1]
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


@pytest.mark.parametrize("name", ["two_link_planar", "six_dof_arm"])
def test_gauss_newton_curvature_equals_the_damped_jacobian_product(name):
    # H = 2·J_selᵀJ_sel + 1e-6·I over the chain, with J from link_jacobian:
    # its linear rows for a position-only target, all six for a full pose
    model = rd.load_model(rd.fixture_path(name))
    rng = np.random.default_rng(9)
    for link in model.link_names()[1:]:
        chain = _chain(model, model.link(link))
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, model.n)
            target = forward_kinematics(model, list(rng.uniform(-np.pi, np.pi, model.n)))[link]
            J = link_jacobian(model, list(q), link)[:, chain]
            for rows, target_rot in ((slice(0, 6), target.rotation), (slice(3, 6), None)):
                H, _ = gauss_newton_system(model, link, q, target.position, target_rot)
                want = 2.0 * J[rows].T @ J[rows] + 1e-6 * np.eye(len(chain))
                assert np.array_equal(H, H.T)
                np.testing.assert_allclose(H, want, rtol=0, atol=1e-14 * np.max(want))


def test_ik_fixed_point_returns_immediately(two_link):
    q0 = [0.3, -0.7]
    target = forward_kinematics(two_link, q0)["tool"]
    res = inverse_kinematics(two_link, target, "tool", q0=q0)
    assert res.converged
    assert res.iterations == 0
    assert (res.restarts, res.backtracks, res.evaluations) == (0, 0, 1)
    np.testing.assert_allclose(res.q, q0, atol=1e-12)
    # the orientation-error acos clamp leaves a ~1e-6 residual floor
    assert res.residual < 1e-5


def spy_random(monkeypatch):
    """The seeds of the ``random.Random`` generators IK builds from now on."""
    seeds = []

    def built(seed):
        seeds.append(seed)
        return random.Random(seed)
    monkeypatch.setattr(kinematics, "random", SimpleNamespace(Random=built))
    return seeds


def test_ik_restarts_off_an_orientation_antipode(six_dof, monkeypatch):
    # the target is the start turned by pi about the last joint: the
    # orientation error starts at the antipode, where no Gauss-Newton step
    # lowers the loss, so the solve leaves it by a restart
    q0 = [-1.0] * 6
    q_target = q0[:5] + [q0[5] + np.pi]
    target = forward_kinematics(six_dof, q_target)["tool"]
    start = _pose_loss(six_dof, six_dof.link("tool"), q0, target.position, target.rotation)
    assert start[2] > np.pi - 1e-3
    seeds = spy_random(monkeypatch)
    res = inverse_kinematics(six_dof, target, "tool", q0=q0)
    assert res.converged and res.restarts >= 1
    # the orientation-error acos clamp leaves a ~1e-6 residual floor
    assert res.residual < 1e-5
    assert seeds == [0]   # the restart drew from the solve's generator
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
        raise AssertionError("the link pose was evaluated")

    def no_kernel(*args):
        raise AssertionError("the IK kernel was built or called")

    monkeypatch.setattr(kinematics, "_pose_and_chain", no_work)
    monkeypatch.setattr(kinematics, "_ik_kernel", no_kernel)
    monkeypatch.setattr(two_link, "_ik_kernels", {"tool": no_kernel})
    args = {"target": Vec3(1.0, 1.0, 0.0), "q0": [0.1, 0.1], **kwargs}
    with pytest.raises(error, match=message):
        inverse_kinematics(two_link, args.pop("target"), "tool", **args)


def test_ik_accepts_the_edges_of_its_input_domain(two_link):
    # no iterations at all
    res = inverse_kinematics(two_link, Vec3(1.0, 1.0, 0.0), "tool", q0=[0.1, 0.1],
                             max_iters=0)
    assert (res.iterations, res.converged) == (0, False)


def counted_gauss_newton(monkeypatch):
    """The calls of the Gauss-Newton kernels IK takes from now on."""
    calls, kernel_of = [], kinematics._gauss_newton_kernel

    def counted_kernel(model, frame, full):
        kernel = kernel_of(model, frame, full)

        def counted(*args):
            calls.append(args)
            return kernel(*args)
        return counted
    monkeypatch.setattr(kinematics, "_gauss_newton_kernel", counted_kernel)
    return calls


def test_ik_composes_the_link_pose_once_per_loss_and_one_jacobian_per_iteration(
        six_dof, monkeypatch):
    # each loss takes its link pose from one kernel call: compiled, or else
    # handed to one _pose_and_chain, which composes it with one link_transform;
    # each iteration takes its Jacobian columns, gradient and direction from
    # one call of the Gauss-Newton kernel
    calls = dict.fromkeys(("_pose_error", "_pose_and_chain", "link_transform"), 0)
    kernel, results = kinematics._ik_kernel(six_dof, six_dof.link("tool")), []
    steps = counted_gauss_newton(monkeypatch)

    def counted(name):
        fn = getattr(kinematics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_kernel(qs):
        results.append(kernel(qs))
        return results[-1]

    target = forward_kinematics(six_dof, [0.4, -0.8, 1.1, 0.3, -0.6, 0.9])["tool"]
    for name in calls:
        monkeypatch.setattr(kinematics, name, counted(name))
    monkeypatch.setattr(kinematics, "_ik_kernel", lambda model, frame: counted_kernel)
    res = inverse_kinematics(six_dof, target, "tool", q0=[0.0] * 6, seed=0)
    assert res.converged and res.restarts == 0 and res.iterations >= 3
    assert len(steps) == res.iterations
    assert calls["_pose_error"] == len(results)
    # the start q0 = 0 has exact zeros in its pose, so the generic code runs there
    assert calls["link_transform"] == calls["_pose_and_chain"] >= 1
    assert len(results) - calls["_pose_and_chain"] >= res.iterations   # compiled results


def six_dof_targets(model, seed, count=100):
    """``count`` reachable ``tool`` targets of ``model``: every third a full
    pose, the others position-only."""
    lo, hi = model.joint_limits()
    rng = np.random.default_rng(seed)
    targets = [forward_kinematics(model, list(rng.uniform(lo, hi)))["tool"]
               for _ in range(count)]
    return [t if j % 3 == 0 else t.position for j, t in enumerate(targets)]


def solve_all(model, targets):
    """Every field of the IK result of each target, bit for bit."""
    return [[r.q.tobytes(), r.converged, type(r.residual), r.residual.hex(),
             r.iterations, r.restarts, r.backtracks, r.evaluations]
            for j, t in enumerate(targets)
            for r in [inverse_kinematics(model, t, "tool", q0=[0.0] * 6, seed=j)]]


def test_ik_with_its_kernel_equals_ik_without_it(monkeypatch):
    # the same solves on a model whose kernel compiled and on one whose trace
    # raised: every IKResult field is the same, bit for bit
    models = [rd.load_model(rd.fixture_path("six_dof_arm")) for _ in range(2)]
    targets = six_dof_targets(models[0], 21)

    def no_compile(*args):
        raise RuntimeError("the trace failed")

    got = solve_all(models[0], targets)
    monkeypatch.setattr(tracing.Trace, "compile", no_compile)
    want = solve_all(models[1], targets)
    for key in ("tool", ("tool", True), ("tool", False)):
        assert models[0]._ik_kernels[key].__code__.co_filename == "<kernel>"
        assert models[1]._ik_kernels[key].__code__.co_filename != "<kernel>"
    assert got == want


def test_ik_equals_ik_on_the_spatial_algebra_jacobian(monkeypatch):
    # the Gauss-Newton system's scalar column formula, compiled, against the
    # MotionVector columns of reference_jacobian, run generically, through
    # whole solves: every IKResult field, bit for bit
    models = [rd.load_model(rd.fixture_path("six_dof_arm")) for _ in range(2)]
    targets = six_dof_targets(models[0], 22)
    got = solve_all(models[0], targets)

    def reference_columns(model, frame, flat):
        J = reference_jacobian(model, frame, flat)
        return [tuple(J[:, i]) for i in _chain(model, frame)]

    def no_compile(*args):
        raise RuntimeError("the trace failed")

    monkeypatch.setattr(kinematics, "_columns", reference_columns)
    monkeypatch.setattr(tracing.Trace, "compile", no_compile)
    assert solve_all(models[1], targets) == got
    assert any(restarts > 0 for *_, restarts, _, _ in got)


def test_ik_counts_its_evaluations_and_draws_only_when_it_restarts(six_dof, monkeypatch):
    kernel, calls = kinematics._ik_kernel(six_dof, six_dof.link("tool")), []

    def spied(qs):
        calls.append(qs)
        return kernel(qs)

    monkeypatch.setattr(kinematics, "_ik_kernel", lambda model, frame: spied)
    seeds = spy_random(monkeypatch)
    restarted = 0
    for j, t in enumerate(six_dof_targets(six_dof, 23)):
        calls.clear()
        seeds.clear()
        res = inverse_kinematics(six_dof, t, "tool", q0=[0.0] * 6, seed=j)
        assert res.evaluations == len(calls) >= res.iterations + 1
        if res.restarts:
            restarted += 1
            assert seeds == [j]
        else:
            assert seeds == []
    assert 0 < restarted < 100


def test_ik_converges_on_full_pose_targets(six_dof):
    # 300 reachable full-pose targets from q0 = 0: a Gauss-Newton search that
    # fails restarts at once, so few solves run to the iteration cap
    lo, hi = six_dof.joint_limits()
    failed = 0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for j in range(100):
            target = forward_kinematics(six_dof, list(rng.uniform(lo, hi)))["tool"]
            res = inverse_kinematics(six_dof, target, "tool", q0=[0.0] * 6, seed=j)
            failed += not res.converged
    assert failed <= 3


def spy_gauss_newton(monkeypatch):
    """The outcome of each call of ``_gauss_newton`` from now on, on a model
    whose Gauss-Newton kernels are not yet built: a trace or a fallback."""
    outcomes, gauss_newton = [], kinematics._gauss_newton

    def spied(*args):
        try:
            outcomes.append(gauss_newton(*args))
        except DynamicsError as e:
            outcomes.append(e)
            raise
        return outcomes[-1]
    monkeypatch.setattr(kinematics, "_gauss_newton", spied)
    return outcomes


def test_ik_restarts_where_the_solve_rejects_the_gauss_newton_system(monkeypatch):
    # lengths scaled by 2^20: the 1e-6 damping is below the rounding of H, so
    # the Cholesky solve rejects a singular H; the solve restarts as after a
    # failed search, and no exception escapes
    with open(rd.fixture_path("six_dof_arm"), encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r'<origin xyz="([^"]*)"', lambda m: '<origin xyz="%s"' % " ".join(
        repr(float(x) * 2.0 ** 20) for x in m.group(1).split()), text)
    model = rd.build_model(rd.parse_urdf(text))
    outcomes = spy_gauss_newton(monkeypatch)
    results = [inverse_kinematics(model, t, "tool", q0=[0.0] * 6, seed=j)
               for j, t in enumerate(six_dof_targets(model, 5, count=40))]
    rejected = sum(isinstance(x, DynamicsError) for x in outcomes)
    assert rejected >= 10
    assert sum(r.restarts for r in results) >= rejected
    assert all(np.isfinite(r.q).all() and math.isfinite(r.residual) for r in results)
    assert any(r.converged for r in results)


def test_gauss_newton_kernels_run_their_generic_function_only_to_trace(monkeypatch):
    # full-pose and position-only tool targets, and position-only targets of
    # link6, whose frame lies on its own joint's axis: that joint's column
    # and direction are exact zeros, which the fold-free kernel answers itself
    model = rd.load_model(rd.fixture_path("six_dof_arm"))
    outcomes = spy_gauss_newton(monkeypatch)
    lo, hi = model.joint_limits()
    rng = np.random.default_rng(24)
    iterations = 0
    for link, targets in (("tool", six_dof_targets(model, 24)),
                          ("link6", [forward_kinematics(model, list(rng.uniform(lo, hi)))[
                              "link6"].position for _ in range(100)])):
        for j, t in enumerate(targets):
            iterations += inverse_kinematics(model, t, link, q0=[0.0] * 6, seed=j).iterations
    assert len(outcomes) == 3 and iterations > 1000   # the three traces
    assert set(model._ik_kernels) >= {("tool", True), ("tool", False), ("link6", False)}
    assert all(model._ik_kernels[key].__code__.co_filename == "<kernel>"
               for key in (("tool", True), ("tool", False), ("link6", False)))


@pytest.mark.parametrize("max_iters", [1, 3])
def test_ik_counts_every_iteration_of_a_solve_that_runs_to_the_cap(six_dof, monkeypatch,
                                                                     max_iters):
    steps = counted_gauss_newton(monkeypatch)
    res = inverse_kinematics(six_dof, Vec3(5.0, 0.0, 0.0), "tool", q0=[0.0] * 6,
                             max_iters=max_iters)
    assert not res.converged
    assert res.iterations == len(steps) == max_iters


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


def test_jacobian_on_every_joint_type_and_origin_equals_the_reference(chain):
    rng = np.random.default_rng(19)
    qs = [[0.0] * chain.n] + rng.uniform(-7.0, 7.0, (4, chain.n)).tolist()
    assert_jacobians_equal_the_reference(chain, qs)


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


def rotated_tree(rng):
    """A branching tree of six joints, two of each movable type, every other
    one under a random rpy origin, drawn from ``rng``."""
    links, joints = [("base", None)], []
    for k in range(1, 7):
        rpy = (0.0, 0.0, 0.0) if k % 2 else tuple(rng.uniform(-np.pi, np.pi, 3))
        links.append((f"l{k}", BOX))
        joints.append((f"j{k}", ("revolute", "continuous", "prismatic")[k % 3],
                       links[rng.integers(0, k)][0], f"l{k}",
                       tuple(rng.uniform(-0.5, 0.5, 3)), rpy, BASIS_AXES[(3 * k) % 9]))
    return rd.build_model(rd.parse_urdf(urdf_text("rotated_tree", links, joints)))


def test_traced_aba_on_a_tree_with_rotated_origins_equals_aba():
    rng = np.random.default_rng(16)
    model = rotated_tree(rng)
    assert {b.origin_is_identity for b in model.bodies} == {True, False}
    n = model.n
    kernel, fallbacks = spy_kernel(lambda *state: aba(model, *state), n, n, n)
    for _ in range(10):
        state = [x.tolist() for x in random_state(model, rng, scale=3.0)]
        got, want = kernel(*state), aba(model, *state)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    assert fallbacks == []


@pytest.mark.parametrize("name", ["two_link_planar", "six_dof_arm"])
def test_link_jacobian_of_var_and_dual_q_equals_its_float_result(name):
    model = rd.load_model(rd.fixture_path(name))
    q = np.random.default_rng(17).uniform(-np.pi, np.pi, model.n).tolist()
    want = link_jacobian(model, q, "tool")
    frame = model.link("tool")
    assert _jacobian(model, frame, _pose_and_chain(model, frame, q)).tobytes() == want.tobytes()
    tape = ad.Tape()
    for qs in ([tape.var(x) for x in q], ad.Dual.seed(q)):
        assert link_jacobian(model, qs, "tool").tobytes() == want.tobytes()
