"""RNEA / CRBA / ABA dynamics: closed-form pendulum oracles, cross-algorithm
round trips, differentiability, and integrator behavior."""

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn.kinematics import forward_kinematics, link_jacobian
from robotdyn.spatial import SpatialInertia
from robotdyn.dynamics import (
    DynamicsError,
    aba,
    bias_force,
    forward_dynamics_cholesky,
    gravity_term,
    mass_matrix,
    potential_energy,
    regressor,
    rnea,
    simulate,
    total_energy,
)
from conftest import random_state, urdf_text

G = 9.81
NO_GRAVITY = (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# RNEA closed forms


def test_rnea_static_weightless_equilibrium(all_models):
    for model in all_models:
        zero = [0.0] * model.n
        rng = np.random.default_rng(0)
        q = list(rng.uniform(-1, 1, size=model.n))
        tau = rnea(model, q, zero, zero, gravity=NO_GRAVITY)
        np.testing.assert_allclose(tau, np.zeros(model.n), atol=1e-14)


def test_rnea_pendulum_gravity_torque_sweep(pendulum):
    # |tau| = m g l |cos q| for a unit point mass 1 m along x, revolute about y
    for q in (0.0, np.pi / 6, np.pi / 2, np.pi):
        tau = rnea(pendulum, [q], [0.0], [0.0])
        np.testing.assert_allclose(abs(tau[0]), G * abs(np.cos(q)),
                                   atol=1e-12)


def test_rnea_pendulum_gravity_torque_sign_is_consistent(pendulum):
    # The sign convention is fixed once; holding torque flips with cos q.
    t0 = rnea(pendulum, [0.0], [0.0], [0.0])[0]
    t_pi = rnea(pendulum, [np.pi], [0.0], [0.0])[0]
    np.testing.assert_allclose(t_pi, -t0, atol=1e-12)


def test_rnea_pendulum_inertial_torque(pendulum):
    # gravity off, qdd = 1: tau = m l^2 = 1, independent of q
    for q in (0.0, 0.4, -1.3):
        tau = rnea(pendulum, [q], [0.0], [1.0], gravity=NO_GRAVITY)
        np.testing.assert_allclose(tau, [1.0], atol=1e-13)


def test_rnea_accepts_custom_gravity(pendulum):
    tau = rnea(pendulum, [0.0], [0.0], [0.0], gravity=(0.0, 0.0, -1.0))
    np.testing.assert_allclose(abs(tau[0]), 1.0, atol=1e-13)


def test_rnea_rejects_kinematics_only_model():
    model = rd.load_model(rd.fixture_path("pendulum"), kinematics_only=True)
    with pytest.raises(DynamicsError):
        rnea(model, [0.0], [0.0], [0.0])


# ---------------------------------------------------------------------------
# mass matrix


def test_mass_matrix_pendulum(pendulum):
    M = np.asarray(mass_matrix(pendulum, [0.3]))
    np.testing.assert_allclose(M, [[1.0]], atol=1e-12)


def test_mass_matrix_two_link_straight(two_link):
    # point masses at the link tips, unit lengths, q2 = 0:
    # M11 = m1 l1^2 + m2 (l1+l2)^2 = 5, M12 = m2 l2 (l1+l2) = 2, M22 = 1
    M = np.asarray(mass_matrix(two_link, [0.7, 0.0]))
    np.testing.assert_allclose(M, [[5.0, 2.0], [2.0, 1.0]], atol=1e-12)


def test_mass_matrix_columns_match_rnea(all_models):
    rng = np.random.default_rng(1)
    for model in all_models:
        q, _, _ = random_state(model, rng)
        M = np.asarray(mass_matrix(model, list(q)))
        zero = [0.0] * model.n
        for j in range(model.n):
            ej = [0.0] * model.n
            ej[j] = 1.0
            col = rnea(model, list(q), zero, ej, gravity=NO_GRAVITY)
            np.testing.assert_allclose(M[:, j], col, atol=1e-12)


def test_mass_matrix_symmetric_positive_definite(six_dof):
    rng = np.random.default_rng(2)
    for _ in range(5):
        q, _, _ = random_state(six_dof, rng)
        M = np.asarray(mass_matrix(six_dof, list(q)))
        np.testing.assert_allclose(M, M.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(M) > 0)


def test_rnea_is_linear_in_qdd(six_dof):
    # tau(q, qd, qdd) - bias(q, qd) = M(q) qdd
    rng = np.random.default_rng(3)
    q, qd, _ = random_state(six_dof, rng)
    qdd = rng.uniform(-2, 2, size=6)
    tau = np.array(rnea(six_dof, list(q), list(qd), list(qdd)))
    h = np.array(bias_force(six_dof, list(q), list(qd)))
    M = np.asarray(mass_matrix(six_dof, list(q)))
    np.testing.assert_allclose(tau - h, M @ qdd, atol=1e-9)


# ---------------------------------------------------------------------------
# inertial regressor


def stacked_params(inertias):
    return np.array([p for I in inertias for p in I.params()])


def assert_regressor_matches_rnea(model, q, qd, qdd, gravity=None, inertias=None):
    """regressor(...) @ pi equals batched rnea to 1e-12 relative (state columns
    are (N,) arrays)."""
    inertias = model.inertias() if inertias is None else inertias
    Y = regressor(model, q, qd, qdd, gravity=gravity)
    N = len(q[0])
    assert Y.shape == (N, model.n, 10 * model.n)
    want = np.stack([np.broadcast_to(t, (N,)) for t in
                     rnea(model.with_inertias(inertias), q, qd, qdd, gravity=gravity)],
                    axis=1)
    got = Y @ stacked_params(inertias)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("gravity", [None, NO_GRAVITY, (1.0, -2.0, 3.0)])
def test_regressor_times_params_equals_rnea(all_models, gravity):
    rng = np.random.default_rng(31)
    for model in all_models:
        q, qd, qdd = (list(rng.uniform(-2.0, 2.0, (64, model.n)).T) for _ in range(3))
        assert_regressor_matches_rnea(model, q, qd, qdd, gravity=gravity)


def test_regressor_is_linear_in_any_inertias(six_dof):
    # the same Y serves every parameter vector, not only the model's
    rng = np.random.default_rng(32)
    q, qd, qdd = (list(rng.uniform(-2.0, 2.0, (16, 6)).T) for _ in range(3))
    inertias = [SpatialInertia(I.mass * rng.uniform(0.5, 2.0),
                               I.com + rd.Vec3(*rng.uniform(-0.1, 0.1, 3)),
                               I.rot_inertia.scale(rng.uniform(0.5, 2.0)))
                for I in six_dof.inertias()]
    assert_regressor_matches_rnea(six_dof, q, qd, qdd, inertias=inertias)


def test_regressor_scalar_state_is_one_batch_row(six_dof):
    rng = np.random.default_rng(33)
    q, qd, qdd = (rng.uniform(-2.0, 2.0, (5, 6)) for _ in range(3))
    Y = regressor(six_dof, list(q.T), list(qd.T), list(qdd.T))
    for k in range(5):
        Yk = regressor(six_dof, q[k].tolist(), qd[k].tolist(), qdd[k].tolist())
        assert Yk.shape == (6, 60)
        np.testing.assert_allclose(Yk, Y[k], rtol=1e-14, atol=1e-14)
    # body i only loads itself and its ancestors: on a serial chain the
    # blocks below the diagonal vanish
    for j in range(6):
        assert np.all(Y[:, j, :10 * j] == 0.0)


def test_regressor_rejects_wrong_state_length(six_dof):
    with pytest.raises(ValueError, match="qd must have length 6"):
        regressor(six_dof, [0.0] * 6, [0.0] * 5, [0.0] * 6)


# ---------------------------------------------------------------------------
# gravity and bias terms


def test_gravity_term_zero_gravity(six_dof):
    g = gravity_term(six_dof, [0.1] * 6, gravity=NO_GRAVITY)
    np.testing.assert_allclose(g, np.zeros(6), atol=1e-14)


def test_gravity_term_pendulum(pendulum):
    g = gravity_term(pendulum, [0.0])
    np.testing.assert_allclose(abs(g[0]), G, atol=1e-12)


def test_gravity_term_equals_static_rnea(six_dof):
    rng = np.random.default_rng(4)
    q, _, _ = random_state(six_dof, rng)
    zero = [0.0] * 6
    np.testing.assert_allclose(gravity_term(six_dof, list(q)),
                               rnea(six_dof, list(q), zero, zero), atol=0.0)


def test_bias_equals_gravity_at_rest(six_dof):
    rng = np.random.default_rng(5)
    q, _, _ = random_state(six_dof, rng)
    np.testing.assert_allclose(bias_force(six_dof, list(q), [0.0] * 6),
                               gravity_term(six_dof, list(q)), atol=0.0)


def test_pendulum_bias_has_no_velocity_term(pendulum):
    # single DoF: the centripetal term cannot do work on the joint
    for qd in (0.0, 1.0, -3.0):
        np.testing.assert_allclose(bias_force(pendulum, [0.4], [qd]),
                                   gravity_term(pendulum, [0.4]), atol=1e-13)


# ---------------------------------------------------------------------------
# forward dynamics


def test_aba_pendulum_equilibrium(pendulum):
    qdd = aba(pendulum, [np.pi / 2], [0.0], [0.0])
    np.testing.assert_allclose(qdd, [0.0], atol=1e-12)


def test_aba_pendulum_free_fall(pendulum):
    qdd = aba(pendulum, [0.0], [0.0], [0.0])
    np.testing.assert_allclose(abs(qdd[0]), G, atol=1e-12)


def test_aba_rnea_roundtrip(all_models):
    rng = np.random.default_rng(6)
    for model in all_models:
        for _ in range(10):
            q, qd, tau = random_state(model, rng)
            qdd = aba(model, list(q), list(qd), list(tau))
            back = np.array(rnea(model, list(q), list(qd), qdd))
            scale = max(1.0, float(np.max(np.abs(tau))))
            np.testing.assert_allclose(back, tau, atol=1e-8 * scale)


def test_aba_matches_cholesky(all_models):
    rng = np.random.default_rng(7)
    for model in all_models:
        for _ in range(10):
            q, qd, tau = random_state(model, rng)
            a1 = np.array(aba(model, list(q), list(qd), list(tau)))
            a2 = np.array(forward_dynamics_cholesky(model, list(q), list(qd),
                                                    list(tau)))
            scale = max(1.0, float(np.max(np.abs(a1))))
            np.testing.assert_allclose(a2, a1, atol=1e-9 * scale)


def test_bias_torque_gives_zero_acceleration(six_dof):
    rng = np.random.default_rng(8)
    q, qd, _ = random_state(six_dof, rng)
    tau = bias_force(six_dof, list(q), list(qd))
    qdd = aba(six_dof, list(q), list(qd), list(tau))
    np.testing.assert_allclose(qdd, np.zeros(6), atol=1e-10)


def test_aba_singular_inertia_reports_joint():
    model = rd.load_model(rd.fixture_path("bad_inertia"))
    with pytest.raises(DynamicsError) as exc:
        aba(model, [0.0], [0.0], [0.0])
    assert "pivot" in str(exc.value)


def test_aba_singularity_test_is_scale_free(six_dof):
    # The arm with every mass and rotational inertia scaled by 1e-10 is as
    # regular as the original; only its torques are 1e-10 times smaller.
    scaled = six_dof.with_inertias([SpatialInertia(1e-10 * I.mass, I.com,
                                                   I.rot_inertia.scale(1e-10))
                                    for I in six_dof.inertias()])
    rng = np.random.default_rng(12)
    for _ in range(10):
        q, qd, tau = random_state(six_dof, rng)
        tau = 1e-10 * tau
        qdd = aba(scaled, list(q), list(qd), list(tau))
        back = np.array(rnea(scaled, list(q), list(qd), qdd))
        assert np.max(np.abs(back - tau)) <= 1e-8 * np.max(np.abs(tau))


# ---------------------------------------------------------------------------
# fixed joints: a link on a fixed joint is merged into the body it moves with.
# Oracle: the same robot with every fixed joint made a continuous joint held
# at q = qd = qdd = 0.


def _box_link(name, mass, com, rpy=(0.0, 0.0, 0.0)):
    # a solid 0.1 x 0.2 x 0.3 m box, so that every joint axis sees inertia
    ixx, iyy, izz = (mass / 12.0 * (b * b + c * c)
                     for b, c in ((0.2, 0.3), (0.1, 0.3), (0.1, 0.2)))
    return (name, (mass, com, rpy, (ixx, 0.0, 0.0, iyy, 0.0, izz)))


MERGE_CASES = {
    # a 4 kg payload on a fixed joint at the end of a two-joint arm
    "payload": (
        [("base", None), _box_link("l1", 2.0, (0.2, 0.0, 0.1)),
         _box_link("l2", 1.5, (0.3, 0.05, 0.0), (0.1, 0.2, 0.3)),
         _box_link("payload", 4.0, (0.05, -0.1, 0.02), (0.4, 0.0, -0.2))],
        [("j1", "revolute", "base", "l1", (0, 0, 0.3), (0, 0, 0), (0, 0, 1)),
         ("j2", "revolute", "l1", "l2", (0.4, 0, 0), (0.2, 0, 0), (0, 1, 0)),
         ("mount", "fixed", "l2", "payload", (0.5, 0.1, 0), (0.3, -0.4, 1.1),
          (0, 0, 1))]),
    # a fixed joint in the middle of the chain, with a revolute child
    "mid_chain": (
        [("base", None), _box_link("l1", 2.0, (0.1, 0.0, 0.2)),
         _box_link("spacer", 0.7, (0.0, 0.1, 0.05), (0.5, 0.5, 0.0)),
         _box_link("l2", 1.0, (0.25, 0.0, 0.0)),
         _box_link("l3", 0.5, (0.1, 0.02, 0.0))],
        [("j1", "revolute", "base", "l1", (0, 0, 0.2), (0, 0, 0), (0, 0, 1)),
         ("weld", "fixed", "l1", "spacer", (0.1, 0.2, 0.3), (0.7, -0.2, 0.4),
          (0, 0, 1)),
         ("j2", "revolute", "spacer", "l2", (0.2, 0, 0.1), (0, 0.3, 0), (1, 0, 0)),
         ("j3", "prismatic", "l2", "l3", (0.3, 0, 0), (0, 0, 0), (0.6, 0, 0.8))]),
    # a massive pedestal fixed to the base, carrying the first joint
    "pedestal": (
        [("base", None), _box_link("pedestal", 20.0, (0.0, 0.0, 0.25)),
         _box_link("l1", 2.0, (0.2, 0.0, 0.0)), _box_link("l2", 1.0, (0.3, 0, 0))],
        [("bolt", "fixed", "base", "pedestal", (0.1, -0.2, 0.0), (0, 0, 0.6),
          (0, 0, 1)),
         ("j1", "revolute", "pedestal", "l1", (0, 0, 0.5), (0.1, 0, 0), (0, 0, 1)),
         ("j2", "continuous", "l1", "l2", (0.4, 0, 0), (0, 0, 0), (0, 1, 0))]),
}


def _merged_and_held(case):
    links, joints = MERGE_CASES[case]
    held = [(j[0], "continuous") + j[2:] if j[1] == "fixed" else j for j in joints]
    return (rd.build_model(rd.parse_urdf(urdf_text(case, links, joints))),
            rd.build_model(rd.parse_urdf(urdf_text(case, links, held))))


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_fixed_joint_merge_matches_held_joints(case):
    merged, held = _merged_and_held(case)
    fixed = {j[0] for j in MERGE_CASES[case][1] if j[1] == "fixed"}
    assert merged.n == held.n - len(fixed)
    assert merged.link_names() == held.link_names()
    col = {b.joint_name: k for k, b in enumerate(held.bodies)}
    shared = [col[b.joint_name] for b in merged.bodies]
    pinned = [col[name] for name in sorted(fixed)]
    rng = np.random.default_rng(13)
    for _ in range(5):
        q, qd, qdd = (rng.uniform(-1.5, 1.5, merged.n) for _ in range(3))
        qf, qdf, qddf = (np.zeros(held.n) for _ in range(3))
        qf[shared], qdf[shared], qddf[shared] = q, qd, qdd

        tau = np.array(rnea(merged, list(q), list(qd), list(qdd)))
        tau_f = np.array(rnea(held, list(qf), list(qdf), list(qddf)))
        np.testing.assert_allclose(tau_f[shared], tau, rtol=0, atol=1e-10)

        M = np.asarray(mass_matrix(merged, list(q)))
        M_f = np.asarray(mass_matrix(held, list(qf)))
        np.testing.assert_allclose(M_f[np.ix_(shared, shared)], M, rtol=0, atol=1e-10)

        # drive the held model with the merged model's torques plus the
        # torques that hold the pinned joints: they must stay at rest
        tau_in = rng.uniform(-5, 5, merged.n)
        acc = np.array(aba(merged, list(q), list(qd), list(tau_in)))
        qddf[shared] = acc
        tau_full = np.array(rnea(held, list(qf), list(qdf), list(qddf)))
        tau_full[shared] = tau_in
        acc_f = np.array(aba(held, list(qf), list(qdf), list(tau_full)))
        np.testing.assert_allclose(acc_f[pinned], 0.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(acc_f[shared], acc, rtol=0, atol=1e-10)

        poses = forward_kinematics(merged, list(q))
        poses_f = forward_kinematics(held, list(qf))
        for link in merged.link_names():
            np.testing.assert_allclose(poses[link].position.values(),
                                       poses_f[link].position.values(), atol=1e-14)
            np.testing.assert_allclose(np.array(poses[link].rotation.rows()),
                                       np.array(poses_f[link].rotation.rows()),
                                       atol=1e-14)
            J = link_jacobian(merged, list(q), link)
            np.testing.assert_allclose(link_jacobian(held, list(qf), link)[:, shared],
                                       J, atol=1e-14)


def test_inertias_argument_must_have_one_entry_per_body(two_link):
    # a per-link list (base, link1, link2, tool) is the wrong layout
    per_link = [SpatialInertia.zero()] + two_link.inertias() + [SpatialInertia.zero()]
    with pytest.raises(ValueError, match="inertias must have length 2, got 4"):
        two_link.with_inertias(per_link)


def test_potential_energy_rejects_short_inertias(six_dof):
    q = [0.1] * 6
    np.testing.assert_allclose(potential_energy(six_dof, q), 22.686, atol=1e-3)
    with pytest.raises(ValueError, match="inertias must have length 6, got 1"):
        six_dof.with_inertias(six_dof.inertias()[:1])


def test_with_inertias_is_a_new_model_and_leaves_the_original_untouched(six_dof):
    before = list(zip(six_dof.bodies, six_dof.inertias()))
    params = np.array([I.params() for I in six_dof.inertias()]).tobytes()
    q, qd, qdd = [0.4, -0.3, 0.2, 0.5, -0.6, 0.1], [0.3] * 6, [0.2] * 6
    tau = np.array(rnea(six_dof, q, qd, qdd))
    heavy = six_dof.with_inertias([SpatialInertia(2.0 * I.mass, I.com,
                                                  I.rot_inertia.scale(2.0))
                                   for I in six_dof.inertias()])
    assert heavy is not six_dof and heavy.n == six_dof.n
    assert not any(a is b for a, b in zip(heavy.bodies, six_dof.bodies))
    assert list(zip(six_dof.bodies, six_dof.inertias())) == before
    assert np.array([I.params() for I in six_dof.inertias()]).tobytes() == params
    assert np.array(rnea(six_dof, q, qd, qdd)).tobytes() == tau.tobytes()
    # doubling every inertia doubles every torque exactly
    assert np.array(rnea(heavy, q, qd, qdd)).tobytes() == (2.0 * tau).tobytes()


def _outcome(fn, *args):
    """The bytes of ``fn(*args)`` as a float array, or the error it raised."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except DynamicsError as exc:
        return type(exc), str(exc)


def _rollout(model, q, qd):
    return [np.hstack(sample) for sample in simulate(model, q, qd, None, 0.01, 40)]


@pytest.mark.parametrize("name", ["pendulum", "pendulum_mass2", "two_link_planar",
                                  "six_dof_arm", "bad_inertia"])
def test_model_with_its_own_inertias_gives_identical_dynamics(name):
    model = rd.load_model(rd.fixture_path(name))
    view = model.with_inertias(model.inertias())
    rng = np.random.default_rng(41)
    for _ in range(5):
        q, qd, tau = (list(x) for x in random_state(model, rng, scale=3.0))
        for fn, args in ((rnea, (q, qd, tau)), (aba, (q, qd, tau)), (mass_matrix, (q,)),
                         (_rollout, (q, qd))):
            assert _outcome(fn, view, *args) == _outcome(fn, model, *args), fn.__name__


def test_potential_energy_rejects_kinematics_only_model():
    model = rd.load_model(rd.fixture_path("pendulum"), kinematics_only=True)
    with pytest.raises(DynamicsError, match="kinematics_only"):
        potential_energy(model, [0.0])


def test_mass_fixed_to_the_base_changes_no_dynamics():
    links, joints = MERGE_CASES["pedestal"]
    bare = [(name, None if name == "pedestal" else inertial) for name, inertial in links]
    with_mass = rd.build_model(rd.parse_urdf(urdf_text("p", links, joints)))
    without = rd.build_model(rd.parse_urdf(urdf_text("p", bare, joints)))
    rng = np.random.default_rng(14)
    q, qd, tau = (list(rng.uniform(-1, 1, 2)) for _ in range(3))
    assert rnea(with_mass, q, qd, tau) == rnea(without, q, qd, tau)
    assert aba(with_mass, q, qd, tau) == aba(without, q, qd, tau)
    assert mass_matrix(with_mass, q) == mass_matrix(without, q)
    assert potential_energy(with_mass, q) == potential_energy(without, q)


# ---------------------------------------------------------------------------
# numpy batches: state entries that are arrays evaluate every sample at once

# branching, with revolute, continuous, prismatic and fixed joints
BRANCHED_TREE = (
    [("base", None), _box_link("l1", 2.0, (0.1, 0.0, 0.2), (0.3, 0.0, 0.1)),
     _box_link("l2", 1.0, (0.2, 0.05, 0.0)), _box_link("l3", 0.8, (0.0, 0.1, 0.1)),
     _box_link("l4", 0.5, (0.05, 0.0, 0.02), (0.0, 0.4, 0.0)), ("tip", None)],
    [("j1", "continuous", "base", "l1", (0, 0, 0.3), (0, 0, 0.2), (0, 0, 1)),
     ("j2", "revolute", "l1", "l2", (0.2, 0.1, 0), (0.1, 0, 0), (0, 0.6, 0.8)),
     ("j3", "prismatic", "l1", "l3", (0, -0.2, 0.1), (0, 0.3, 0), (1, 0, 0)),
     ("j4", "continuous", "l3", "l4", (0.3, 0, 0), (0, 0, 0.5), (0, 1, 0)),
     ("j5", "fixed", "l2", "tip", (0.4, 0, 0), (0, 0, 0), (0, 0, 1))])


def _batch_model(name):
    if name == "branched":
        return rd.build_model(rd.parse_urdf(urdf_text(name, *BRANCHED_TREE)))
    return rd.load_model(rd.fixture_path(name))


@pytest.mark.parametrize("name", ["pendulum", "two_link_planar", "six_dof_arm", "branched"])
def test_batched_forward_dynamics_equals_scalar_calls_bit_for_bit(name):
    model = _batch_model(name)
    rng = np.random.default_rng(21)
    states = [random_state(model, rng) for _ in range(7)]
    q, qd, tau = (list(np.array(x).T) for x in zip(*states))
    for fn in (aba, forward_dynamics_cholesky):
        batch = np.array(np.broadcast_arrays(*fn(model, q, qd, tau)))
        scalar = np.array([fn(model, list(a), list(b), list(c)) for a, b, c in states]).T
        assert batch.tobytes() == scalar.tobytes(), fn.__name__


def test_batched_forward_dynamics_singular_sample_names_the_joint(two_link):
    # sample 2 of 4 gives the last link no inertia at all
    scale = np.array([1.0, 1.0, 0.0, 1.0])
    *inner, last = two_link.inertias()
    model = two_link.with_inertias(inner + [SpatialInertia(last.mass * scale, last.com,
                                                           last.rot_inertia.scale(scale))])
    q, qd, tau = ([np.full(4, v), np.full(4, -v)] for v in (0.3, 0.5, 0.1))
    with pytest.raises(DynamicsError) as exc:
        aba(model, q, qd, tau)
    assert "joint 'elbow'" in str(exc.value) and "(axis inertia 0)" in str(exc.value)
    with pytest.raises(DynamicsError, match="not positive definite"):
        forward_dynamics_cholesky(model, q, qd, tau)
    keep = [0, 1, 3]
    ok = [SpatialInertia(last.mass * scale[keep], last.com,
                         last.rot_inertia.scale(scale[keep]))]
    qdd = aba(two_link.with_inertias(inner + ok), [x[keep] for x in q],
              [x[keep] for x in qd], [x[keep] for x in tau])
    assert np.all(np.isfinite(qdd))


# ---------------------------------------------------------------------------
# differentiability


def test_rnea_gradient_matches_finite_difference(two_link):
    rng = np.random.default_rng(9)
    n = two_link.n
    q, qd, _ = random_state(two_link, rng)
    qdd = rng.uniform(-2, 2, size=n)
    x0 = np.concatenate([q, qd, qdd])

    def f(xs):
        out = rnea(two_link, xs[:n], xs[n:2 * n], xs[2 * n:])
        return out[0] + 0.5 * out[1]

    assert ad.check_gradient(f, list(x0)) < 1e-7


def test_aba_gradient_matches_finite_difference(two_link):
    rng = np.random.default_rng(10)
    n = two_link.n
    q, qd, tau = random_state(two_link, rng)
    x0 = np.concatenate([q, qd, tau])

    def f(xs):
        out = aba(two_link, xs[:n], xs[n:2 * n], xs[2 * n:])
        return out[0] - out[1]

    assert ad.check_gradient(f, list(x0)) < 1e-6


def test_mass_matrix_entry_gradient(six_dof):
    rng = np.random.default_rng(11)
    q, _, _ = random_state(six_dof, rng)

    def f(xs):
        M = mass_matrix(six_dof, xs)
        return M[0][3] + M[2][2]

    assert ad.check_gradient(f, list(q)) < 1e-6


# ---------------------------------------------------------------------------
# energy and simulation


def test_potential_energy_matches_height(pendulum):
    # bob at angle q has height -sin q; U = -m g . c = G * z
    for q in (0.0, 0.5, -1.2):
        u = potential_energy(pendulum, [q])
        np.testing.assert_allclose(u, -G * np.sin(q), atol=1e-12)


def test_potential_energy_rejects_wrong_length_q(two_link):
    with pytest.raises(ValueError, match="q must have length 2, got 3"):
        potential_energy(two_link, [0.1, 0.2, 0.3])


def test_total_energy_rejects_wrong_length_qd(two_link):
    with pytest.raises(ValueError, match="qd must have length 2, got 3"):
        total_energy(two_link, [0.1, 0.2], [0.0, 0.0, 0.0])


def test_total_energy_is_kinetic_plus_potential(pendulum):
    q, qd = 0.3, 1.7
    e = total_energy(pendulum, [q], [qd])
    np.testing.assert_allclose(e, 0.5 * qd * qd - G * np.sin(q), atol=1e-12)


def test_simulate_equilibrium_is_constant(pendulum):
    traj = simulate(pendulum, [0.0], [0.0], None, 1e-3, 100,
                    gravity=NO_GRAVITY)
    assert len(traj) == 101
    for t, q, qd, qdd in traj:
        np.testing.assert_allclose(q, [0.0], atol=1e-15)
        np.testing.assert_allclose(qd, [0.0], atol=1e-15)


def test_simulate_free_spin_constant_velocity(pendulum):
    traj = simulate(pendulum, [0.2], [1.0], None, 1e-3, 1000,
                    gravity=NO_GRAVITY)
    t_end, q_end, qd_end, _ = traj[-1]
    np.testing.assert_allclose(t_end, 1.0, atol=1e-12)
    np.testing.assert_allclose(q_end, [1.2], atol=1e-9)
    np.testing.assert_allclose(qd_end, [1.0], atol=1e-12)


def test_simulate_rk4_energy_drift_small(pendulum):
    traj = simulate(pendulum, [0.5], [0.0], None, 1e-3, 2000)
    e0 = total_energy(pendulum, list(traj[0][1]), list(traj[0][2]))
    drift = max(abs(total_energy(pendulum, list(q), list(qd)) - e0)
                for _, q, qd, _ in traj[::100])
    assert drift < 1e-6


def test_simulate_torque_fn_is_applied(pendulum):
    # gravity-compensating controller holds the pendulum still
    def hold(t, q, qd):
        return np.array(gravity_term(pendulum, list(q)))

    traj = simulate(pendulum, [0.3], [0.0], hold, 1e-3, 200)
    np.testing.assert_allclose(traj[-1][1], [0.3], atol=1e-10)


def test_simulate_rejects_bad_arguments(pendulum):
    with pytest.raises(ValueError):
        simulate(pendulum, [0.0], [0.0], None, -1e-3, 10)
    with pytest.raises(ValueError):
        simulate(pendulum, [0.0], [0.0], None, 1e-3, 0)
    # RK4 is the only integrator
    with pytest.raises(TypeError, match="unexpected keyword argument 'integrator'"):
        simulate(pendulum, [0.0], [0.0], None, 1e-3, 10, integrator="euler")


def _assert_same_bytes(traj, want):
    assert len(traj) == len(want)
    for got, ref in zip(traj, want):
        assert got[0] == ref[0]
        for a, b in zip(got[1:], ref[1:]):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


def _reference_rollout(model, q, qd, torque_fn, dt, steps, gravity=None):
    """Fixed-step RK4 rollout calling ``torque_fn`` and ``aba`` at every
    stage, the first one included."""
    def accel(t, q, qd):
        return np.array(aba(model, list(q), list(qd), list(torque_fn(t, q, qd)),
                            gravity=gravity))

    q, qd = np.asarray(q, dtype=float), np.asarray(qd, dtype=float)
    traj = [(0.0, q, qd, accel(0.0, q, qd))]
    t = 0.0
    for _ in range(steps):
        k1q, k1v = qd, accel(t, q, qd)
        k2q, k2v = qd + 0.5 * dt * k1v, accel(t + 0.5 * dt, q + 0.5 * dt * k1q,
                                              qd + 0.5 * dt * k1v)
        k3q, k3v = qd + 0.5 * dt * k2v, accel(t + 0.5 * dt, q + 0.5 * dt * k2q,
                                              qd + 0.5 * dt * k2v)
        k4q, k4v = qd + dt * k3v, accel(t + dt, q + dt * k3q, qd + dt * k3v)
        q = q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        qd = qd + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t += dt
        traj.append((t, q, qd, accel(t, q, qd)))
    return traj


def test_simulate_evaluates_each_stage_once(six_dof):
    calls = [0]

    def damping(t, q, qd):
        calls[0] += 1
        return -0.5 * qd + 0.1 * np.sin(t)

    q0, qd0 = np.linspace(-0.4, 0.5, 6), np.linspace(0.8, -0.3, 6)
    steps = 25
    traj = simulate(six_dof, q0, qd0, damping, 2e-3, steps)
    assert calls[0] == 1 + 4 * steps
    _assert_same_bytes(traj, _reference_rollout(six_dof, q0, qd0, damping, 2e-3, steps))


@pytest.mark.parametrize("name", ["six_dof_arm", "two_link_planar"])
def test_passive_rollout_equals_reference_bytes(name):
    # the path of the energy_drift check: no torque_fn, no gravity
    model = rd.load_model(rd.fixture_path(name))
    n, steps = model.n, 40
    q0, qd0 = np.linspace(-0.4, 0.5, n), np.linspace(0.9, 0.5, n)
    traj = simulate(model, q0, qd0, None, 1e-3, steps, gravity=NO_GRAVITY)
    _assert_same_bytes(traj, _reference_rollout(model, q0, qd0, lambda t, q, qd: np.zeros(n),
                                                1e-3, steps, gravity=NO_GRAVITY))
    # every array is fresh: none is a view of another, or of the caller's input
    arrays = [a for sample in traj for a in sample[1:]]
    assert all(a.base is None for a in arrays)
    assert len({id(a) for a in arrays}) == len(arrays)
    assert not any(np.shares_memory(a, x) for a in arrays for x in (q0, qd0))


def test_simulate_takes_torque_as_list_or_none(two_link):
    seen = []

    def as_array(t, q, qd):
        seen.append((type(q), type(qd)))
        return np.array([0.3, -0.2])

    q0, qd0 = [0.2, -0.1], [0.5, 0.4]
    want = simulate(two_link, q0, qd0, as_array, 1e-3, 20)
    assert set(seen) == {(np.ndarray, np.ndarray)}
    _assert_same_bytes(simulate(two_link, q0, qd0, lambda t, q, qd: [0.3, -0.2], 1e-3, 20),
                       want)
    _assert_same_bytes(simulate(two_link, q0, qd0, lambda t, q, qd: None, 1e-3, 20),
                       simulate(two_link, q0, qd0, None, 1e-3, 20))


def test_simulate_nonfinite_torque_names_the_step(pendulum):
    def blow_up(t, q, qd):
        return np.array([np.inf if t > 0.05 else 0.0])

    with pytest.raises(DynamicsError) as exc:
        simulate(pendulum, [0.0], [0.0], blow_up, 1e-2, 100,
                 gravity=NO_GRAVITY)
    assert str(exc.value) == "non-finite state at step 5"


@pytest.mark.parametrize("q0,qd0,tau", [([np.nan], [0.0], 0.0), ([0.0], [np.inf], 0.0),
                                        ([0.0], [0.0], np.nan)], ids=["q", "qd", "tau"])
def test_simulate_nonfinite_initial_state(pendulum, q0, qd0, tau):
    seen = []

    def torque(t, q, qd):
        seen.append((q, qd))
        return np.array([tau])

    with pytest.raises(DynamicsError) as exc:
        simulate(pendulum, q0, qd0, torque, 1e-2, 10, gravity=NO_GRAVITY)
    assert str(exc.value) == "non-finite initial state"
    # torque_fn never sees a non-finite state
    assert all(np.all(np.isfinite(q)) and np.all(np.isfinite(qd)) for q, qd in seen)
