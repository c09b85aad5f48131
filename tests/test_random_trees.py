"""Property tests on random valid URDF trees: the cross-algorithm oracles of
``robot check``, the straight-line ``aba`` kernel against the generic
``aba``, an independent forward-kinematics oracle, the analytic IK
gradient against reverse-mode AD, and the inertial regressor (and the
identification gradient built on it) against batched ``rnea``.

Trees have 1-6 movable joints (revolute, continuous, prismatic) and 0-3
fixed joints, each attached under a random earlier link, so chains branch.
Ranges, fixed up front: joint origins and CoM offsets are 0.05-1 m long in
a random direction with random rpy; axes are random unit vectors; each
inertia is that of a solid box with sides 0.05-1 m and mass 0.1-10 kg,
rotated by a random rpy.  Fixed links and the base carry mass or none.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import robotdyn as rd
from robotdyn import learn, selfcheck
from robotdyn.dynamics import aba
from robotdyn.tracing import trace_kernel
from conftest import random_state, urdf_text
from test_dynamics import assert_regressor_matches_rnea
from test_kinematics import assert_ik_gradient_matches_ad
from test_learn import FIELD_SETS, assert_fit_gradient_matches_loss_gradient

MOVABLE = ("revolute", "continuous", "prismatic")

angles = st.floats(-np.pi, np.pi)
rpys = st.tuples(angles, angles, angles)


@st.composite
def unit_vectors(draw):
    z = draw(st.floats(-1.0, 1.0))
    phi = draw(angles)
    r = np.sqrt(1.0 - z * z)
    return (r * np.cos(phi), r * np.sin(phi), z)


@st.composite
def offsets(draw):
    length = draw(st.floats(0.05, 1.0))
    return tuple(length * c for c in draw(unit_vectors()))


@st.composite
def box_inertials(draw):
    mass = draw(st.floats(0.1, 10.0))
    a, b, c = (draw(st.floats(0.05, 1.0)) for _ in range(3))
    k = mass / 12.0
    inertia = (k * (b * b + c * c), 0.0, 0.0, k * (a * a + c * c), 0.0,
               k * (a * a + b * b))
    return (mass, draw(offsets()), draw(rpys), inertia)


@st.composite
def robot_trees(draw):
    """(links, joints) tuples for ``urdf_text``: link k is the child of joint k."""
    n_movable = draw(st.integers(1, 6))
    n_fixed = draw(st.integers(0, 3))
    types = draw(st.permutations([None] * n_movable + ["fixed"] * n_fixed))
    links = [("base", draw(st.none() | box_inertials()))]
    joints = []
    for k, jtype in enumerate(types, start=1):
        jtype = jtype or draw(st.sampled_from(MOVABLE))
        parent = links[draw(st.integers(0, k - 1))][0]
        inertial = draw(box_inertials()) if jtype != "fixed" \
            else draw(st.none() | box_inertials())
        links.append((f"l{k}", inertial))
        joints.append((f"j{k}", jtype, parent, f"l{k}", draw(offsets()), draw(rpys),
                       draw(unit_vectors())))
    return links, joints


def _rpy_matrix(rpy):
    r, p, y = rpy
    cr, sr, cp, sp, cy, sy = np.cos(r), np.sin(r), np.cos(p), np.sin(p), np.cos(y), np.sin(y)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _axis_angle_matrix(axis, t):
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(t) * k + (1.0 - np.cos(t)) * (k @ k)


def _reference_poses(joints, coords):
    """Link poses by composing 4x4 homogeneous matrices, joint by joint."""
    poses = {"base": np.eye(4)}
    for name, jtype, parent, child, xyz, rpy, axis in joints:
        origin = np.eye(4)
        origin[:3, :3], origin[:3, 3] = _rpy_matrix(rpy), xyz
        motion = np.eye(4)
        t = coords.get(name, 0.0)
        if jtype == "prismatic":
            motion[:3, 3] = t * np.asarray(axis)
        elif jtype != "fixed":
            motion[:3, :3] = _axis_angle_matrix(axis, t)
        poses[child] = poses[parent] @ origin @ motion
    return poses


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(robot_trees())
def test_random_tree_passes_algebraic_checks(tree):
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    assert model.n == sum(j[1] != "fixed" for j in joints)
    report = selfcheck.run_checks(model, seed=0, n_states=3, grad_states=1)
    for name, c in report["checks"].items():
        assert c["passed"], f"{name}: max_error {c['max_error']:.3g} >= {c['tolerance']:g}"


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(robot_trees())
def test_random_tree_aba_kernel_equals_generic(tree):
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    n = model.n
    kernel = trace_kernel(lambda *state: aba(model, *state), n, n, n)
    rng = np.random.default_rng(0)
    for _ in range(10):
        state = [x.tolist() for x in random_state(model, rng, scale=3.0)]
        got, want = kernel(*state), aba(model, *state)
        assert got is not None   # finite, nonzero and no guard held
        assert got == want
        assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(robot_trees(), st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_random_tree_fk_round_trip(tree, values):
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    assert model.link_names()[0] == "base"
    assert sorted(model.link_names()) == sorted(name for name, _ in links)
    q = values[:model.n]
    coords = {b.joint_name: qi for b, qi in zip(model.bodies, q)}
    want = _reference_poses(joints, coords)
    for link, pose in rd.forward_kinematics(model, q).items():
        np.testing.assert_allclose(pose.position.values(), want[link][:3, 3], atol=1e-12)
        np.testing.assert_allclose(np.array(pose.rotation.rows()), want[link][:3, :3],
                                   atol=1e-12)


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(robot_trees(), st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12))
def test_random_tree_ik_gradient_equals_ad_gradient(tree, values):
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    q, q_target = values[:model.n], values[6:6 + model.n]
    poses = rd.forward_kinematics(model, q_target)
    for link in model.link_names():
        assert_ik_gradient_matches_ad(model, link, q, poses[link])


GRAVITIES = (None, (0.0, 0.0, 0.0))


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(robot_trees(), st.sampled_from(GRAVITIES))
def test_random_tree_regressor_equals_rnea(tree, gravity):
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    rng = np.random.default_rng(0)
    q, qd, qdd = (list(rng.uniform(-3.0, 3.0, (20, model.n)).T) for _ in range(3))
    assert_regressor_matches_rnea(model, q, qd, qdd, gravity=gravity)


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(robot_trees(), st.sampled_from(GRAVITIES))
def test_random_tree_regressor_loads_only_ancestor_joints(tree, gravity):
    # body i's 10 columns reach joint j only when j is i or an ancestor of i
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    rng = np.random.default_rng(0)
    q, qd, qdd = (list(rng.uniform(-3.0, 3.0, (20, model.n)).T) for _ in range(3))
    Y = rd.regressor(model, q, qd, qdd, gravity=gravity)
    for i in range(model.n):
        loaded, k = set(), i
        while k >= 0:
            loaded.add(k)
            k = model.bodies[k].parent
        for j in range(model.n):
            block = Y[:, j, 10 * i:10 * i + 10]
            assert np.any(block != 0.0) if j in loaded else np.all(block == 0.0)


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(robot_trees(), st.sampled_from(GRAVITIES), st.sampled_from(FIELD_SETS),
       st.integers(0, 5))
def test_random_tree_fit_gradient_equals_loss_gradient(tree, gravity, fields, pick):
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    ds = learn.generate_dataset(model, 24, seed=1, gravity=gravity)
    store = learn.ParamStore(model)
    for field in fields:
        store.make_learnable(model.bodies[pick % model.n].name, field)
    rng = np.random.default_rng(2)
    raw = store.raw + rng.normal(0.0, 0.2, store.size)
    assert_fit_gradient_matches_loss_gradient(store, ds, raw, gravity=gravity)
    assert_fit_gradient_matches_loss_gradient(store, ds.subset(rng.permutation(24)[:8]), raw,
                                              gravity=gravity)
