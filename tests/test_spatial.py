"""Spatial vector algebra: frozen closed-form oracles plus 6x6 matrix oracles.

The 6x6 matrices are materialized here (and only here) to validate the
blockwise 3x3 implementation against the textbook operators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robotdyn import autodiff as ad
from robotdyn.spatial import (
    ForceVector,
    Mat33,
    MotionVector,
    SpatialInertia,
    SpatialTransform,
    Vec3,
    cross_force,
    cross_motion,
    parallel_axis_term,
    rot_axis_angle,
    rot_x,
    rot_y,
    rot_z,
    xform_from_rpy_xyz,
)

HALF_PI = 0.5 * np.pi


def v3(x, y, z):
    return Vec3(float(x), float(y), float(z))


def random_transform(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    R = rot_axis_angle(Vec3.fromlist(list(axis)), rng.uniform(-np.pi, np.pi))
    return SpatialTransform(R, Vec3.fromlist(list(rng.normal(size=3))))


def random_motion(rng):
    return MotionVector(Vec3.fromlist(list(rng.normal(size=3))),
                        Vec3.fromlist(list(rng.normal(size=3))))


def random_force(rng):
    return ForceVector(Vec3.fromlist(list(rng.normal(size=3))),
                       Vec3.fromlist(list(rng.normal(size=3))))


def random_inertia(rng):
    mass = float(rng.uniform(0.5, 3.0))
    com = Vec3.fromlist(list(rng.normal(size=3) * 0.3))
    L = np.tril(rng.normal(size=(3, 3)))
    L[np.diag_indices(3)] = np.abs(L[np.diag_indices(3)]) + 0.5
    I_com = L @ L.T
    I_o = Mat33.fromrows(I_com.tolist()) + parallel_axis_term(mass, com)
    return SpatialInertia(mass, com, I_o)


def motion_matrix(X):
    """6x6 child-to-parent motion transform: [[R, 0], [skew(p) R, R]]."""
    R = np.array(X.rot.rows())
    P = np.array(Mat33.skew(X.trans).rows())
    top = np.hstack([R, np.zeros((3, 3))])
    bot = np.hstack([P @ R, R])
    return np.vstack([top, bot])


def force_matrix(X):
    """6x6 child-to-parent force transform: [[R, skew(p) R], [0, R]]."""
    R = np.array(X.rot.rows())
    P = np.array(Mat33.skew(X.trans).rows())
    top = np.hstack([R, P @ R])
    bot = np.hstack([np.zeros((3, 3)), R])
    return np.vstack([top, bot])


def cross_motion_matrix(v):
    W = np.array(Mat33.skew(v.ang).rows())
    V = np.array(Mat33.skew(v.lin).rows())
    return np.vstack([np.hstack([W, np.zeros((3, 3))]), np.hstack([V, W])])


def inertia_matrix(I):
    """6x6 origin-referenced spatial inertia [[I_o, skew(h)], [skew(h)^T, mE]]."""
    H = np.array(Mat33.skew(I.com.scale(I.mass)).rows())
    top = np.hstack([np.array(I.rot_inertia.rows()), H])
    bot = np.hstack([H.T, I.mass * np.eye(3)])
    return np.vstack([top, bot])


# ---------------------------------------------------------------------------
# rotations and xform_from_rpy_xyz


def test_rpy_identity():
    X = xform_from_rpy_xyz(Vec3.zero(), Vec3.zero())
    np.testing.assert_allclose(X.rot.values(), Mat33.identity().values(),
                               atol=1e-15)
    np.testing.assert_allclose(X.trans.values(), [0, 0, 0], atol=1e-15)


def test_rpy_yaw_quarter_turn_maps_x_to_y():
    X = xform_from_rpy_xyz(v3(0, 0, HALF_PI), Vec3.zero())
    p = X.apply_point(v3(1, 0, 0))
    np.testing.assert_allclose(p.values(), [0, 1, 0], atol=1e-15)


def test_rpy_pure_translation():
    X = xform_from_rpy_xyz(Vec3.zero(), v3(1, 2, 3))
    np.testing.assert_allclose(X.rot.values(), Mat33.identity().values(),
                               atol=1e-15)
    p = X.apply_point(v3(0.5, -1, 2))
    np.testing.assert_allclose(p.values(), [1.5, 1, 5], atol=1e-15)


def test_rpy_order_is_z_then_y_then_x():
    rng = np.random.default_rng(0)
    r, p, y = rng.uniform(-2, 2, size=3)
    X = xform_from_rpy_xyz(v3(r, p, y), Vec3.zero())
    expect = (np.array(rot_z(y).rows()) @ np.array(rot_y(p).rows())
              @ np.array(rot_x(r).rows()))
    np.testing.assert_allclose(np.array(X.rot.rows()), expect, atol=1e-14)


def test_rot_axis_angle_matches_elementary_rotations():
    t = 0.731
    for axis, elem in ((v3(1, 0, 0), rot_x(t)), (v3(0, 1, 0), rot_y(t)),
                       (v3(0, 0, 1), rot_z(t))):
        np.testing.assert_allclose(rot_axis_angle(axis, t).values(),
                                   elem.values(), atol=1e-15)


def test_rot_axis_angle_equals_its_matrix_form_bit_for_bit():
    # the single-matrix build sums each entry as E + sin(t) K + (1 - cos(t)) K^2
    # does, so the result and the gradient of every entry are unchanged
    rng = np.random.default_rng(4)
    axes = [v3(1, 0, 0), v3(0, -1, 0), v3(0, 0, 1)]
    for _ in range(20):
        a = rng.normal(size=3)
        axes.append(Vec3.fromlist(list(a / np.linalg.norm(a))))
    for axis in axes:
        k = Mat33.skew(axis)
        kk = k.matmat(k)

        def matrix_form(t):
            return Mat33.identity() + k.scale(ad.sin(t)) + kk.scale(1.0 - ad.cos(t))

        t = rng.uniform(-np.pi, np.pi)
        assert rot_axis_angle(axis, t).rows() == matrix_form(t).rows()
        for entry in range(9):
            grads = [ad.gradient(lambda ts: f(ts[0]).rows()[entry // 3][entry % 3], [t])
                     for f in (lambda x: rot_axis_angle(axis, x), matrix_form)]
            assert grads[0].tobytes() == grads[1].tobytes()


def test_transpose_products_match_explicit_transpose():
    rng = np.random.default_rng(6)
    M = Mat33(*rng.normal(size=9))
    v = v3(*rng.normal(size=3))
    assert M.tmatvec(v).values() == M.T().matvec(v).values()
    X = random_transform(rng)
    m = MotionVector(v3(*rng.normal(size=3)), v3(*rng.normal(size=3)))
    rt = X.rot.T()
    want = MotionVector(rt.matvec(m.ang), rt.matvec(m.lin - X.trans.cross(m.ang)))
    assert X.apply_motion_inv(m).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# compose / inverse


def test_compose_identity_cases():
    rng = np.random.default_rng(1)
    X = random_transform(rng)
    E = SpatialTransform.identity()
    for Y in (X.compose(E), E.compose(X)):
        np.testing.assert_allclose(Y.rot.values(), X.rot.values(), atol=1e-15)
        np.testing.assert_allclose(Y.trans.values(), X.trans.values(),
                                   atol=1e-15)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(2)
    X = random_transform(rng)
    Y = X.compose(X.inverse())
    np.testing.assert_allclose(Y.rot.values(), Mat33.identity().values(),
                               atol=1e-12)
    np.testing.assert_allclose(Y.trans.values(), [0, 0, 0], atol=1e-12)


def test_compose_is_associative():
    rng = np.random.default_rng(3)
    A, B, C = (random_transform(rng) for _ in range(3))
    left = A.compose(B).compose(C)
    right = A.compose(B.compose(C))
    np.testing.assert_allclose(left.rot.values(), right.rot.values(),
                               atol=1e-13)
    np.testing.assert_allclose(left.trans.values(), right.trans.values(),
                               atol=1e-13)


def test_inverse_of_pure_translation():
    X = SpatialTransform(Mat33.identity(), v3(1, 0, 0))
    Xi = X.inverse()
    np.testing.assert_allclose(Xi.trans.values(), [-1, 0, 0], atol=1e-15)


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(4)
    for _ in range(5):
        X = random_transform(rng)
        Y = X.compose(X.inverse())
        np.testing.assert_allclose(Y.rot.values(), Mat33.identity().values(),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# motion / force transforms


def test_xform_motion_identity():
    rng = np.random.default_rng(5)
    v = random_motion(rng)
    w = SpatialTransform.identity().apply_motion(v)
    np.testing.assert_allclose(w.tolist(), v.tolist(), atol=1e-15)


def test_xform_motion_pure_rotation():
    X = SpatialTransform(rot_z(HALF_PI), Vec3.zero())
    v = MotionVector(v3(1, 0, 0), Vec3.zero())
    w = X.apply_motion(v)
    np.testing.assert_allclose(w.ang.values(), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(w.lin.values(), [0, 0, 0], atol=1e-15)


def test_xform_motion_pure_translation():
    # Child-to-parent convention: the linear part picks up + p x omega.
    p = v3(1, 2, 3)
    X = SpatialTransform(Mat33.identity(), p)
    v = MotionVector(v3(0.4, -0.2, 0.9), v3(1, 1, 1))
    w = X.apply_motion(v)
    expect = v.lin + p.cross(v.ang)
    np.testing.assert_allclose(w.ang.values(), v.ang.values(), atol=1e-15)
    np.testing.assert_allclose(w.lin.values(), expect.values(), atol=1e-15)


def test_xform_motion_matches_6x6_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = random_transform(rng)
        v = random_motion(rng)
        got = np.array(X.apply_motion(v).tolist())
        want = motion_matrix(X) @ np.array(v.tolist())
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_xform_force_identity_and_rotation():
    rng = np.random.default_rng(7)
    f = random_force(rng)
    g = SpatialTransform.identity().apply_force(f)
    np.testing.assert_allclose(g.tolist(), f.tolist(), atol=1e-15)
    X = SpatialTransform(rot_y(0.37), Vec3.zero())
    g = X.apply_force(f)
    np.testing.assert_allclose(g.ang.values(), X.rot.matvec(f.ang).values(),
                               atol=1e-15)
    np.testing.assert_allclose(g.lin.values(), X.rot.matvec(f.lin).values(),
                               atol=1e-15)


def test_xform_force_pure_translation():
    # Dual of the motion map: the torque picks up + p x F.
    p = v3(1, 2, 3)
    X = SpatialTransform(Mat33.identity(), p)
    f = ForceVector(v3(0.3, 0.1, -0.5), v3(2, -1, 0.5))
    g = X.apply_force(f)
    expect = f.ang + p.cross(f.lin)
    np.testing.assert_allclose(g.ang.values(), expect.values(), atol=1e-15)
    np.testing.assert_allclose(g.lin.values(), f.lin.values(), atol=1e-15)


def test_xform_force_matches_6x6_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        X = random_transform(rng)
        f = random_force(rng)
        got = np.array(X.apply_force(f).tolist())
        want = force_matrix(X) @ np.array(f.tolist())
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_force_transform_is_inverse_transpose_dual():
    rng = np.random.default_rng(9)
    X = random_transform(rng)
    np.testing.assert_allclose(force_matrix(X),
                               np.linalg.inv(motion_matrix(X)).T, atol=1e-12)


def test_power_pairing_is_invariant():
    rng = np.random.default_rng(10)
    for _ in range(10):
        X = random_transform(rng)
        v, f = random_motion(rng), random_force(rng)
        before = v.dot(f)
        after = X.apply_motion(v).dot(X.apply_force(f))
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12)


def test_apply_motion_inv_roundtrip():
    rng = np.random.default_rng(11)
    X = random_transform(rng)
    v = random_motion(rng)
    back = X.apply_motion_inv(X.apply_motion(v))
    np.testing.assert_allclose(back.tolist(), v.tolist(), atol=1e-13)
    f = random_force(rng)
    fback = X.apply_force_inv(X.apply_force(f))
    np.testing.assert_allclose(fback.tolist(), f.tolist(), atol=1e-13)


# ---------------------------------------------------------------------------
# spatial cross products


def test_cross_motion_self_vanishes():
    rng = np.random.default_rng(12)
    v = random_motion(rng)
    z = cross_motion(v, v)
    np.testing.assert_allclose(z.tolist(), [0] * 6, atol=1e-15)


def test_cross_motion_table_case():
    v = MotionVector(v3(0, 0, 1), Vec3.zero())
    m = MotionVector(v3(1, 0, 0), Vec3.zero())
    out = cross_motion(v, m)
    np.testing.assert_allclose(out.ang.values(), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(out.lin.values(), [0, 0, 0], atol=1e-15)


def test_cross_motion_zero_operand():
    rng = np.random.default_rng(13)
    m = random_motion(rng)
    out = cross_motion(MotionVector.zero(), m)
    np.testing.assert_allclose(out.tolist(), [0] * 6, atol=1e-15)


def test_cross_force_zero_and_table_case():
    rng = np.random.default_rng(14)
    f = random_force(rng)
    out = cross_force(MotionVector.zero(), f)
    np.testing.assert_allclose(out.tolist(), [0] * 6, atol=1e-15)
    v = MotionVector(v3(0, 0, 1), Vec3.zero())
    g = cross_force(v, ForceVector(v3(1, 0, 0), Vec3.zero()))
    np.testing.assert_allclose(g.ang.values(), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(g.lin.values(), [0, 0, 0], atol=1e-15)


def test_cross_force_is_negative_transpose_of_cross_motion():
    rng = np.random.default_rng(15)
    for _ in range(10):
        v, f = random_motion(rng), random_force(rng)
        got = np.array(cross_force(v, f).tolist())
        want = -cross_motion_matrix(v).T @ np.array(f.tolist())
        np.testing.assert_allclose(got, want, atol=1e-13)


# ---------------------------------------------------------------------------
# spatial inertia


def test_inertia_point_mass_linear_momentum():
    I = SpatialInertia(2.0, Vec3.zero(), Mat33.zero())
    f = I.times_motion(MotionVector(Vec3.zero(), v3(1, 0, 0)))
    np.testing.assert_allclose(f.ang.values(), [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(f.lin.values(), [2, 0, 0], atol=1e-15)


def test_inertia_diagonal_angular_momentum():
    I = SpatialInertia(1.0, Vec3.zero(), Mat33.diag(1.0, 2.0, 3.0))
    f = I.times_motion(MotionVector(v3(0, 0, 1), Vec3.zero()))
    np.testing.assert_allclose(f.ang.values(), [0, 0, 3], atol=1e-15)
    np.testing.assert_allclose(f.lin.values(), [0, 0, 0], atol=1e-15)


def test_inertia_zero_motion():
    rng = np.random.default_rng(16)
    I = random_inertia(rng)
    f = I.times_motion(MotionVector.zero())
    np.testing.assert_allclose(f.tolist(), [0] * 6, atol=1e-15)


def test_inertia_times_motion_matches_6x6_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        I = random_inertia(rng)
        v = random_motion(rng)
        got = np.array(I.times_motion(v).tolist())
        want = inertia_matrix(I) @ np.array(v.tolist())
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_inertia_transform_identity():
    rng = np.random.default_rng(18)
    I = random_inertia(rng)
    J = I.transform(SpatialTransform.identity())
    np.testing.assert_allclose(J.mass, I.mass)
    np.testing.assert_allclose(J.com.values(), I.com.values(), atol=1e-15)
    np.testing.assert_allclose(J.rot_inertia.values(),
                               I.rot_inertia.values(), atol=1e-14)


def test_inertia_transform_pure_translation_of_point_mass():
    # Child-to-parent: a point mass at the child origin lands at +p.
    p = v3(1, 2, 3)
    X = SpatialTransform(Mat33.identity(), p)
    I = SpatialInertia(2.0, Vec3.zero(), Mat33.zero())
    J = I.transform(X)
    np.testing.assert_allclose(J.com.values(), p.values(), atol=1e-15)
    np.testing.assert_allclose(J.rot_inertia.values(),
                               parallel_axis_term(2.0, p).values(), atol=1e-13)


def test_inertia_transform_roundtrip():
    rng = np.random.default_rng(19)
    I = random_inertia(rng)
    X = random_transform(rng)
    J = I.transform(X).transform(X.inverse())
    np.testing.assert_allclose(J.mass, I.mass, rtol=1e-12)
    np.testing.assert_allclose(J.com.values(), I.com.values(), atol=1e-12)
    np.testing.assert_allclose(J.rot_inertia.values(),
                               I.rot_inertia.values(), atol=1e-12)


def test_inertia_transform_congruence_oracle():
    # I' = X_F I X_M^{-1} on the materialized 6x6 operators.
    rng = np.random.default_rng(20)
    for _ in range(5):
        I = random_inertia(rng)
        X = random_transform(rng)
        J = I.transform(X)
        want = force_matrix(X) @ inertia_matrix(I) @ np.linalg.inv(
            motion_matrix(X))
        np.testing.assert_allclose(inertia_matrix(J), want, atol=1e-11)


def test_kinetic_energy_is_frame_invariant():
    rng = np.random.default_rng(21)
    for _ in range(5):
        I = random_inertia(rng)
        v = random_motion(rng)
        X = random_transform(rng)
        e1 = I.kinetic_energy(v)
        e2 = I.transform(X).kinetic_energy(X.apply_motion(v))
        np.testing.assert_allclose(e2, e1, rtol=1e-11, atol=1e-12)


def test_parallel_axis_term_formula():
    c = v3(0.2, -0.4, 0.7)
    m = 1.7
    got = np.array(parallel_axis_term(m, c).rows())
    cv = np.array(c.values())
    want = m * (np.dot(cv, cv) * np.eye(3) - np.outer(cv, cv))
    np.testing.assert_allclose(got, want, atol=1e-15)


# ---------------------------------------------------------------------------
# property tests

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(st.lists(finite, min_size=3, max_size=3),
       st.lists(finite, min_size=3, max_size=3))
def test_vec3_cross_is_antisymmetric(a, b):
    u, v = Vec3.fromlist(a), Vec3.fromlist(b)
    np.testing.assert_allclose((u.cross(v) + v.cross(u)).values(), [0, 0, 0],
                               atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
       st.lists(finite, min_size=3, max_size=3))
def test_rotation_preserves_norm(angle, axis):
    a = np.array(axis)
    n = np.linalg.norm(a)
    if n < 1e-6:
        a = np.array([0.0, 0.0, 1.0])
        n = 1.0
    R = rot_axis_angle(Vec3.fromlist(list(a / n)), angle)
    v = v3(0.3, -1.2, 2.0)
    np.testing.assert_allclose(R.matvec(v).norm(), v.norm(), rtol=1e-12)
