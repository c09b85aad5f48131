"""Autodiff engine: closed-form derivatives, mode agreement, error paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robotdyn import autodiff as ad
from robotdyn.kinematics import forward_kinematics
import robotdyn as rd


# ---------------------------------------------------------------------------
# reverse mode: values and closed-form derivatives


def test_value_passthrough_identity():
    t = ad.Tape()
    x = t.var(3.5)
    y = x * 1.0
    assert ad.value(y) == 3.5
    ad.backward(y)
    assert x.adj == 1.0


def test_square_derivative_at_three():
    g = ad.gradient(lambda xs: xs[0] * xs[0], [3.0])
    np.testing.assert_allclose(g, [6.0], rtol=1e-12)
    # cross-check against central finite differences
    err = ad.check_gradient(lambda xs: xs[0] * xs[0], [3.0])
    assert err < 1e-9


def test_sin_derivative_at_zero():
    g = ad.gradient(lambda xs: ad.sin(xs[0]), [0.0])
    np.testing.assert_allclose(g, [1.0], rtol=1e-12)


def test_gradient_of_sum_is_ones():
    g = ad.gradient(lambda xs: xs[0] + xs[1] + xs[2], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(g, [1.0, 1.0, 1.0], rtol=1e-15)


def test_gradient_product_rule():
    g = ad.gradient(lambda xs: xs[0] * xs[1], [2.0, 3.0])
    np.testing.assert_allclose(g, [3.0, 2.0], rtol=1e-15)


def test_gradient_of_constant_is_zero():
    g = ad.gradient(lambda xs: 7.0, [1.0, 2.0])
    np.testing.assert_allclose(g, [0.0, 0.0])


def test_elementary_function_derivatives():
    x0 = 0.7
    cases = [
        (lambda xs: ad.sin(xs[0]), np.cos(x0)),
        (lambda xs: ad.cos(xs[0]), -np.sin(x0)),
        (lambda xs: ad.exp(xs[0]), np.exp(x0)),
        (lambda xs: ad.log(xs[0]), 1.0 / x0),
        (lambda xs: ad.sqrt(xs[0]), 0.5 / np.sqrt(x0)),
        (lambda xs: ad.acos(xs[0]), -1.0 / np.sqrt(1.0 - x0 * x0)),
        (lambda xs: xs[0] ** 3, 3.0 * x0 * x0),
        (lambda xs: 1.0 / xs[0], -1.0 / (x0 * x0)),
        (lambda xs: abs(xs[0]), 1.0),
    ]
    for f, want in cases:
        np.testing.assert_allclose(ad.gradient(f, [x0]), [want], rtol=1e-12)


def test_chain_rule_composition():
    f = lambda xs: ad.sin(ad.exp(xs[0] * xs[0]))
    x0 = 0.3
    want = np.cos(np.exp(x0 * x0)) * np.exp(x0 * x0) * 2 * x0
    np.testing.assert_allclose(ad.gradient(f, [x0]), [want], rtol=1e-12)


def test_fan_out_accumulates_adjoints():
    # x used twice: d/dx (x*x + sin(x)) = 2x + cos(x)
    f = lambda xs: xs[0] * xs[0] + ad.sin(xs[0])
    x0 = 1.1
    np.testing.assert_allclose(ad.gradient(f, [x0]), [2 * x0 + np.cos(x0)],
                               rtol=1e-12)


def test_where_differentiates_taken_branch_only():
    f = lambda xs: ad.where(xs[0] > 0.0, xs[0] * xs[0], -xs[0])
    np.testing.assert_allclose(ad.gradient(f, [2.0]), [4.0], rtol=1e-12)
    np.testing.assert_allclose(ad.gradient(f, [-2.0]), [-1.0], rtol=1e-12)


def test_maximum_minimum_subgradients():
    f = lambda xs: ad.maximum(xs[0], 1.0) + ad.minimum(xs[1], -1.0)
    np.testing.assert_allclose(ad.gradient(f, [2.0, -2.0]), [1.0, 1.0])
    np.testing.assert_allclose(ad.gradient(f, [0.0, 0.0]), [0.0, 0.0])


def test_array_valued_tape_with_reductions():
    # One tape node per op even with array values; amean reduces to a scalar.
    xv = np.array([1.0, 2.0, 3.0, 4.0])

    def f(xs):
        s = xs[0]
        return ad.amean((s * xv) * (s * xv))

    g = ad.gradient(f, [2.0])
    want = np.mean(2.0 * 2.0 * xv * xv)
    np.testing.assert_allclose(g, [want], rtol=1e-12)


def test_asum_matches_numpy():
    t = ad.Tape()
    x = t.var(np.array([1.0, -2.0, 3.5]))
    y = ad.asum(x * x)
    np.testing.assert_allclose(ad.value(y), np.sum(np.array([1, -2, 3.5]) ** 2))


# ---------------------------------------------------------------------------
# non-finite propagation


def test_division_by_zero_propagates_then_reports():
    with pytest.raises(ad.NonFiniteError) as exc:
        ad.gradient(lambda xs: (1.0 / xs[0]) + xs[0], [0.0])
    assert "non-finite" in str(exc.value)


def test_sqrt_of_negative_propagates_nan():
    with pytest.raises(ad.NonFiniteError):
        ad.gradient(lambda xs: ad.sqrt(xs[0]), [-1.0])


def test_log_of_negative_propagates_nan():
    with pytest.raises(ad.NonFiniteError):
        ad.gradient(lambda xs: ad.log(xs[0]), [-1.0])


def test_finite_output_from_intermediate_branch_is_fine():
    # where() evaluates both branches but only the taken one matters.
    f = lambda xs: ad.where(xs[0] > 0.0, ad.sqrt(xs[0]), 0.0 * xs[0])
    np.testing.assert_allclose(ad.gradient(f, [4.0]), [0.25], rtol=1e-12)


# ---------------------------------------------------------------------------
# forward mode and mode agreement


def test_jacobian_fwd_identity_map():
    J = ad.jacobian_fwd(lambda xs: xs, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(J, np.eye(3))


def test_jacobian_fwd_linear_map():
    J = ad.jacobian_fwd(lambda xs: [xs[0] + xs[1], xs[0] - xs[1]], [5.0, 7.0])
    np.testing.assert_allclose(J, [[1, 1], [1, -1]])


def test_jacobian_fwd_constant_row_is_zero():
    J = ad.jacobian_fwd(lambda xs: [xs[0] * xs[1], 4.0], [2.0, 3.0])
    np.testing.assert_allclose(J, [[3, 2], [0, 0]])


def test_jacobian_rev_rows_equal_gradients_of_each_output(six_dof):
    # one tape, one backward sweep per output: each row is bit-identical to
    # the gradient of that output recorded on its own tape
    n = six_dof.n
    rng = np.random.default_rng(3)
    x = list(rng.uniform(-1.0, 1.0, 3 * n))

    def f(xs):
        return rd.rnea(six_dof, xs[:n], xs[n:2 * n], xs[2 * n:])

    J = ad.jacobian_rev(f, x)
    assert J.shape == (n, 3 * n)
    for k in range(n):
        assert J[k].tobytes() == ad.gradient(lambda xs: f(xs)[k], x).tobytes()
    np.testing.assert_allclose(ad.jacobian_rev(lambda xs: [xs[0] * xs[1], 4.0], [2.0, 3.0]),
                               [[3, 2], [0, 0]])
    with pytest.raises(ad.NonFiniteError):
        ad.jacobian_rev(lambda xs: [xs[0], 1.0 / xs[0]], [0.0])


BATCH = np.array([0.5, -1.5, 2.0, -0.25])

# One scalar function of (x, y, z) per operation; points are drawn from
# [-1, 1]^3, and each function keeps its operation inside its domain there.
AGREEMENT_CASES = {
    "composite": lambda x, y, z: x * ad.sin(y) + ad.exp(z * x) / (1.0 + y * y),
    "add": lambda x, y, z: x + y,
    "add_const": lambda x, y, z: x + 2.5,
    "radd": lambda x, y, z: 2.5 + x,
    "sub": lambda x, y, z: x - y,
    "sub_const": lambda x, y, z: x - 2.5,
    "rsub": lambda x, y, z: 2.5 - x,
    "mul": lambda x, y, z: x * y,
    "mul_const": lambda x, y, z: x * 2.5,
    "rmul": lambda x, y, z: 2.5 * x,
    "div": lambda x, y, z: x / (y + 3.0),
    "div_const": lambda x, y, z: x / 3.0,
    "rdiv": lambda x, y, z: 3.0 / (x + 2.0),
    "neg": lambda x, y, z: -(x * y),
    "pow": lambda x, y, z: (x + 2.0) ** 2.5,
    "abs": lambda x, y, z: abs(x) * y,
    "sin": lambda x, y, z: ad.sin(x * y),
    "cos": lambda x, y, z: ad.cos(x * y),
    "exp": lambda x, y, z: ad.exp(x * y),
    "log": lambda x, y, z: ad.log(x + 2.0 * y * y + 1.5),
    "sqrt": lambda x, y, z: ad.sqrt(x + y * y + 1.5),
    "acos": lambda x, y, z: ad.acos(0.5 * x * y),
    "maximum": lambda x, y, z: ad.maximum(x, y) * z,
    "minimum": lambda x, y, z: ad.minimum(x, y) * z,
    "where_array": lambda x, y, z: ad.asum(
        ad.where(BATCH * ad.value(x) > ad.value(y), x * BATCH, y * y * BATCH)),
    "maximum_batch": lambda x, y, z: ad.asum(ad.maximum(x * BATCH, y * BATCH) * z),
    "minimum_batch": lambda x, y, z: ad.asum(ad.minimum(x * BATCH, y) * z),
    "asum_batch": lambda x, y, z: ad.asum(ad.sin(x * BATCH) * y + z),
    "amean_batch": lambda x, y, z: ad.amean(ad.exp(BATCH * x) * y * z),
}


def test_forward_reverse_agreement_random():
    # every operator, elementary function and reduction agrees between the
    # two modes and with central finite differences
    rng = np.random.default_rng(0)
    for name, op in AGREEMENT_CASES.items():
        f = lambda xs: op(*xs)
        for _ in range(10):
            x0 = list(rng.uniform(-1, 1, size=3))
            g_rev = ad.gradient(f, x0)
            g_fwd = ad.jacobian_fwd(lambda xs: [f(xs)], x0)[0]
            np.testing.assert_allclose(g_rev, g_fwd, rtol=1e-12, atol=1e-14,
                                       err_msg=name)
            assert ad.check_gradient(f, x0) < 1e-6, name


@pytest.mark.parametrize("fn", [ad.sqrt, ad.log])
def test_jacobian_fwd_keeps_a_non_finite_partial_of_floats(fn):
    # partials of floats are never masked: d sqrt(x*y) at (0, 2) is
    # inf * (2, 0), so the partial with respect to y is NaN
    J = ad.jacobian_fwd(lambda xs: [fn(xs[0] * xs[1])], [0.0, 2.0])
    np.testing.assert_array_equal(J, [[np.inf, np.nan]])


def test_backward_cuts_off_a_nan_edge_of_floats_where_the_adjoint_is_zero():
    # the float sqrt node at 0 has an infinite partial; its adjoint is 0
    # (the output is times 0.0), so inf * 0 must contribute 0, as in forward
    B = np.array([1.0, 2.0])
    f = lambda xs: ad.asum((ad.sqrt(xs[0] * xs[1]) * B) * 0.0)
    assert ad.gradient(f, [0.0, 2.0]).tolist() == [0.0, 0.0]
    assert ad.jacobian_fwd(lambda xs: [f(xs)], [0.0, 2.0]).tolist() == [[0.0, 0.0]]
    # a zero partial (d(x*y)/dy = x = 0) times an infinite adjoint stays NaN,
    # as forward mode keeps the NaN of a float's partials (above)
    g = lambda xs: ad.sqrt(xs[0] * xs[1])
    np.testing.assert_array_equal(ad.gradient(g, [0.0, 2.0]), [np.inf, np.nan])
    np.testing.assert_array_equal(ad.jacobian_fwd(lambda xs: [g(xs)], [0.0, 2.0]),
                                  [[np.inf, np.nan]])


def test_dual_masks_only_batch_rows_whose_product_holds_a_nan():
    # -2 * row: a NaN row's zero-factor element is cut off to +0, as
    # _selected does; a NaN-free row, and the partials of a float, keep -0
    x = ad.Dual(np.array([1.0, 2.0, 3.0]), np.array([[1.0, 0.0, np.nan], [1.0, 0.0, 2.0]]))
    y = x * -2.0
    np.testing.assert_array_equal(y.partials, [[-2.0, 0.0, np.nan], [-2.0, 0.0, -4.0]])
    assert np.signbit(y.partials[:, 1]).tolist() == [False, True]
    z = ad.Dual(1.0, np.array([0.0, np.nan])) * -2.0
    assert np.signbit(z.partials[0]) and np.isnan(z.partials[1])


def test_batched_forward_mode_equals_float_forward_mode_per_sample(all_models):
    # aba on duals holding k samples, with partials seeded on [q; qd; tau]:
    # each sample's values are float aba's, and its partials are the float
    # Jacobian's, bit for bit
    k = 5
    rng = np.random.default_rng(6)
    for model in all_models:
        n = model.n
        x = rng.uniform(-1.0, 1.0, (3 * n, k))
        xs = [ad.Dual(x[j], np.outer(row, np.ones(k))) for j, row in enumerate(np.eye(3 * n))]
        batch = rd.aba(model, xs[:n], xs[n:2 * n], xs[2 * n:])
        assert all(y.partials.shape == (3 * n, k) for y in batch)
        for s in range(k):
            f = lambda v: rd.aba(model, v[:n], v[n:2 * n], v[2 * n:])
            want = np.array(f(list(x[:, s])))
            assert np.array([y.value[s] for y in batch]).tobytes() == want.tobytes()
            J = ad.jacobian_fwd(f, list(x[:, s]))
            assert np.array([y.partials[:, s] for y in batch]).tobytes() == J.tobytes()


def test_where_at_sqrt_zero_differentiates_taken_branch_in_both_modes():
    # the untaken sqrt branch has an infinite partial at 0; it must not leak
    f = lambda xs: ad.where(xs[0] > 0.0, ad.sqrt(xs[0]), 0.0 * xs[0])
    assert ad.gradient(f, [0.0]).tolist() == [0.0]
    assert ad.jacobian_fwd(lambda xs: [f(xs)], [0.0]).tolist() == [[0.0]]


V_WHERE = np.array([1.0, 0.0, 4.0, -1.0])


def _where_sqrt(xs):
    # x*V is 0 at element 1 (and everywhere at x = 0) and negative at element
    # 3: the untaken sqrt branch has an infinite or NaN partial there
    xv = xs[0] * V_WHERE
    return ad.asum(ad.where(ad.value(xv) > 0.0, ad.sqrt(xv), 0.0 * xs[0]))


@pytest.mark.parametrize("x,want", [(1.0, 0.5 + 1.0), (0.0, 0.0), (-1.0, -0.5)])
def test_where_array_condition_cuts_off_untaken_branch_in_both_modes(x, want):
    assert ad.gradient(_where_sqrt, [x]).tolist() == [want]
    assert ad.jacobian_fwd(lambda xs: [_where_sqrt(xs)], [x]).tolist() == [[want]]


def test_where_zero_d_array_condition_cuts_off_untaken_branch():
    f = lambda xs: ad.where(np.asarray(ad.value(xs[0]) > 0.0), ad.sqrt(xs[0]), 0.0 * xs[0])
    assert float(ad.gradient(f, [0.0])[0]) == 0.0
    assert float(ad.jacobian_fwd(lambda xs: [f(xs)], [0.0])[0][0]) == 0.0
    np.testing.assert_allclose(ad.gradient(f, [4.0]), [0.25], rtol=1e-15)


def test_where_on_plain_condition_returns_taken_branch():
    x = ad.Tape().var(2.0)
    assert ad.where(True, x, 1.0) is x
    assert ad.where(False, x, 1.0) == 1.0


def test_fk_jacobian_fwd_matches_finite_difference(two_link):
    link = "tool"
    q0 = [0.4, -0.8]
    step = 1e-6

    def fk_pos(qs):
        pose = forward_kinematics(two_link, list(qs))[link]
        return [pose.position.x, pose.position.y, pose.position.z]

    J = ad.jacobian_fwd(fk_pos, q0)
    for j in range(2):
        qp, qm = list(q0), list(q0)
        qp[j] += step
        qm[j] -= step
        fd = (np.array(fk_pos(qp)) - np.array(fk_pos(qm))) / (2 * step)
        np.testing.assert_allclose(J[:, j], fd, atol=1e-6)


def test_dual_comparisons_use_value_channel():
    a = ad.Dual(1.0, (1.0,))
    b = ad.Dual(2.0, (0.0,))
    assert a < b and b > a and a <= b and b >= a


# ---------------------------------------------------------------------------
# check_gradient


def test_check_gradient_polynomial_small_error():
    f = lambda xs: xs[0] ** 3 + 2.0 * xs[0] * xs[1] + xs[1] ** 2
    err = ad.check_gradient(f, [0.7, -0.3])
    assert err < 1e-7


def test_check_gradient_detects_injected_sign_bug():
    # A deliberately wrong-sign "gradient" shows up as error ~ 2|f'| / max(1,|f'|).
    class Flipped:
        """sin with a wrong-sign derivative rule, mimicking an AD bug."""

        def __call__(self, xs):
            x = xs[0]
            if isinstance(x, ad.Var):
                return x._new(np.sin(ad.value(x)), "buggy_sin",
                              ((x, -np.cos(ad.value(x))),))
            return np.sin(x)

    err = ad.check_gradient(Flipped(), [0.0])
    np.testing.assert_allclose(err, 2.0, atol=1e-6)


def test_check_gradient_constant_is_zero():
    assert ad.check_gradient(lambda xs: 3.0, [1.0, 2.0]) == 0.0


def test_check_gradient_rejects_nonpositive_step():
    # the step is fixed at 1e-6, so no step of any value is accepted
    with pytest.raises(TypeError, match="unexpected keyword argument 'step'"):
        ad.check_gradient(lambda xs: xs[0], [1.0], step=0.0)


# ---------------------------------------------------------------------------
# property tests

finite = st.floats(min_value=-3, max_value=3, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(finite, finite)
def test_gradient_linearity_property(a, b):
    # d/dx (a*x + b) == a everywhere
    g = ad.gradient(lambda xs: a * xs[0] + b, [0.37])
    np.testing.assert_allclose(g, [a], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_modes_agree_on_transcendental(x0):
    f = lambda xs: ad.sin(xs[0]) * ad.exp(xs[0])
    g_rev = ad.gradient(f, [x0])
    g_fwd = ad.jacobian_fwd(lambda xs: [f(xs)], [x0])[0]
    np.testing.assert_allclose(g_rev, g_fwd, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("flavour", ["var", "dual"])
def test_quotient_value_equals_float_division(flavour):
    rng = np.random.default_rng(4)
    a = rng.normal(size=1000) * 10.0 ** rng.integers(-3, 4, size=1000)
    b = rng.normal(size=1000) * 10.0 ** rng.integers(-3, 4, size=1000)
    tape = ad.Tape()

    def lift(v):
        return tape.var(v) if flavour == "var" else ad.Dual(v, (1.0,))

    for x, y in zip(a.tolist(), b.tolist()):
        for got in (lift(x) / lift(y), lift(x) / y, x / lift(y)):
            assert ad.value(got) == x / y, (x, y)
    for got in (lift(a) / lift(b), lift(a) / b, a / lift(b)):
        assert ad.value(got).tobytes() == (a / b).tobytes()
