"""The straight-line float kernel of ``aba`` (``tracing.trace_kernel``)
against the generic ``aba`` it is traced from: equal results under ``==`` and
in the sign of every zero, and the generic path wherever the kernel cannot
vouch for its result, so that ``simulate`` keeps every output and error."""

import math

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn.dynamics import DynamicsError, NonFiniteStateError, aba, simulate
from robotdyn.tracing import TraceError, trace_kernel
from conftest import heavy_two_link_urdf, random_state, urdf_text

NO_GRAVITY = (0.0, 0.0, 0.0)


def aba_kernel(model, **kwargs):
    n = model.n
    return trace_kernel(lambda *state: aba(model, *state, **kwargs), n, n, n)


def assert_identical(got, want):
    """Equal under ``==``, with the same sign of every zero."""
    assert got is not None
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b), (got, want)


def _cart_pendulum():
    # a near-massless cart on a slide carrying a point mass on a hinge: the
    # slide's articulated inertia m cos(q_hinge)^2 vanishes at q_hinge = pi/2
    tiny = (1e-15, (0, 0, 0), (0, 0, 0), (1e-15, 0.0, 0.0, 1e-15, 0.0, 1e-15))
    bob = (1.0, (1.0, 0.0, 0.0), (0, 0, 0), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    links = [("base", None), ("cart", tiny), ("bob", bob)]
    joints = [("slide", "prismatic", "base", "cart", (0, 0, 0), (0, 0, 0), (1, 0, 0)),
              ("hinge", "continuous", "cart", "bob", (0, 0, 0), (0, 0, 0), (0, 0, 1))]
    return rd.build_model(rd.parse_urdf(urdf_text("cart", links, joints)))


@pytest.mark.parametrize("name,n_states", [("pendulum", 200), ("pendulum_mass2", 200),
                                           ("two_link_planar", 200), ("six_dof_arm", 500)])
def test_kernel_equals_generic_aba_on_fixtures(name, n_states):
    model = rd.load_model(rd.fixture_path(name))
    kernels = {g: aba_kernel(model, gravity=g) for g in (None, (0.3, -2.0, -9.0))}
    rng = np.random.default_rng(7)
    for i in range(n_states):
        gravity = (None, (0.3, -2.0, -9.0))[i % 2]
        state = [x.tolist() for x in random_state(model, rng, scale=3.0)]
        assert_identical(kernels[gravity](*state), aba(model, *state, gravity=gravity))


def test_kernel_bakes_in_the_inertias(pendulum):
    heavy = pendulum.with_inertias(
        [rd.SpatialInertia(2.0, rd.Vec3(0.0, 0.0, -1.0), rd.Mat33.diag(2.0, 2.0, 0.1))])
    kernel = aba_kernel(heavy)
    state = ([0.4], [0.3], [0.2])
    assert_identical(kernel(*state), aba(heavy, *state))
    assert kernel(*state) != aba(pendulum, *state)


def test_zero_acceleration_is_left_to_generic(pendulum):
    # a zero output may differ from aba's in its sign
    kernel = aba_kernel(pendulum, gravity=NO_GRAVITY)
    assert aba(pendulum, [0.3], [0.0], [0.0], gravity=NO_GRAVITY) == [0.0]
    assert kernel([0.3], [0.0], [0.0]) is None
    assert_identical(kernel([0.3], [0.0], [0.5]),
                     aba(pendulum, [0.3], [0.0], [0.5], gravity=NO_GRAVITY))


def test_wrong_state_length_is_left_to_generic(two_link):
    kernel = aba_kernel(two_link)
    assert kernel([0.1], [0.0, 0.0], [0.0, 0.0]) is None
    with pytest.raises(ValueError, match="q must have length 2"):
        simulate(two_link, [0.1], [0.0, 0.0], None, 1e-3, 2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_heavy_model_falls_back_to_generic():
    model = rd.build_model(rd.parse_urdf(heavy_two_link_urdf()))
    state = ([0.1, 0.2], [0.3, -0.4], [0.5, 0.6])
    assert aba_kernel(model)(*state) is None
    assert all(math.isnan(x) for x in aba(model, *state))
    seen = []

    def torque(t, q, qd):
        seen.append(t)
        return np.array(state[2])

    with pytest.raises(NonFiniteStateError) as exc:
        simulate(model, state[0], state[1], torque, 1e-3, 10)
    assert str(exc.value) == "non-finite state at step 0"
    assert seen == [0.0]   # the first stage only: its NaN reaches the next state


def test_singular_state_trips_the_guard():
    model = _cart_pendulum()
    kernel = aba_kernel(model)
    regular = ([0.3, 0.5], [0.2, -0.1], [0.4, 0.1])
    assert_identical(kernel(*regular), aba(model, *regular))
    singular = ([0.3, math.pi / 2], [0.2, -0.1], [0.4, 0.1])
    with pytest.raises(DynamicsError) as generic:
        aba(model, *singular)
    assert "singular articulated projection at joint 'slide'" in str(generic.value)
    assert kernel(*singular) is None
    with pytest.raises(DynamicsError) as rollout:
        simulate(model, singular[0], singular[1], lambda t, q, qd: np.array(singular[2]),
                 1e-3, 5)
    assert str(rollout.value) == str(generic.value)


def test_trace_time_error_falls_back_to_generic():
    # a constant articulated inertia: the singularity test fires while tracing
    model = rd.load_model(rd.fixture_path("bad_inertia"))
    with pytest.raises(DynamicsError) as traced:
        aba_kernel(model)
    with pytest.raises(DynamicsError) as generic:
        aba(model, [0.0], [0.0], [0.0])
    assert str(traced.value) == str(generic.value)
    seen = []

    def torque(t, q, qd):
        seen.append(t)
        return np.zeros(1)

    with pytest.raises(DynamicsError) as rollout:
        simulate(model, [0.0], [0.0], torque, 1e-3, 5)
    assert str(rollout.value) == str(generic.value)
    assert seen == [0.0]


def test_kinematics_only_model_keeps_the_order_of_errors():
    model = rd.load_model(rd.fixture_path("pendulum"), kinematics_only=True)
    seen = []

    def torque(t, q, qd):
        seen.append(t)
        return np.zeros(1)

    with pytest.raises(DynamicsError, match="kinematics_only"):
        simulate(model, [0.0], [0.0], torque, 1e-3, 5)
    assert seen == [0.0]   # the state check, then torque_fn, then aba
    with pytest.raises(NonFiniteStateError, match="^non-finite initial state$"):
        simulate(model, [np.nan], [0.0], torque, 1e-3, 5)
    assert seen == [0.0]


def test_branch_on_a_traced_value_raises():
    for f in (lambda x: [ad.maximum(x[0], x[1])],
              lambda x: [ad.where(x[0] > 0.0, x[0], x[1])],
              lambda x: [x[0] if x[1] else x[0]],
              lambda x: [x[0] * np.ones(3)],
              lambda x: [ad.asum(x[0])]):
        with pytest.raises(TraceError):
            trace_kernel(f, 2)


def test_any_of_a_traced_comparison_is_a_guard():
    def f(x):
        if np.any(x[0] <= 0.0):
            raise ValueError("x must be positive")
        return [ad.sqrt(x[0]) + 1.0]

    kernel = trace_kernel(f, 1)
    assert kernel([4.0]) == [3.0]
    assert kernel([-1.0]) is None
    assert kernel([0.0]) is None


def test_folded_product_with_zero_is_witnessed():
    def f(x):
        return [x[0] * 1e300 * 0.0 + x[1]]

    kernel = trace_kernel(f, 2)
    assert kernel([1.0, 2.0]) == [2.0]
    assert math.isnan(f([1e10, 2.0])[0])   # inf * 0 is NaN
    assert kernel([1e10, 2.0]) is None


def test_folded_identities_keep_the_sign_of_zero():
    kernel = trace_kernel(lambda x: [x[0] + 0.0, 0.0 - x[0], x[0] * -1.0], 1)
    assert kernel([2.0]) == [2.0, -2.0, -2.0]
    assert kernel([-0.0]) is None   # -0.0 + 0.0 is +0.0, not the folded -0.0


def test_non_finite_constants_are_bound_by_name():
    kernel = trace_kernel(lambda x: [x[0] / math.inf + x[0], x[0] * 2.0], 1)
    assert kernel([3.0]) == [3.0, 6.0]
    assert trace_kernel(lambda x: [x[0] + math.nan], 1)([1.0]) is None


def test_fused_expressions_stay_within_the_nesting_bound():
    # temporaries read once fold into their reader, but only so deep: long
    # chains still compile, with the arithmetic of plain floats
    xs = [1.0 + i / 7.0 for i in range(5000)]
    kernel = trace_kernel(lambda x: [sum(x[1:], x[0])], 5000)
    assert kernel(xs) == [sum(xs[1:], xs[0])]

    def chain(x):
        y = x[0]
        for _ in range(2500):
            y = y * x[1] + x[2]
        return [y]

    args = [0.3, 0.999, 0.001]
    assert trace_kernel(chain, 3)(args) == chain(args)
