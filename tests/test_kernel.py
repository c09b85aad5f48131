"""The straight-line float kernel of ``aba`` (``tracing.trace_kernel``)
against the generic ``aba`` it is traced from: equal results under ``==`` and
in the sign of every zero, from the compiled code where it can vouch for them
and from the generic function it hands the call to elsewhere, so that
``simulate`` keeps every output and error."""

import math

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn.dynamics import DynamicsError, NonFiniteStateError, aba, simulate
from robotdyn.tracing import Trace, TraceError, trace_kernel
from conftest import heavy_two_link_urdf, random_state, spy_kernel, urdf_text

NO_GRAVITY = (0.0, 0.0, 0.0)


def aba_kernel(model, **kwargs):
    """The kernel of ``aba`` and the list of the calls it handed to ``aba``."""
    n = model.n
    return spy_kernel(lambda *state: aba(model, *state, **kwargs), n, n, n)


def assert_identical(got, want):
    """Equal under ``==``, with the same sign of every zero."""
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
        assert_identical(kernels[gravity][0](*state), aba(model, *state, gravity=gravity))
    assert [fallbacks for _, fallbacks in kernels.values()] == [[], []]


def test_kernel_bakes_in_the_inertias(pendulum):
    heavy = pendulum.with_inertias(
        [rd.SpatialInertia(2.0, rd.Vec3(0.0, 0.0, -1.0), rd.Mat33.diag(2.0, 2.0, 0.1))])
    kernel, fallbacks = aba_kernel(heavy)
    state = ([0.4], [0.3], [0.2])
    assert_identical(kernel(*state), aba(heavy, *state))
    assert kernel(*state) != aba(pendulum, *state)
    assert fallbacks == []


def test_zero_acceleration_is_left_to_generic(pendulum):
    # a zero output may differ from aba's in its sign
    kernel, fallbacks = aba_kernel(pendulum, gravity=NO_GRAVITY)
    want = aba(pendulum, [0.3], [0.0], [0.0], gravity=NO_GRAVITY)
    assert want == [0.0]
    assert_identical(kernel([0.3], [0.0], [0.0]), want)
    assert fallbacks == [([0.3], [0.0], [0.0])]
    assert_identical(kernel([0.3], [0.0], [0.5]),
                     aba(pendulum, [0.3], [0.0], [0.5], gravity=NO_GRAVITY))
    assert len(fallbacks) == 1


def test_wrong_state_length_is_left_to_generic(two_link):
    kernel, fallbacks = aba_kernel(two_link)
    with pytest.raises(ValueError, match="q must have length 2") as exc:
        kernel([0.1], [0.0, 0.0], [0.0, 0.0])
    assert exc.value.__context__ is None   # aba's own error, not chained to the kernel's
    assert fallbacks == [([0.1], [0.0, 0.0], [0.0, 0.0])]
    with pytest.raises(ValueError, match="q must have length 2"):
        simulate(two_link, [0.1], [0.0, 0.0], None, 1e-3, 2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_heavy_model_falls_back_to_generic():
    model = rd.build_model(rd.parse_urdf(heavy_two_link_urdf()))
    state = ([0.1, 0.2], [0.3, -0.4], [0.5, 0.6])
    kernel, fallbacks = aba_kernel(model)
    got = kernel(*state)
    assert len(got) == 2 and all(math.isnan(x) for x in got)
    assert fallbacks == [state]
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
    kernel, fallbacks = aba_kernel(model)
    regular = ([0.3, 0.5], [0.2, -0.1], [0.4, 0.1])
    assert_identical(kernel(*regular), aba(model, *regular))
    assert fallbacks == []
    singular = ([0.3, math.pi / 2], [0.2, -0.1], [0.4, 0.1])
    with pytest.raises(DynamicsError) as generic:
        aba(model, *singular)
    assert "singular articulated projection at joint 'slide'" in str(generic.value)
    with pytest.raises(DynamicsError) as guarded:
        kernel(*singular)
    assert str(guarded.value) == str(generic.value)
    assert guarded.value.__context__ is None
    assert fallbacks == [singular]
    with pytest.raises(DynamicsError) as rollout:
        simulate(model, singular[0], singular[1], lambda t, q, qd: np.array(singular[2]),
                 1e-3, 5)
    assert str(rollout.value) == str(generic.value)


def test_trace_time_error_falls_back_to_generic():
    # a constant articulated inertia: the singularity test fires while tracing
    model = rd.load_model(rd.fixture_path("bad_inertia"))

    def f(*state):
        return aba(model, *state)

    assert trace_kernel(f, 1, 1, 1) is f
    kernel, fallbacks = aba_kernel(model)
    with pytest.raises(DynamicsError) as traced:
        kernel([0.0], [0.0], [0.0])
    with pytest.raises(DynamicsError) as generic:
        aba(model, [0.0], [0.0], [0.0])
    assert str(traced.value) == str(generic.value)
    assert fallbacks == [([0.0], [0.0], [0.0])]
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
    # the trace raises, and the kernel is the function itself
    for f in (lambda x: [ad.maximum(x[0], x[1])],
              lambda x: [ad.where(x[0] > 0.0, x[0], x[1])],
              lambda x: [x[0] if x[1] else x[0]],
              lambda x: [x[0] * np.ones(3)],
              lambda x: [ad.asum(x[0])]):
        trace = Trace()
        with pytest.raises(TraceError):
            f([trace.scalar("x"), trace.scalar("x")])
        assert trace_kernel(f, 2) is f


def test_any_of_a_traced_comparison_is_a_guard():
    def f(x):
        if np.any(x[0] <= 0.0):
            raise ValueError("x must be positive")
        return [ad.sqrt(x[0]) + 1.0]

    kernel, fallbacks = spy_kernel(f, 1)
    assert kernel([4.0]) == [3.0]
    assert fallbacks == []
    for x in (-1.0, 0.0):
        with pytest.raises(ValueError, match="x must be positive"):
            kernel([x])
    assert fallbacks == [([-1.0],), ([0.0],)]


def test_folded_product_with_zero_is_witnessed():
    def f(x):
        return [x[0] * 1e300 * 0.0 + x[1]]

    kernel, fallbacks = spy_kernel(f, 2)
    assert kernel([1.0, 2.0]) == [2.0]
    assert fallbacks == []
    assert math.isnan(f([1e10, 2.0])[0])   # inf * 0 is NaN
    got = kernel([1e10, 2.0])
    assert len(got) == 1 and math.isnan(got[0])
    assert fallbacks == [([1e10, 2.0],)]


def test_folded_identities_keep_the_sign_of_zero():
    def f(x):
        return [x[0] + 0.0, 0.0 - x[0], x[0] * -1.0]

    kernel, fallbacks = spy_kernel(f, 1)
    assert kernel([2.0]) == [2.0, -2.0, -2.0]
    assert fallbacks == []
    assert_identical(kernel([-0.0]), f([-0.0]))   # -0.0 + 0.0 is +0.0, not the folded -0.0
    assert fallbacks == [([-0.0],)]


def test_non_finite_constants_are_bound_by_name():
    kernel, fallbacks = spy_kernel(lambda x: [x[0] / math.inf + x[0], x[0] * 2.0], 1)
    assert kernel([3.0]) == [3.0, 6.0]
    assert fallbacks == []
    kernel, fallbacks = spy_kernel(lambda x: [x[0] + math.nan], 1)
    got = kernel([1.0])
    assert len(got) == 1 and math.isnan(got[0])
    assert fallbacks == [([1.0],)]


def test_fused_expressions_stay_within_the_nesting_bound():
    # temporaries read once fold into their reader, but only so deep: long
    # chains still compile, with the arithmetic of plain floats
    xs = [1.0 + i / 7.0 for i in range(5000)]
    kernel, fallbacks = spy_kernel(lambda x: [sum(x[1:], x[0])], 5000)
    assert kernel(xs) == [sum(xs[1:], xs[0])]

    def chain(x):
        y = x[0]
        for _ in range(2500):
            y = y * x[1] + x[2]
        return [y]

    args = [0.3, 0.999, 0.001]
    chain_kernel, chain_fallbacks = spy_kernel(chain, 3)
    assert chain_kernel(args) == chain(args)
    assert fallbacks == chain_fallbacks == []


def test_a_fold_free_trace_answers_its_zero_outputs_itself():
    # no identity was folded, so the kernel runs exactly f's IEEE operations,
    # the sign of every zero included
    kernel, fallbacks = spy_kernel(lambda x: [x[0] - x[1], x[0] * x[1]], 2)
    for x, want in (([0.5, 0.5], [0.0, 0.25]), ([-0.0, 0.0], [-0.0, -0.0]),
                    ([0.0, 3.0], [-3.0, 0.0])):
        assert_identical(kernel(x), want)
    assert fallbacks == []


def test_a_trace_that_folded_hands_its_zero_outputs_to_f():
    # x + 0 folds to x: the kernel's -0.0 would be f's +0.0
    kernel, fallbacks = spy_kernel(lambda x: [(x[0] - x[1]) + 0.0, x[0] * x[1]], 2)
    assert_identical(kernel([0.5, 0.25]), [0.25, 0.125])
    assert fallbacks == []
    for x in ([0.5, 0.5], [-0.0, 0.0]):
        assert_identical(kernel(x), [x[0] - x[1] + 0.0, x[0] * x[1]])
    assert fallbacks == [([0.5, 0.5],), ([-0.0, 0.0],)]
