"""What the library drops is freed by reference counting: no call below
leaves garbage that only the cyclic collector can free.  Reverse-mode tapes
are the case that needs care: every ``Var`` refers back to its ``Tape``,
which lists every ``Var``, until ``gradient`` or ``jacobian_rev`` releases
the tape on return."""

import contextlib
import io

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn import cli
from robotdyn.dynamics import rnea, simulate
from robotdyn.kinematics import forward_kinematics, inverse_kinematics
from robotdyn.learn import fit, generate_dataset, loss_gradient, make_learnable
from robotdyn.selfcheck import run_checks
from conftest import cyclic_garbage


def _state(model):
    return list(np.random.default_rng(4).uniform(-1.0, 1.0, 3 * model.n))


def _rnea_of(model, k=None):
    n = model.n

    def f(xs):
        tau = rnea(model, xs[:n], xs[n:2 * n], xs[2 * n:])
        return tau if k is None else tau[k]
    return f


def _records_then_raises(xs):
    xs[0] * xs[1]
    raise ZeroDivisionError


def _gradients_that_raise():
    for f, x, error in ((_records_then_raises, [1.0, 2.0], ZeroDivisionError),
                        (lambda xs: ad.log(xs[0]), [-1.0], ad.NonFiniteError)):
        with pytest.raises(error):
            ad.gradient(f, x)


def _learning(model):
    store = make_learnable(model, "link2", "mass")
    store.make_learnable("link3", "com")
    return store, generate_dataset(model, 40, seed=8), list(store.raw + 0.1)


def _ik_on_a_fresh_model():
    # the model's IK kernel, kept on the model, must not keep the model alive
    model = rd.load_model(rd.fixture_path("six_dof_arm"))
    target = forward_kinematics(model, [0.3] * model.n)["tool"]
    inverse_kinematics(model, target, "tool", [0.0] * model.n)


CASES = {
    "run_checks": lambda m: run_checks(m, seed=1),
    "gradient": lambda m: ad.gradient(_rnea_of(m, 2), _state(m)),
    "gradients_that_raise": lambda m: _gradients_that_raise(),
    "jacobian_rev": lambda m: ad.jacobian_rev(_rnea_of(m), _state(m)),
    "loss_gradient": lambda m: loss_gradient(*_learning(m)),
    "fit": lambda m: fit(*_learning(m)[:2], epochs=5),
    "simulate": lambda m: simulate(m, np.zeros(m.n), np.full(m.n, 0.5), None, 1e-3, 20),
    "load_model": lambda m: rd.load_model(rd.fixture_path("six_dof_arm")),
    "load_model_then_ik": lambda m: _ik_on_a_fresh_model(),
}


@pytest.mark.parametrize("name", CASES)
def test_call_leaves_no_cyclic_garbage(six_dof, name):
    assert cyclic_garbage(lambda: CASES[name](six_dof)) == 0


def test_ik_on_a_traced_kernel_leaves_no_cyclic_garbage(six_dof):
    target = forward_kinematics(six_dof, [0.3] * six_dof.n)["tool"]
    inverse_kinematics(six_dof, target, "tool", [0.0] * six_dof.n)   # traces the kernel
    assert cyclic_garbage(lambda: inverse_kinematics(six_dof, target.position, "tool",
                                                     [0.1] * six_dof.n)) == 0


def test_cli_check_unit_leaves_no_cyclic_garbage():
    # one `robot check` unit in process, as a benchmark runs them; the first
    # call builds the argument parser, which then lives as long as the process
    def unit(seed):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["check", rd.fixture_path("six_dof_arm"), "--seed", str(seed),
                             "--format", "json"]) == 0

    unit(0)
    assert cyclic_garbage(lambda: unit(1)) == 0
