"""The settable surface of the public entry points: every parameter is an
input that some caller sets, and each method constant stays a constant."""

import inspect

import pytest

import robotdyn
from robotdyn import autodiff, dynamics, selfcheck
from robotdyn.dynamics import simulate
from robotdyn.kinematics import inverse_kinematics
from robotdyn.learn import fit, generate_dataset
from robotdyn.selfcheck import run_checks

SIGNATURES = {
    simulate: "(model, q0, qd0, torque_fn, dt, steps, gravity=None)",
    inverse_kinematics: "(model, target, link, q0, max_iters=500, seed=0)",
    fit: "(store, dataset, epochs=1000, gravity=None)",
    generate_dataset: "(model, n_samples, gravity=None, seed=0, noise_std=0.0)",
    run_checks: "(model, seed=0, n_states=20, grad_states=3)",
    autodiff.check_gradient: "(f, x)",
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_keyword_parameters_are_pinned(fn):
    assert str(inspect.signature(fn)) == SIGNATURES[fn]


def test_no_public_function_takes_inertias():
    # inertias reach the algorithms only through the model (RobotModel.with_inertias)
    for module in (robotdyn, dynamics):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                assert "inertias" not in inspect.signature(obj).parameters, name


def test_every_check_takes_only_the_sample():
    for name, fn, _ in selfcheck.CHECKS:
        assert str(inspect.signature(fn)) == "(sample)", name
