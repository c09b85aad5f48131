"""The batched oracles of ``robot check`` against per-state references.

Each ``_ref_*`` function below evaluates one sampled check the way the suite
did before it was batched: one scalar call per state (per column for the
finite-difference checks), drawing the states from ``rng`` in the same
order.  The batched checks, reading one shared ``selfcheck.Sample``, must
return the same error, bit for bit, on the dynamics fixtures and on random
trees.
"""

import contextlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn import cli, dynamics, kinematics, selfcheck, spatial, urdf
from robotdyn.dynamics import aba, forward_dynamics_cholesky, mass_matrix, rnea
from robotdyn.kinematics import forward_kinematics, link_jacobian
from robotdyn.spatial import ForceVector, MotionVector, Vec3
import test_acceptance
from conftest import heavy_two_link_urdf, urdf_text
from test_kinematics import rotated_tree
from test_random_trees import robot_trees

_random_state = selfcheck._random_state


def _rel_inf(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _ref_aba_rnea_roundtrip(model, rng, n_states):
    err = 0.0
    for _ in range(n_states):
        q, qd, tau = _random_state(model, rng)
        qdd = aba(model, list(q), list(qd), list(tau))
        back = rnea(model, list(q), list(qd), qdd)
        err = max(err, _rel_inf(back, tau))
    return err


def _mass_scale(M):
    return max(float(np.max(np.abs(M))), np.finfo(float).tiny)


def _ref_crba_columns(model, rng, n_states):
    err = 0.0
    zero = [0.0] * model.n
    for _ in range(n_states):
        q, _, _ = _random_state(model, rng)
        M = np.asarray(mass_matrix(model, list(q)))
        for j in range(model.n):
            ej = [0.0] * model.n
            ej[j] = 1.0
            col = rnea(model, list(q), zero, ej, gravity=(0.0, 0.0, 0.0))
            err = max(err, float(np.max(np.abs(M[:, j] - np.asarray(col)))) / _mass_scale(M))
    return err


def _ref_aba_vs_cholesky(model, rng, n_states):
    err = 0.0
    for _ in range(n_states):
        q, qd, tau = _random_state(model, rng)
        a1 = aba(model, list(q), list(qd), list(tau))
        a2 = forward_dynamics_cholesky(model, list(q), list(qd), list(tau))
        err = max(err, _rel_inf(a1, a2))
    return err


def _ref_jacobian_fd(model, rng, n_states, step=1e-6):
    link = model.link_names()[-1]
    err = 0.0
    for _ in range(n_states):
        q, _, _ = _random_state(model, rng)
        J = link_jacobian(model, list(q), link)
        for j in range(model.n):
            qp, qm = q.copy(), q.copy()
            qp[j] += step
            qm[j] -= step
            pp = forward_kinematics(model, list(qp))[link]
            pm = forward_kinematics(model, list(qm))[link]
            fd_lin = (np.array(pp.position.values()) - np.array(pm.position.values())) \
                / (2.0 * step)
            Rp = np.array(pp.rotation.values())
            Rm = np.array(pm.rotation.values())
            dR = (Rp - Rm) / (2.0 * step)
            W = dR @ np.array(forward_kinematics(model, list(q))[link].rotation.values()).T
            fd_ang = np.array([W[2, 1], W[0, 2], W[1, 0]])
            err = max(err, float(np.max(np.abs(J[3:6, j] - fd_lin))),
                      float(np.max(np.abs(J[0:3, j] - fd_ang))))
    return err


def _ref_ad_vs_fd(model, rng, n_states, step=1e-6):
    n = model.n
    err = 0.0
    for _ in range(n_states):
        q, qd, tau = _random_state(model, rng)
        x0 = np.concatenate([q, qd, tau])

        def tau_out(xs, k):
            out = rnea(model, xs[:n], xs[n:2 * n], xs[2 * n:])
            return out[k]

        for k in range(n):
            g = ad.gradient(lambda xs: tau_out(xs, k), list(x0))
            for i in range(3 * n):
                xp, xm = x0.copy(), x0.copy()
                xp[i] += step
                xm[i] -= step
                fd = (tau_out(list(xp), k) - tau_out(list(xm), k)) / (2.0 * step)
                err = max(err, abs(g[i] - fd) / max(1.0, abs(g[i])))
    return err


REFERENCES = {
    "aba_rnea_roundtrip": _ref_aba_rnea_roundtrip,
    "crba_columns": _ref_crba_columns,
    "aba_vs_cholesky": _ref_aba_vs_cholesky,
    "jacobian_vs_finite_difference": _ref_jacobian_fd,
    "gradient_vs_finite_difference": _ref_ad_vs_fd,
}
CHECK_FNS = {name: fn for name, fn, _ in selfcheck.CHECKS}
CHECK_TOLS = {name: tol for name, _, tol in selfcheck.CHECKS}


def _assert_same_as_reference(model, seed, n_states, grad_states):
    # every check reads one shared sample, as in run_checks
    sample = selfcheck.Sample(model, seed, n_states, grad_states)
    for name, ref in REFERENCES.items():
        k = grad_states if name == "gradient_vs_finite_difference" else n_states
        got = CHECK_FNS[name](sample)
        want = ref(model, np.random.default_rng(seed), k)
        assert float(got) == float(want), f"{name}: batched {got!r}, per state {want!r}"


def test_every_sampled_check_has_a_reference():
    assert sorted(REFERENCES) == sorted(n for n in CHECK_FNS if n != "energy_drift")


@pytest.mark.parametrize("fixture", ["pendulum", "two_link_planar", "six_dof_arm"])
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_checks_equal_per_state_reference(fixture, seed):
    model = rd.load_model(rd.fixture_path(fixture))
    _assert_same_as_reference(model, seed, n_states=20, grad_states=3)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(robot_trees())
def test_batched_checks_equal_per_state_reference_on_random_trees(tree):
    links, joints = tree
    model = rd.build_model(rd.parse_urdf(urdf_text("random_tree", links, joints)))
    _assert_same_as_reference(model, 5, n_states=4, grad_states=1)


def test_gradient_check_reads_more_states_than_the_others_when_asked(two_link):
    _assert_same_as_reference(two_link, 2, n_states=1, grad_states=2)


def test_check_aborts_on_a_flat_leaf(tmp_path, capsys):
    # a leaf with no rotational inertia about a revolute axis through its CoM
    # gives a singular mass matrix at every configuration; aba refuses it
    # before any check reads the mass matrix
    links = [("base", None), ("l1", (1.0, (0.1, 0.0, 0.0), (0, 0, 0), (0.01, 0.0, 0.0,
                                                                      0.01, 0.0, 0.01))),
             ("l2", (1.0, (0.0, 0.0, 0.0), (0, 0, 0), (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)))]
    joints = [("j1", "continuous", "base", "l1", (0, 0, 0), (0, 0, 0), (0, 0, 1)),
              ("j2", "continuous", "l1", "l2", (0.5, 0, 0), (0, 0, 0), (0, 0, 1))]
    path = tmp_path / "flat_leaf.urdf"
    path.write_text(urdf_text("flat_leaf", links, joints))
    assert cli.main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: check aborted: singular articulated projection "
                                   "at joint 'j2'")


# ---------------------------------------------------------------------------
# aba refuses every mass matrix that is not positive definite
#
# robot check has no positive-definiteness check of its own: aba's pivots are
# those of a factorization of the mass matrix, so it raises on every sample
# whose mass matrix fails Cholesky, and Sample.qdd runs it first.


def _rotation_with_first_column(a, rng):
    Q, R = np.linalg.qr(np.column_stack([a, rng.normal(size=(3, 2))]))
    return Q * np.sign(np.diag(R))   # first column +a


def _mat33(A):
    return spatial.Mat33.fromrows(A.tolist())


def _random_inertia(rng, eigenvalues):
    """Mass, CoM and rotational inertia about the body origin, from a
    rotational inertia about the CoM with the given principal moments."""
    m, c = rng.uniform(0.1, 2.0), Vec3.fromlist(rng.uniform(-0.5, 0.5, 3).tolist())
    Q = _rotation_with_first_column(rng.normal(size=3), rng)
    I_c = _mat33(Q @ np.diag(eigenvalues) @ Q.T)
    return spatial.SpatialInertia(m, c, I_c + spatial.parallel_axis_term(m, c))


def _flat_leaf_inertia(rng, body, kind):
    """An inertia of a revolute leaf whose articulated pivot, the moment about
    its axis, is a tiny relative ``t`` (``"near_singular"``), or exactly zero
    with a negative trace when the axis is a basis vector (``"negative_trace"``)."""
    a = np.array(body.axis.tolist())
    if kind == "negative_trace":
        m, c, moments = 1.0, Vec3.zero(), (0.0, -20.0, -20.0)
    else:
        m, c = rng.uniform(0.1, 2.0), Vec3.fromlist(rng.uniform(-0.5, 0.5, 3).tolist())
        rest = rng.uniform(0.01, 1.0, 2)
        t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20, -6) * (rest.sum() + 3 * m)
        moments = (t, *rest)
    if np.count_nonzero(a) == 1:   # a basis axis: the moments in basis order, exact
        k = int(np.flatnonzero(a)[0])
        I_o = np.diag(np.roll(moments, k))
    else:
        Q = _rotation_with_first_column(a, rng)
        I_o = Q @ np.diag(moments) @ Q.T
    return spatial.SpatialInertia(m, c, _mat33(I_o))


def _inertia_variant(model, rng, kind):
    """``model`` with random inertias of one kind: ``"spd"``, ``"indefinite"``
    (principal moments of either sign), or SPD inertias with one revolute
    leaf made flat (see ``_flat_leaf_inertia``)."""
    moments = (lambda: rng.uniform(-1.0, 1.0, 3)) if kind == "indefinite" \
        else (lambda: rng.uniform(0.01, 1.0, 3))
    inertias = [_random_inertia(rng, moments()) for _ in model.bodies]
    parents = {b.parent for b in model.bodies}
    leaves = [i for i, b in enumerate(model.bodies)
              if i not in parents and b.joint_type != "prismatic"]
    if kind in ("near_singular", "negative_trace") and leaves:
        i = leaves[rng.integers(len(leaves))]
        inertias[i] = _flat_leaf_inertia(rng, model.bodies[i], kind)
    return model.with_inertias(inertias)


def test_aba_raises_wherever_the_sampled_mass_matrix_fails_cholesky():
    rng = np.random.default_rng(31)
    fixtures = [rd.load_model(rd.fixture_path(name))
                for name in ("pendulum", "two_link_planar", "six_dof_arm")]
    rejected = accepted = 0
    for seed in range(16):
        for model in fixtures + [rotated_tree(rng)]:
            for kind in ("spd", "indefinite", "near_singular", "negative_trace"):
                variant = _inertia_variant(model, rng, kind)
                sample = selfcheck.Sample(variant, seed, 4, 1)
                first = [x[:, 0].tolist() for x in (sample.q, sample.qd, sample.tau)]
                for M, qdd in ((sample.M, lambda: sample.qdd),      # the batch
                               (sample.M[0], lambda: aba(variant, *first))):  # one float state
                    try:
                        np.linalg.cholesky(M)
                    except np.linalg.LinAlgError:
                        rejected += 1
                        with pytest.raises(dynamics.DynamicsError):
                            qdd()
                    else:
                        accepted += 1
    assert rejected > 100 and accepted > 100, (rejected, accepted)


def test_jacobian_check_evaluates_fk_at_most_twice_per_state(six_dof, monkeypatch):
    calls = [0]
    fk = selfcheck.forward_kinematics

    def counting(*args, **kwargs):
        calls[0] += 1
        return fk(*args, **kwargs)

    monkeypatch.setattr(selfcheck, "forward_kinematics", counting)
    n_states = 20
    selfcheck.check_jacobian_fd(selfcheck.Sample(six_dof, 1, n_states, 3))
    assert 0 < calls[0] <= 2 * n_states


def test_run_checks_evaluates_aba_and_the_mass_matrices_once(six_dof, monkeypatch):
    # every call through selfcheck's own bindings, and the batched calls that
    # other dynamics functions make (simulate's and total_energy's are floats)
    calls = dict.fromkeys(("aba", "mass_matrix", "forward_dynamics_cholesky"), 0)

    def counted(module, name, batched_only):
        fn = getattr(module, name)

        def wrapper(model, q, *args, **kwargs):
            calls[name] += not batched_only or isinstance(ad.value(q[0]), np.ndarray)
            return fn(model, q, *args, **kwargs)
        return wrapper

    for name in calls:
        if hasattr(selfcheck, name):
            monkeypatch.setattr(selfcheck, name, counted(selfcheck, name, False))
        monkeypatch.setattr(dynamics, name, counted(dynamics, name, True))
    assert selfcheck.run_checks(six_dof, seed=1)["passed"]
    assert calls == {"aba": 1, "mass_matrix": 1, "forward_dynamics_cholesky": 0}


def _heavy_two_link():
    return rd.build_model(rd.parse_urdf(heavy_two_link_urdf()))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_dynamics_error_fails_its_check():
    model = _heavy_two_link()
    q, qd, tau = _random_state(model, np.random.default_rng(0))
    assert np.all(np.isnan(aba(model, list(q), list(qd), list(tau))))
    for name in ("aba_rnea_roundtrip", "aba_vs_cholesky"):
        err = CHECK_FNS[name](selfcheck.Sample(model, 0, 5, 3))
        assert np.isnan(err), f"{name} returned {err!r}"


def test_nan_dynamics_fail_the_energy_drift_check():
    # the rollout reaches a non-finite state at its first step
    sample = selfcheck.Sample(_heavy_two_link(), 0, 5, 3)
    assert np.isnan(selfcheck.check_energy_drift(sample))


def test_nan_jacobian_entry_fails_the_jacobian_check(six_dof, monkeypatch):
    def one_nan(*args, **kwargs):
        J = link_jacobian(*args, **kwargs)
        J[0, 0, 0] = np.nan   # an angular row: the second operand of the fold
        return J

    monkeypatch.setattr(selfcheck, "link_jacobian", one_nan)
    assert np.isnan(selfcheck.check_jacobian_fd(selfcheck.Sample(six_dof, 1, 3, 3)))


def _six_dof_scaled(factor):
    """``six_dof_arm`` with every mass and inertia entry multiplied by ``factor``."""
    with open(rd.fixture_path("six_dof_arm")) as fh:
        text = fh.read()
    text = re.sub(r'((?:value|i[xyz]{2})=")([^"]+)"',
                  lambda m: f'{m.group(1)}{float(m.group(2)) * factor!r}"', text)
    return rd.build_model(rd.parse_urdf(text))


MASS_MATRIX_CHECKS = ("crba_columns",)


@pytest.mark.parametrize("name", MASS_MATRIX_CHECKS)
def test_mass_matrix_checks_hold_at_any_inertia_scale(name):
    # rounding of mass-matrix entries near 1e8 alone exceeds an absolute 1e-10
    fn, tol = CHECK_FNS[name], CHECK_TOLS[name]
    for factor in (1.0, 1e8):
        model = _six_dof_scaled(factor)
        assert fn(selfcheck.Sample(model, 0, 20, 3)) < tol, factor


@pytest.mark.parametrize("name", MASS_MATRIX_CHECKS)
def test_mass_matrix_checks_fail_on_a_tampered_mass_matrix(name, monkeypatch):
    def tampered(model, q):
        M = mass_matrix(model, q)
        M[0][1] = M[0][1] + 1e-6 * M[0][0]
        return M

    monkeypatch.setattr(selfcheck, "mass_matrix", tampered)
    for factor in (1.0, 1e8):
        model = _six_dof_scaled(factor)
        err = CHECK_FNS[name](selfcheck.Sample(model, 0, 20, 3))
        assert err > CHECK_TOLS[name], (factor, err)


# ---------------------------------------------------------------------------
# fault table: which checks see which faults
#
# Each row applies one fault by patching a module or class attribute and pins
# the exact set of checks that fail in each cell (model, seed); a cell not
# listed fails none.  An oracle that gains or loses strength changes a row.


def _rdiv_scaled_partial(s):
    """``_Scalar.__rtruediv__`` with its local partial scaled by ``s``."""
    def __rtruediv__(self, other):
        inv = ad._div(1.0, self.value)
        q = ad._div(other, self.value)
        return self._new(q, "rdiv", ((self, -q * inv * s),))
    return __rtruediv__


def _mul_scaled_second_partial(s):
    """``_Scalar.__mul__`` with the partial of its second operand scaled by ``s``."""
    def __mul__(self, other):
        if isinstance(other, ad._Scalar):
            return self._new(self.value * other.value, "mul",
                             ((self, other.value), (other, self.value * s)))
        return self._new(self.value * other, "mul", ((self, other),))
    return __mul__


def _scaled(module, name, s):
    """``module.name`` with its result scaled by ``s``."""
    fn = getattr(module, name)
    return [(module, name, lambda *args: fn(*args).scale(s))]


def _jacobian_linear_rows_scaled(s):
    """``kinematics._jacobian`` with its linear rows (3-5) scaled by ``s``."""
    fn = kinematics._jacobian

    def _jacobian(*args):
        J = fn(*args)
        J[3:] *= s
        return J
    return [(kinematics, "_jacobian", _jacobian)]


def _mul_fault(s):
    return [(ad._Scalar, "__mul__", _mul_scaled_second_partial(s)),
            (ad._Scalar, "__rmul__", _mul_scaled_second_partial(s))]


def _rigid_product_tau_sign_flipped(m, h, I, v):
    """``rigid_product`` with the sign of its h × v_lin torque term flipped."""
    return ForceVector(I.matvec(v.ang) - h.cross(v.lin), v.lin.scale(m) + v.ang.cross(h))


def _apply_motion_inv_lin_sign_flipped(self, v):
    """``SpatialTransform.apply_motion_inv`` with p × ω added to its linear part,
    not subtracted."""
    R = self.rot
    return MotionVector(R.tmatvec(v.ang), R.tmatvec(v.lin + self.trans.cross(v.ang)))


def _prismatic_subspace_as_revolute():
    """Model build that gives a prismatic joint the motion subspace (a, 0) of a
    revolute one, in place of (0, a)."""
    init = urdf.Body.__init__

    def __init__(self, *args):
        init(self, *args)
        if self.joint_type == "prismatic":
            self.subspace = MotionVector(self.axis, Vec3.zero())
    return [(urdf.Body, "__init__", __init__)]


ENERGY, GRADIENT = {"energy_drift"}, {"gradient_vs_finite_difference"}
JACOBIAN = {"jacobian_vs_finite_difference"}
ALGEBRA = {"aba_rnea_roundtrip", "aba_vs_cholesky", "crba_columns"}
FIXTURES = ("two_link", "six_dof")
ALL_CELLS = [(m, s) for m in FIXTURES for s in (0, 1)]
# fault: (attributes to patch, models run at seeds 0 and 1,
#         {(model, seed): checks that fail})
FAULT_TABLE = {
    "cross_force*(1+1e-6)": (_scaled(dynamics, "cross_force", 1 + 1e-6), FIXTURES, {}),
    "cross_force*2": (_scaled(dynamics, "cross_force", 2.0), FIXTURES, {}),
    "cross_motion*(1+1e-6)": (_scaled(dynamics, "cross_motion", 1 + 1e-6), FIXTURES,
                              {("two_link", 1): ENERGY, ("six_dof", 0): ENERGY,
                               ("six_dof", 1): ENERGY}),
    "cross_motion*(1+1e-3)": (_scaled(dynamics, "cross_motion", 1 + 1e-3), FIXTURES,
                              dict.fromkeys(ALL_CELLS, ENERGY)),
    "rtruediv_partial*(1+1e-6)": ([(ad._Scalar, "__rtruediv__",
                                    _rdiv_scaled_partial(1 + 1e-6))], FIXTURES, {}),
    "rtruediv_partial*(1+1e-3)": ([(ad._Scalar, "__rtruediv__",
                                    _rdiv_scaled_partial(1 + 1e-3))], FIXTURES, {}),
    "mul_second_partial*(1+1e-6)": (_mul_fault(1 + 1e-6), FIXTURES,
                                    {("six_dof", 0): GRADIENT, ("six_dof", 1): GRADIENT}),
    "mul_second_partial*(1+1e-4)": (_mul_fault(1 + 1e-4), FIXTURES,
                                    dict.fromkeys(ALL_CELLS, GRADIENT)),
    "rigid_product_tau_sign": ([(spatial, "rigid_product", _rigid_product_tau_sign_flipped)],
                               FIXTURES, dict.fromkeys(ALL_CELLS, ALGEBRA)),
    "apply_motion_inv_lin_sign": ([(spatial.SpatialTransform, "apply_motion_inv",
                                    _apply_motion_inv_lin_sign_flipped)], FIXTURES,
                                  dict.fromkeys(ALL_CELLS, ALGEBRA | ENERGY)),
    # rotated_tree has two prismatic joints; the fixtures have none
    "prismatic_subspace_as_revolute": (_prismatic_subspace_as_revolute(), ("rotated_tree",),
                                       {("rotated_tree", 0): ENERGY,
                                        ("rotated_tree", 1): ENERGY}),
    # a consistent change of every model: no self-check sees it, and the
    # closed-form fixtures catch it (test_parallel_axis_fault_fails_criterion_2)
    "parallel_axis_term*2": (_scaled(urdf, "parallel_axis_term", 2.0), FIXTURES, {}),
    "jacobian_linear_rows*(1+1e-3)": (_jacobian_linear_rows_scaled(1 + 1e-3), FIXTURES,
                                      dict.fromkeys(ALL_CELLS, JACOBIAN)),
}
# each model is built after its row's patches, so that a fault at model build reaches it
MODELS = {"two_link": lambda: rd.load_model(rd.fixture_path("two_link_planar")),
          "six_dof": lambda: rd.load_model(rd.fixture_path("six_dof_arm")),
          "rotated_tree": lambda: rotated_tree(np.random.default_rng(16))}


def _fault_witness(model):
    """Values each fault of the table changes: rnea at a moving state, the
    gradients of 1/x and of x*y, and the last link's Jacobian."""
    n = model.n
    tau = rnea(model, [0.3] * n, [0.7] * n, [0.1] * n)
    J = link_jacobian(model, [0.3] * n, model.link_names()[-1])
    return (tau, ad.gradient(lambda xs: 1.0 / xs[0], [2.0]).tolist(),
            ad.gradient(lambda xs: xs[0] * xs[1], [2.0, 3.0]).tolist(), J.tolist())


@pytest.mark.parametrize("fault", FAULT_TABLE)
def test_fault_table_pins_the_checks_that_fail(fault, monkeypatch):
    patches, names, cells = FAULT_TABLE[fault]
    clean = [_fault_witness(MODELS[name]()) for name in names]
    for obj, attr, value in patches:
        monkeypatch.setattr(obj, attr, value)
    models = {name: MODELS[name]() for name in names}
    for name, witness in zip(names, clean):
        assert _fault_witness(models[name]) != witness, name   # the fault is live
    for name in names:
        for seed in (0, 1):
            report = selfcheck.run_checks(models[name], seed)
            failed = {check for check, r in report["checks"].items() if not r["passed"]}
            assert failed == cells.get((name, seed), set()), (name, seed)


def test_every_check_catches_a_fault():
    # a check that no fault of the table fails is a check that cannot fail
    caught = set().union(*(failed for _, _, cells in FAULT_TABLE.values()
                           for failed in cells.values()))
    assert caught == set(CHECK_FNS)


def test_parallel_axis_fault_fails_criterion_2(monkeypatch):
    for obj, attr, value in FAULT_TABLE["parallel_axis_term*2"][0]:
        monkeypatch.setattr(obj, attr, value)
    pendulum = rd.load_model(rd.fixture_path("pendulum"))
    two_link = rd.load_model(rd.fixture_path("two_link_planar"))
    quiet = SimpleNamespace(disabled=contextlib.nullcontext)   # keeps its verdict captured
    with pytest.raises(AssertionError, match="closed-form fixtures"):
        test_acceptance.test_criterion_2_closed_form_fixtures(quiet, pendulum, two_link)
