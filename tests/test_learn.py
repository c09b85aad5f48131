"""Learnable inertial parameters: parametrizations, datasets, loss, fitting."""

import math

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn import learn
from robotdyn.dynamics import regressor, rnea
from robotdyn.learn import (
    SPD_EPS,
    ParamStore,
    TrajectoryDataset,
    fit,
    generate_dataset,
    inverse_dynamics_loss,
    loss_gradient,
    make_learnable,
    positive_scalar_init,
    positive_scalar_map,
    spd_init,
    spd_map,
)
from robotdyn.spatial import Mat33

G = 9.81


# ---------------------------------------------------------------------------
# positive scalar parametrization


def test_softplus_at_zero_is_log_two():
    np.testing.assert_allclose(positive_scalar_map(0.0), math.log(2.0),
                               rtol=1e-12)


def test_softplus_saturates_at_large_raw():
    np.testing.assert_allclose(positive_scalar_map(100.0), 100.0, rtol=1e-15)


def test_softplus_is_strictly_monotonic():
    raws = np.linspace(-20, 40, 200)
    vals = [float(ad.value(positive_scalar_map(r))) for r in raws]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_softplus_maps_nan_to_nan(pendulum):
    # the clamps alone would take -30 for NaN and report softplus(-30) ~ 9.4e-14
    assert math.isnan(positive_scalar_map(math.nan))
    got = positive_scalar_map(np.array([math.nan, 0.0, 50.0, -50.0]))
    assert math.isnan(got[0])
    np.testing.assert_allclose(got[1:], [math.log(2.0), 50.0, math.exp(-50.0)], rtol=1e-15)
    store = make_learnable(pendulum, "bob", "mass")
    assert math.isnan(store.physical_values([math.nan])["bob.mass"])


def test_softplus_init_closed_forms():
    np.testing.assert_allclose(positive_scalar_init(math.log(2.0)), 0.0,
                               atol=1e-12)
    np.testing.assert_allclose(positive_scalar_init(1.0), math.log(math.e - 1),
                               rtol=1e-12)


def test_softplus_roundtrip_random():
    rng = np.random.default_rng(0)
    for t in rng.uniform(1e-3, 1e3, size=50):
        got = float(ad.value(positive_scalar_map(positive_scalar_init(t))))
        np.testing.assert_allclose(got, t, rtol=1e-9)


def test_softplus_init_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        positive_scalar_init(0.0)
    with pytest.raises(ValueError):
        positive_scalar_init(-1.0)


# ---------------------------------------------------------------------------
# SPD parametrization


def test_spd_identity_raw():
    raw = [positive_scalar_init(1.0)] * 3 + [0.0, 0.0, 0.0]
    M = np.array(spd_map(raw).rows())
    np.testing.assert_allclose(M, np.eye(3), atol=1e-8)


def test_spd_map_always_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(50):
        raw = rng.uniform(-100, 100, size=6)
        M = np.array(spd_map(list(raw)).rows())
        np.testing.assert_allclose(M, M.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(M)) > 0.0


def test_spd_target_recoverable_via_cholesky():
    target = Mat33.diag(1.0, 2.0, 3.0)
    M = np.array(spd_map(spd_init(target)).rows())
    np.testing.assert_allclose(M, np.diag([1.0, 2.0, 3.0]), atol=1e-9)


def test_spd_roundtrip_random_spd_matrix():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3))
    T = A @ A.T + 0.1 * np.eye(3)
    M = np.array(spd_map(spd_init(Mat33.fromrows(T.tolist()))).rows())
    np.testing.assert_allclose(M, T, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# ParamStore


@pytest.mark.parametrize("fields", [("mass",), ("com",), ("rot_inertia",),
                                    ("mass", "com", "rot_inertia")],
                         ids=["mass", "com", "rot_inertia", "all"])
def test_make_learnable_init_at_current(six_dof, fields):
    store = ParamStore(six_dof)
    for field in fields:
        store.make_learnable("link3", field)
    for a, b in zip(six_dof.inertias(), store.inertias()):
        assert abs(float(ad.value(b.mass)) - float(a.mass)) <= 1e-12
        np.testing.assert_allclose(b.com.values(), a.com.values(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.rot_inertia.values(), a.rot_inertia.values(),
                                   rtol=0, atol=SPD_EPS)
    vals = store.physical_values()
    assert list(vals) == [f"link3.{field}" for field in fields]
    shapes = {"mass": (), "com": (3,), "rot_inertia": (3, 3)}
    for field in fields:
        # a float, a 3-list, a 3x3 nested list
        value = vals[f"link3.{field}"]
        assert np.shape(value) == shapes[field]
        assert isinstance(value, float if field == "mass" else list)
        rows = {"mass": [[value]], "com": [value], "rot_inertia": value}[field]
        assert all(isinstance(row, list) for row in rows)
        assert all(type(x) is float for row in rows for x in row)
    # model outputs are unchanged before any optimizer step
    q, qd, qdd = [0.4] * 6, [0.3] * 6, [0.2] * 6
    t1 = rnea(six_dof, q, qd, qdd)
    t2 = rnea(six_dof.with_inertias(store.inertias()), q, qd, qdd)
    np.testing.assert_allclose([float(ad.value(x)) for x in t2], t1, atol=1e-10)


def test_var_inertias_on_the_model_give_the_reference_gradient(six_dof):
    # d(w . rnea)/d(raw) through the model view, against values recorded from
    # the same sum with the inertias passed to rnea beside an unchanged model
    store = ParamStore(six_dof)
    for link, field in (("link2", "mass"), ("link3", "com"), ("link5", "rot_inertia")):
        store.make_learnable(link, field)
    q = [0.4, -0.3, 0.2, 0.5, -0.6, 0.1]
    qd = [0.3, 0.1, -0.2, 0.4, 0.0, -0.5]
    qdd = [0.2, -0.1, 0.3, 0.0, 0.25, -0.4]
    w = [1.0, -2.0, 0.5, 3.0, -1.5, 0.75]

    def weighted_torque(raw):
        s = 0.0
        for wj, t in zip(w, rnea(six_dof.with_inertias(store.inertias(raw)), q, qd, qdd)):
            s = s + wj * t
        return s

    g = ad.gradient(weighted_torque, list(store.raw))
    assert [float(x) for x in g] == [
        1.9643661315221546, 29.49805146200044, 0.08865673411096314,
        0.013496751286729083, 0.000652272895705868, -0.024781182049997238,
        0.0005056266413852568, 0.08479643881023076, 0.034570056934881015,
        -0.02267134905578209]


def test_make_learnable_unknown_link(pendulum):
    with pytest.raises((KeyError, ValueError)):
        make_learnable(pendulum, "ghost", "mass")


def test_make_learnable_duplicate_registration(pendulum):
    store = make_learnable(pendulum, "bob", "mass")
    with pytest.raises(ValueError):
        store.make_learnable("bob", "mass")


def test_make_learnable_unknown_field(pendulum):
    with pytest.raises(ValueError):
        make_learnable(pendulum, "bob", "friction")


def test_make_learnable_link_without_inertial(two_link):
    # "tool" hangs on a fixed joint: it has no body of its own, and the error
    # names the body its inertia was merged into
    with pytest.raises(ValueError, match="'link2'"):
        make_learnable(two_link, "tool", "mass")


def test_param_store_rejects_kinematics_only_model():
    model = rd.load_model(rd.fixture_path("pendulum"), kinematics_only=True)
    with pytest.raises(ValueError):
        ParamStore(model)


def test_param_store_multiple_fields(pendulum):
    store = make_learnable(pendulum, "bob", "mass")
    store.make_learnable("bob", "com")
    store.make_learnable("bob", "rot_inertia")
    assert store.size == 1 + 3 + 6
    vals = store.physical_values()
    assert set(vals) == {"bob.mass", "bob.com", "bob.rot_inertia"}
    np.testing.assert_allclose(vals["bob.mass"], 1.0, rtol=1e-9)
    np.testing.assert_allclose(vals["bob.com"], [1.0, 0.0, 0.0], atol=1e-12)


def test_constraints_hold_under_large_raw_perturbations(pendulum):
    store = make_learnable(pendulum, "bob", "mass")
    store.make_learnable("bob", "rot_inertia")
    rng = np.random.default_rng(3)
    for _ in range(20):
        raw = list(store.raw + rng.uniform(-100, 100, size=store.size))
        inertias = store.inertias(raw)
        bob = inertias[pendulum.body_index("bob")]
        assert float(ad.value(bob.mass)) > 0.0
        I = np.array([[float(ad.value(v)) for v in row]
                      for row in bob.rot_inertia.rows()])
        assert np.min(np.linalg.eigvalsh(I)) > 0.0


# ---------------------------------------------------------------------------
# datasets


def test_generate_dataset_is_deterministic(pendulum, tmp_path):
    a = generate_dataset(pendulum, 50, seed=7)
    b = generate_dataset(pendulum, 50, seed=7)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.save_jsonl(pa)
    b.save_jsonl(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generate_dataset_tau_matches_rnea(two_link):
    ds = generate_dataset(two_link, 20, seed=1)
    for i in range(len(ds)):
        tau = rnea(two_link, list(ds.q[i]), list(ds.qd[i]), list(ds.qdd[i]))
        np.testing.assert_allclose(ds.tau[i], tau, atol=1e-12)


def test_generate_dataset_rejects_empty(pendulum):
    with pytest.raises(ValueError):
        generate_dataset(pendulum, 0)


def test_generate_dataset_noise_perturbs_tau(pendulum):
    clean = generate_dataset(pendulum, 30, seed=2)
    noisy = generate_dataset(pendulum, 30, seed=2, noise_std=0.1)
    np.testing.assert_allclose(noisy.q, clean.q)
    assert np.max(np.abs(noisy.tau - clean.tau)) > 1e-3


def test_dataset_jsonl_roundtrip(two_link, tmp_path):
    ds = generate_dataset(two_link, 10, seed=3)
    path = tmp_path / "ds.jsonl"
    ds.save_jsonl(path)
    back = TrajectoryDataset.load_jsonl(path)
    np.testing.assert_allclose(back.q, ds.q, atol=1e-15)
    np.testing.assert_allclose(back.tau, ds.tau, atol=1e-15)


def test_dataset_load_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(ValueError):
        TrajectoryDataset.load_jsonl(bad)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        TrajectoryDataset.load_jsonl(empty)
    missing = tmp_path / "missing.jsonl"
    missing.write_text('{"q": [0.0], "qd": [0.0], "qdd": [0.0]}\n')
    with pytest.raises(ValueError):
        TrajectoryDataset.load_jsonl(missing)


@pytest.mark.parametrize("record, message", [
    ("5", "record is not a JSON object"),
    ('{"q": 1, "qd": [0.0], "qdd": [0.0], "tau": [0.0]}', "'q' is not a list"),
    ('{"q": [0.0], "qd": ["a"], "qdd": [0.0], "tau": [0.0]}',
     "'qd' entry 'a' is not a float or a 64-bit integer"),
    ('{"q": [0.0], "qd": [0.0], "qdd": [null], "tau": [0.0]}',
     "'qdd' entry None is not a float or a 64-bit integer"),
    ('{"q": [0.0], "qd": [0.0], "qdd": [0.0], "tau": [[1.0]]}',
     "'tau' entry [1.0] is not a float or a 64-bit integer"),
    ('{"q": [0.5, 1], "qd": [0.0], "qdd": [0.0], "tau": [0.0]}', "'q' has length 2, expected 1"),
    ('{"q": [0.5], "qd": [0.0], "qdd": [], "tau": [0.0]}', "'qdd' has length 0, expected 1"),
])
def test_dataset_load_names_line_of_malformed_record(tmp_path, record, message):
    path = tmp_path / "bad.jsonl"
    good = '{"q": [0.5], "qd": [0.0], "qdd": [0.0], "tau": [1]}\n'
    path.write_text(good + "\n" + record + "\n" + good)
    with pytest.raises(ValueError) as exc:
        TrajectoryDataset.load_jsonl(path)
    assert str(exc.value) == f"{path}:3: {message}"


def test_dataset_rejects_nonfinite_values():
    with pytest.raises(ValueError):
        TrajectoryDataset([[np.nan]], [[0.0]], [[0.0]], [[0.0]])


def test_dataset_subset(pendulum):
    ds = generate_dataset(pendulum, 10, seed=4)
    sub = ds.subset(np.arange(3))
    assert len(sub) == 3
    np.testing.assert_allclose(sub.q, ds.q[:3])


# ---------------------------------------------------------------------------
# loss


def test_loss_at_ground_truth_is_tiny(pendulum):
    ds = generate_dataset(pendulum, 100, seed=5)
    store = make_learnable(pendulum, "bob", "mass")
    loss = float(ad.value(inverse_dynamics_loss(store, ds)))
    assert loss < 1e-20


def test_loss_rejects_empty_dataset(pendulum):
    store = make_learnable(pendulum, "bob", "mass")
    empty = TrajectoryDataset(np.zeros((0, 1)), np.zeros((0, 1)),
                              np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        inverse_dynamics_loss(store, empty)


def test_loss_rejects_dof_mismatch(pendulum, two_link):
    store = make_learnable(pendulum, "bob", "mass")
    ds = generate_dataset(two_link, 5, seed=6)
    with pytest.raises(ValueError):
        inverse_dynamics_loss(store, ds)


def test_loss_closed_form_for_doubled_mass(pendulum):
    # static data (qd = qdd = 0) from the true model (m = 1); evaluating with
    # m = 2 leaves a residual (2-1) g l cos q per sample
    q = generate_dataset(pendulum, 200, seed=7).q
    zeros = np.zeros_like(q)
    tau = np.array(rnea(pendulum, list(q.T), list(zeros.T), list(zeros.T))).T
    ds = TrajectoryDataset(q, zeros, zeros, tau)
    store = make_learnable(pendulum, "bob", "mass")
    raw = [positive_scalar_init(2.0)]
    loss = float(ad.value(inverse_dynamics_loss(store, ds, raw)))
    want = np.mean((G * np.cos(ds.q[:, 0])) ** 2)
    np.testing.assert_allclose(loss, want, rtol=1e-9)


def test_loss_gradient_matches_finite_difference(pendulum):
    ds = generate_dataset(pendulum, 50, seed=8)
    store = make_learnable(pendulum, "bob", "mass")
    store.make_learnable("bob", "com")
    raw0 = list(store.raw + 0.1)
    g = loss_gradient(store, ds, raw0)
    step = 1e-6
    for i in range(store.size):
        rp, rm = list(raw0), list(raw0)
        rp[i] += step
        rm[i] -= step
        fd = (float(ad.value(inverse_dynamics_loss(store, ds, rp)))
              - float(ad.value(inverse_dynamics_loss(store, ds, rm)))) / (2 * step)
        assert abs(g[i] - fd) / max(1.0, abs(g[i])) < 1e-5


# ---------------------------------------------------------------------------
# the regressor-based loss and gradient that fit steps with


def assert_fit_gradient_matches_loss_gradient(store, dataset, raw, gravity=None):
    """The loss and gradient that a ``fit`` step consumes at ``raw`` equal the
    rnea-taped reference to 1e-10 relative.

    The step's gradient is (2/N) J^T (Y^T r), with J = dpi/draw by forward
    mode.  Where the learned fields barely reach the torques the reference
    can be 0 (a CoM on the joint axis, say), and rounding alone separates the
    two; the floors bound that rounding by the data's scale: sum(tau^2)/N for
    the loss, (2/N) |Y| |J| |tau| for the gradient.
    """
    Y = regressor(store.model, list(dataset.q.T), list(dataset.qd.T),
                  list(dataset.qdd.T), gravity=gravity)
    Y = Y.reshape(-1, Y.shape[-1])
    r, loss = learn._residual(Y, dataset.tau, learn._params(store, list(raw)))
    J = ad.jacobian_fwd(lambda rs: learn._params(store, rs), list(raw))
    g = 2.0 / len(dataset) * (J.T @ (Y.T @ r.ravel()))
    want = loss_gradient(store, dataset, list(raw), gravity=gravity)
    want_loss = float(ad.value(inverse_dynamics_loss(store, dataset, list(raw),
                                                     gravity=gravity)))
    tau_norm = np.linalg.norm(dataset.tau)
    assert abs(loss - want_loss) <= 1e-10 * want_loss + 1e-20 * tau_norm ** 2 / len(dataset)
    g_scale = 2.0 / len(dataset) * np.linalg.norm(Y) * np.linalg.norm(J) * tau_norm
    assert np.linalg.norm(g - want) <= 1e-10 * np.linalg.norm(want) + 1e-12 * g_scale


FIELD_SETS = (("mass",), ("com",), ("rot_inertia",), ("mass", "com", "rot_inertia"))


@pytest.mark.parametrize("fields", FIELD_SETS, ids="+".join)
@pytest.mark.parametrize("gravity", [None, (0.0, 0.0, 0.0)], ids=["gravity", "no_gravity"])
def test_fit_gradient_equals_loss_gradient(six_dof, fields, gravity):
    ds = generate_dataset(six_dof, 60, seed=21, gravity=gravity)
    store = ParamStore(six_dof)
    for link in ("link2", "link4"):
        for field in fields:
            store.make_learnable(link, field)
    raw = store.raw + np.random.default_rng(22).normal(0.0, 0.2, store.size)
    assert_fit_gradient_matches_loss_gradient(store, ds, raw, gravity=gravity)
    rows = np.random.default_rng(23).permutation(60)[:16]
    assert_fit_gradient_matches_loss_gradient(store, ds.subset(rows), raw, gravity=gravity)


def test_fit_records_no_tape_node_and_runs_no_rnea(six_dof, monkeypatch):
    # dpi/draw, for the steps and for identifiability, is forward mode, and
    # inverse dynamics comes from the regressor alone
    ds = generate_dataset(six_dof, 200, seed=24)
    values = []
    record = ad.Tape.var

    def var(self, val, op="input", parents=()):
        values.append(val)
        return record(self, val, op, parents)

    def no_rnea(*args, **kwargs):
        raise AssertionError("fit ran rnea")

    monkeypatch.setattr(ad.Tape, "var", var)
    monkeypatch.setattr(learn, "rnea", no_rnea)
    store = ParamStore(six_dof)
    for link, field in (("link2", "mass"), ("link3", "com"), ("link4", "rot_inertia")):
        store.make_learnable(link, field)
    fit(store, ds, epochs=3)
    assert values == []


def test_fit_reports_identifiability(pendulum, pendulum_mass2):
    # the pendulum turns about y: com_y never reaches the torque, so 2 of the
    # 3 CoM coordinates are identifiable
    ds = generate_dataset(pendulum, 100, seed=25)
    report = fit(make_learnable(pendulum_mass2, "bob", "com"), ds, epochs=3)
    ident = report.identifiability
    assert (ident["parameters"], ident["rank"]) == (3, 2)
    assert 1.0 <= ident["condition"] < 1e6
    report = fit(make_learnable(pendulum_mass2, "bob", "mass"), ds, epochs=3)
    assert report.identifiability == {"parameters": 1, "rank": 1, "condition": 1.0}


# ---------------------------------------------------------------------------
# fit


def test_fit_recovers_pendulum_mass(pendulum, pendulum_mass2):
    ds = generate_dataset(pendulum, 200, seed=9)
    store = make_learnable(pendulum_mass2, "bob", "mass")
    report = fit(store, ds, epochs=1000)
    assert report.final_loss < 1e-8
    np.testing.assert_allclose(report.final_params["bob.mass"], 1.0,
                               rtol=0.01)


def test_fit_without_gravity_recovers_via_inertia(pendulum, pendulum_mass2):
    # with g = 0 the mass is still identified through the m l^2 qdd term
    ds = generate_dataset(pendulum, 200, seed=11, gravity=(0.0, 0.0, 0.0))
    store = make_learnable(pendulum_mass2, "bob", "mass")
    report = fit(store, ds, epochs=1000, gravity=(0.0, 0.0, 0.0))
    np.testing.assert_allclose(report.final_params["bob.mass"], 1.0,
                               rtol=0.01)


def test_fit_loss_curve_is_recorded(pendulum, pendulum_mass2):
    ds = generate_dataset(pendulum, 100, seed=13)
    store = make_learnable(pendulum_mass2, "bob", "mass")
    report = fit(store, ds, epochs=50)
    # one loss per iteration, and no step raises it
    assert len(report.losses) == report.iterations > 1
    assert report.final_loss == report.losses[-1]
    assert min(report.losses) == report.final_loss
    assert all(b <= a for a, b in zip(report.losses, report.losses[1:]))


def test_fit_stop_reason_tells_converged_from_gave_up(pendulum, pendulum_mass2):
    # noisy torques: the loss floors near the noise variance, far above tol;
    # the fit reaches that least-squares floor in a few steps and stops there
    noisy = generate_dataset(pendulum, 200, seed=0, noise_std=0.5)
    store = make_learnable(pendulum_mass2, "bob", "mass")
    report = fit(store, noisy)
    assert report.stop_reason == "plateau" and report.converged is False
    assert report.final_loss > 0.1 and report.iterations < 10

    clean = generate_dataset(pendulum, 200, seed=9)
    store = make_learnable(pendulum_mass2, "bob", "mass")
    report = fit(store, clean)
    assert report.stop_reason == "tol" and report.converged is True
    assert report.final_loss < 1e-10

    store = make_learnable(pendulum_mass2, "bob", "mass")
    report = fit(store, clean, epochs=3)
    assert report.stop_reason == "max_epochs" and report.converged is False
    assert report.iterations == 3


def test_fit_rejects_empty_store(pendulum):
    ds = generate_dataset(pendulum, 10, seed=14)
    with pytest.raises(ValueError):
        fit(ParamStore(pendulum), ds)


def test_fit_rejects_unknown_optimizer(pendulum, pendulum_mass2):
    # Levenberg-Marquardt is the only path: a choice of optimizer is refused
    ds = generate_dataset(pendulum, 10, seed=15)
    store = make_learnable(pendulum_mass2, "bob", "mass")
    with pytest.raises(TypeError, match="'optimizer'"):
        fit(store, ds, optimizer="lbfgs")


# not arguments of fit, so they are refused rather than silently ignored
REMOVED_KNOBS = ("learning_rate", "batch_size", "patience", "tol", "rel_tol")


@pytest.mark.parametrize("kwargs, name", [
    ({"epochs": 0}, "epochs"), ({"learning_rate": math.nan}, "learning_rate"),
    ({"learning_rate": -0.01}, "learning_rate"), ({"learning_rate": 0.0}, "learning_rate"),
    ({"learning_rate": math.inf}, "learning_rate"), ({"batch_size": 0}, "batch_size"),
    ({"patience": 0}, "patience"), ({"patience": -3}, "patience"),
    ({"patience": 2.5}, "patience"), ({"tol": -1e-10}, "tol"), ({"tol": math.nan}, "tol"),
    ({"rel_tol": -1e-12}, "rel_tol"), ({"rel_tol": math.nan}, "rel_tol"),
    ({"optimizer": "lm", "batch_size": 4}, "batch_size"),
])
def test_fit_rejects_arguments_it_cannot_honour(pendulum, pendulum_mass2, monkeypatch,
                                                kwargs, name):
    # a bad value is a ValueError naming it; a removed knob is a TypeError
    ds = generate_dataset(pendulum, 10, seed=17)
    store = make_learnable(pendulum_mass2, "bob", "mass")
    raw = store.raw.copy()
    monkeypatch.setattr(learn, "regressor", None)   # any work would fail on it
    error, match = ((TypeError, "unexpected keyword argument") if name in REMOVED_KNOBS
                    else (ValueError, f"^{name} "))
    with pytest.raises(error, match=match):
        fit(store, ds, **kwargs)
    assert np.array_equal(store.raw, raw)


# (model, field, raw offset, fit arguments), then the stop reason
LM_CASES = {
    # com_y never reaches the torque: rank 2 of 3
    "rank_deficient": (("pendulum", "com", (0.1, 0.2, -0.15), {}), "tol"),
    "mass": (("pendulum_mass2", "mass", (0.0,), {}), "tol"),
    "at_optimum": (("pendulum", "com", (0.0, 0.0, 0.0), {}), "tol"),
    # a mass of 2 cannot fit a mass-1 pendulum by moving its CoM alone
    "unreachable": (("pendulum_mass2", "com", (0.0, 0.0, 0.0), {}), "plateau"),
    "one_epoch": (("pendulum_mass2", "com", (0.0, 0.0, 0.0), {"epochs": 1}), "max_epochs"),
    # without gravity a CoM on the joint axis is a saddle: H = 0 and g = 0
    "saddle": (("pendulum", "com", (-1.0, 0.0, 0.0), {"gravity": (0.0, 0.0, 0.0)}),
               "plateau"),
}


@pytest.mark.parametrize("case", sorted(LM_CASES))
def test_fit_lm_edge_cases_stay_finite(request, pendulum, case):
    (model, field, offset, kwargs), want = LM_CASES[case]
    ds = generate_dataset(pendulum, 100, seed=25)
    store = make_learnable(request.getfixturevalue(model), "bob", field)
    store.raw = store.raw + np.asarray(offset)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        report = fit(store, ds, **kwargs)
    assert report.stop_reason == want and report.converged == (want == "tol")
    losses = np.asarray(report.losses)
    assert np.all(np.isfinite(losses)) and np.all(np.isfinite(store.raw))
    assert np.all(np.diff(losses) <= 0.0) and report.final_loss == losses[-1]
    assert len(losses) == report.iterations
    ident = report.identifiability
    assert math.isfinite(ident["condition"]) == (ident["rank"] > 0)
    assert (ident["rank"] == 0) == (case == "saddle")
    if want == "tol":
        assert report.final_loss < 1e-10
        # the pendulum's bob: mass 1 at (1, 0, 0); com_y stays where it started
        want = 1.0 if field == "mass" else [1.0, offset[1], 0.0]
        np.testing.assert_allclose(store.physical_values()[f"bob.{field}"], want,
                                   rtol=1e-5, atol=1e-5)
    if case in ("one_epoch", "saddle"):
        assert report.iterations == 1
    if case == "unreachable":
        # the last step lowered the loss by less than FIT_REL_TOL
        assert report.final_loss > 0.1 and losses[-2] - losses[-1] < 1e-12 * losses[-2]


def test_fit_large_torques_converge(pendulum, pendulum_mass2):
    # a loss far above 1e12 is only the data's scale: every step still lowers
    # it, and the mass comes out at the scale of the torques
    ds = generate_dataset(pendulum, 100, seed=16)
    big = TrajectoryDataset(ds.q, ds.qd, ds.qdd, ds.tau * 1e7)
    store = make_learnable(pendulum_mass2, "bob", "mass")
    report = fit(store, big)
    assert report.losses[0] > 1e12
    assert report.stop_reason == "tol" and report.converged is True
    assert np.all(np.diff(report.losses) < 0.0)
    np.testing.assert_allclose(report.final_params["bob.mass"], 1e7, rtol=1e-9)
