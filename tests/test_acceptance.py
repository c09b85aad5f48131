"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each test prints ``ACCEPTANCE <k> <name>: PASS`` (or FAIL) through the capture
so the verdicts are visible in the normal pytest output, then asserts.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import robotdyn as rd
from robotdyn import autodiff as ad
from robotdyn.cli import main as cli_main
from robotdyn.dynamics import (
    aba,
    forward_dynamics_cholesky,
    mass_matrix,
    rnea,
    simulate,
    total_energy,
)
from robotdyn.kinematics import (
    forward_kinematics,
    inverse_kinematics,
    link_jacobian,
)
from robotdyn.learn import (
    fit,
    generate_dataset,
    make_learnable,
    positive_scalar_init,
)
from robotdyn.selfcheck import _central_columns
from robotdyn.spatial import Mat33, SpatialInertia, Vec3
from robotdyn.urdf import (
    UnsupportedFeatureError,
    build_model,
    parse_urdf,
    validate,
)
from conftest import random_state

G = 9.81
NO_GRAVITY = (0.0, 0.0, 0.0)
FIXTURES = ("pendulum", "two_link_planar", "six_dof_arm")


def verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        tail = f"  ({detail})" if detail else ""
        print(f"\nACCEPTANCE {num} {name}: {status}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_cross_algorithm_consistency(capsys, all_models):
    t0 = time.time()
    worst = {"roundtrip": 0.0, "crba": 0.0, "chol": 0.0}
    for model in all_models:
        rng = np.random.default_rng(0)
        zero = [0.0] * model.n
        for _ in range(200):
            q, qd, tau = random_state(model, rng)
            qdd = aba(model, list(q), list(qd), list(tau))
            back = np.array(rnea(model, list(q), list(qd), qdd))
            worst["roundtrip"] = max(
                worst["roundtrip"],
                float(np.max(np.abs(back - tau)) / max(1.0, np.max(np.abs(tau)))))
            M = np.asarray(mass_matrix(model, list(q)))
            for j in range(model.n):
                ej = [0.0] * model.n
                ej[j] = 1.0
                col = rnea(model, list(q), zero, ej, gravity=NO_GRAVITY)
                worst["crba"] = max(worst["crba"],
                                    float(np.max(np.abs(M[:, j] - col))))
            a2 = np.array(forward_dynamics_cholesky(model, list(q), list(qd),
                                                    list(tau)))
            worst["chol"] = max(
                worst["chol"],
                float(np.max(np.abs(a2 - qdd)) / max(1.0, np.max(np.abs(qdd)))))
    elapsed = time.time() - t0
    ok = (worst["roundtrip"] < 1e-8 and worst["crba"] < 1e-10
          and worst["chol"] < 1e-9 and elapsed < 10.0)
    verdict(capsys, 1, "cross-algorithm consistency", ok,
            f"roundtrip {worst['roundtrip']:.2e}, crba {worst['crba']:.2e}, "
            f"chol {worst['chol']:.2e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_fixtures(capsys, pendulum, two_link):
    worst = 0.0
    for q in (0.0, np.pi / 6, np.pi / 2, np.pi):
        tau = rnea(pendulum, [q], [0.0], [0.0])
        worst = max(worst, abs(abs(tau[0]) - G * abs(np.cos(q))))
    M = np.asarray(mass_matrix(pendulum, [0.3]))
    worst = max(worst, abs(float(M[0, 0]) - 1.0))
    rng = np.random.default_rng(1)
    for _ in range(100):
        q1, q2 = rng.uniform(-np.pi, np.pi, size=2)
        p = forward_kinematics(two_link, [q1, q2])["tool"].position
        want = (np.cos(q1) + np.cos(q1 + q2), np.sin(q1) + np.sin(q1 + q2), 0.0)
        worst = max(worst, float(np.max(np.abs(np.array(p.values()) - want))))
    verdict(capsys, 2, "closed-form fixtures", worst < 1e-12,
            f"max error {worst:.2e}")


def _learnable_inertias(model, params):
    """Per-body inertias rebuilt from a flat parameter vector (10 per body:
    mass, com, and the 6 unique rotational inertia entries)."""
    out = []
    k = 0
    for _ in model.bodies:
        mass = params[k]
        com = Vec3(params[k + 1], params[k + 2], params[k + 3])
        a, b, c, d, e, f = params[k + 4:k + 10]
        rot = Mat33(a, b, c, b, d, e, c, e, f)
        out.append(SpatialInertia(mass, com, rot))
        k += 10
    return out


def _inertial_param_vector(model):
    vals = []
    for I in model.inertias():
        R = I.rot_inertia
        vals += [I.mass, I.com.x, I.com.y, I.com.z,
                 R.a, R.b, R.c, R.e, R.f, R.i]
    return vals


def test_criterion_3_differentiability(capsys, all_models):
    step = 1e-6
    worst = 0.0
    for model in all_models:
        n = model.n
        link = model.link_names()[-1]
        p0 = _inertial_param_vector(model)
        rng = np.random.default_rng(2)
        for _ in range(50):
            q, qd, tau = random_state(model, rng)
            w = rng.normal(size=(4, n))
            wp = rng.normal(size=3)
            u = rng.normal(size=n)
            x0 = list(np.concatenate([q, qd, tau, p0]))

            def scalar(xs):
                qs, qds, taus = xs[:n], xs[n:2 * n], xs[2 * n:3 * n]
                learnable = model.with_inertias(_learnable_inertias(model, xs[3 * n:]))
                pose = forward_kinematics(model, qs)[link]
                s = (wp[0] * pose.position.x + wp[1] * pose.position.y
                     + wp[2] * pose.position.z)
                t_out = rnea(learnable, qs, qds, taus)
                a_out = aba(learnable, qs, qds, taus)
                M = mass_matrix(learnable, qs)
                for j in range(n):
                    s = s + w[0][j] * t_out[j] + w[1][j] * a_out[j]
                    mu = 0.0
                    for k in range(n):
                        mu = mu + M[j][k] * u[k]
                    s = s + w[2][j] * mu
                return s

            g = ad.gradient(scalar, x0)
            # central differences: input i moved by +step, then by -step, as
            # the columns of one batched evaluation
            s = scalar(_central_columns(np.array(x0)[:, None], step)).reshape(-1, 2)
            fd = (s[:, 0] - s[:, 1]) / (2.0 * step)
            worst = max(worst, float(np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)))))
            # Jacobian consistency: analytic linear rows vs forward-mode FK
            J = link_jacobian(model, list(q), link)
            J_ad = ad.jacobian_fwd(
                lambda qs: forward_kinematics(model, list(qs))[
                    link].position.tolist(), list(q))
            worst = max(worst, float(np.max(np.abs(J[3:6] - J_ad))))
    verdict(capsys, 3, "differentiability", worst < 1e-5,
            f"max relative error {worst:.2e}")


def test_criterion_4_energy_conservation(capsys, two_link):
    q0, qd0 = [0.4, -0.3], [1.0, 0.5]

    def drift(dt, steps):
        traj = simulate(two_link, q0, qd0, None, dt, steps,
                        gravity=NO_GRAVITY)
        e0 = total_energy(two_link, list(traj[0][1]), list(traj[0][2]),
                          gravity=NO_GRAVITY)
        worst = max(abs(total_energy(two_link, list(q), list(qd),
                                     gravity=NO_GRAVITY) - e0)
                    for _, q, qd, _ in traj)
        return worst / abs(e0)

    d1 = drift(1e-3, 1000)
    d2 = drift(5e-4, 2000)
    factor = d1 / d2
    ok = d1 < 1e-8 and 8.0 <= factor <= 32.0
    verdict(capsys, 4, "energy conservation", ok,
            f"drift {d1:.2e}, halving factor {factor:.1f}")


def test_criterion_5_system_identification(capsys, pendulum, two_link):
    t0 = time.time()
    results = []

    ds = generate_dataset(pendulum, 500, seed=3)
    store = make_learnable(pendulum, "bob", "mass")
    store.raw = np.array([positive_scalar_init(2.0)])
    rep = fit(store, ds, epochs=2000)
    results.append(("pendulum", rep, {"bob.mass": 1.0}))

    ds2 = generate_dataset(two_link, 500, seed=4)
    store2 = make_learnable(two_link, "link1", "mass")
    store2.make_learnable("link2", "mass")
    store2.raw = np.array([positive_scalar_init(2.0),
                           positive_scalar_init(2.0)])
    rep2 = fit(store2, ds2, epochs=2000)
    results.append(("two_link", rep2, {"link1.mass": 1.0, "link2.mass": 1.0}))

    elapsed = time.time() - t0
    ok = elapsed < 60.0
    details = [f"{elapsed:.1f}s"]
    for name, rep, truth in results:
        err = max(abs(rep.final_params[k] - v) / v for k, v in truth.items())
        ok = ok and err < 0.01 and rep.final_loss < 1e-8 and rep.iterations < 2000
        details.append(f"{name}: err {err:.2e}, loss {rep.final_loss:.1e}, "
                       f"{rep.iterations} iterations")
    verdict(capsys, 5, "system identification", ok, "; ".join(details))


def test_criterion_6_inverse_kinematics(capsys, two_link, six_dof):
    details = []
    ok = True
    for model in (two_link, six_dof):
        rng = np.random.default_rng(5)
        lo, hi = model.joint_limits()
        lo = np.maximum(lo, -np.pi)
        hi = np.minimum(hi, np.pi)
        hits = 0
        for i in range(50):
            q = rng.uniform(lo, hi)
            target = forward_kinematics(model, list(q))["tool"].position
            q0 = rng.uniform(lo, hi)
            res = inverse_kinematics(model, target, "tool", q0=list(q0),
                                     max_iters=500, seed=i)
            p = forward_kinematics(model, list(res.q))["tool"].position
            err = np.linalg.norm(np.array(p.values()) - np.array(target.values()))
            if err < 1e-4:
                hits += 1
        ok = ok and hits >= 48  # >= 95% of 50
        details.append(f"{model.name}: {hits}/50")
    verdict(capsys, 6, "IK convergence", ok, ", ".join(details))


def test_criterion_7_parser_corpus(capsys):
    def read(name):
        with open(rd.fixture_path(name)) as fh:
            return fh.read()

    ok = True
    details = []
    for name in ("pendulum", "pendulum_mass2", "two_link_planar",
                 "six_dof_arm"):
        try:
            desc = parse_urdf(read(name))
            errors = [d for d in validate(desc) if d.level == "error"]
            build_model(desc)
            if errors:
                ok = False
                details.append(f"{name}: unexpected errors")
        except Exception as e:  # pragma: no cover - failure reporting
            ok = False
            details.append(f"{name}: {e}")

    for name, code in (("bad_cycle", "cycle"),
                       ("bad_double_root", "multiple_roots"),
                       ("bad_negative_mass", "nonpositive_mass")):
        diags = validate(parse_urdf(read(name)))
        if not any(d.code == code and d.level == "error" for d in diags):
            ok = False
            details.append(f"{name}: missing {code}")

    try:
        parse_urdf(read("bad_floating"))
        ok = False
        details.append("bad_floating: accepted")
    except UnsupportedFeatureError:
        pass

    # bad_inertia: builds with a warning; the dynamics self-checks must fail
    diags = validate(parse_urdf(read("bad_inertia")))
    if not any(d.code == "indefinite_inertia" for d in diags):
        ok = False
        details.append("bad_inertia: missing warning")
    if cli_main(["check", rd.fixture_path("bad_inertia")]) == 0:
        ok = False
        details.append("bad_inertia: check passed")
    verdict(capsys, 7, "parser corpus", ok, "; ".join(details) or "all fixtures")


def test_criterion_8_cli_contract(capsys, tmp_path):
    ok = True
    details = []

    def run_json(*argv):
        code = cli_main(list(argv) + ["--format", "json"])
        out = capsys.readouterr().out
        return code, (json.loads(out) if out else None)

    for name in FIXTURES:
        code, doc = run_json("check", rd.fixture_path(name))
        if code != 0 or not doc["passed"]:
            ok = False
            details.append(f"check {name}: exit {code}")

    checks = [
        (0, run_json("info", rd.fixture_path("pendulum"))[0]),
        (2, cli_main(["info", rd.fixture_path("bad_cycle")])),
        (0, run_json("fk", rd.fixture_path("pendulum"), "--q", "0",
                     "--link", "bob")[0]),
        (2, cli_main(["fk", rd.fixture_path("pendulum"), "--q", "0,0",
                      "--link", "bob"])),
        (0, run_json("jac", rd.fixture_path("pendulum"), "--q", "0",
                     "--link", "bob")[0]),
        (0, run_json("id", rd.fixture_path("pendulum"), "--q", "0",
                     "--qd", "0", "--qdd", "0")[0]),
        (0, run_json("fd", rd.fixture_path("pendulum"), "--q", "0",
                     "--qd", "0", "--tau", "0")[0]),
        (1, cli_main(["fd", rd.fixture_path("bad_inertia"), "--q", "0",
                      "--qd", "0", "--tau", "0"])),
        (0, run_json("ik", rd.fixture_path("two_link_planar"), "--link",
                     "tool", "--target", "1,1,0", "--q0", "0.1,0.1")[0]),
        (2, cli_main(["gen-data", rd.fixture_path("pendulum"), "--n", "0",
                      "--out", str(tmp_path / "z.jsonl")])),
    ]
    capsys.readouterr()
    for want, got in checks:
        if want != got:
            ok = False
            details.append(f"exit {got} != {want}")

    # gen-data byte determinism through the real process boundary
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "robotdyn.cli", "gen-data",
             rd.fixture_path("pendulum"), "--n", "100", "--seed", "7",
             "--out", str(out)], capture_output=True)
        if proc.returncode != 0:
            ok = False
            details.append("gen-data failed")
    if out_a.read_bytes() != out_b.read_bytes():
        ok = False
        details.append("gen-data not byte-deterministic")
    verdict(capsys, 8, "CLI contract", ok, "; ".join(details) or "all subcommands")
