"""CLI contract: JSON schemas, exit codes, determinism, golden values."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robotdyn as rd
from robotdyn.cli import build_parser, dumps17, main
from conftest import heavy_two_link_urdf, urdf_text


def fx(name):
    return rd.fixture_path(name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# info


def test_info_pendulum(capsys):
    code, doc, _ = run_json(capsys, "info", fx("pendulum"))
    assert code == 0
    assert doc["name"] == "pendulum"
    assert doc["dof"] == 1
    assert len(doc["links"]) == 2


def test_info_six_dof(capsys):
    code, doc, _ = run_json(capsys, "info", fx("six_dof_arm"))
    assert code == 0
    assert doc["dof"] == 6


def test_info_text_format(capsys):
    code, out, _ = run_cli(capsys, "info", fx("pendulum"))
    assert code == 0
    assert "robot: pendulum" in out
    assert "dof: 1" in out


def test_info_cycle_fixture_exits_2(capsys):
    code, out, err = run_cli(capsys, "info", fx("bad_cycle"))
    assert code == 2
    assert "cycle" in err


def test_info_nonfinite_mass_exits_2(capsys, tmp_path):
    path = tmp_path / "nan_mass.urdf"
    text = Path(fx("pendulum")).read_text()
    assert '<mass value="1.0"/>' in text
    path.write_text(text.replace('<mass value="1.0"/>', '<mass value="nan"/>'))
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert "nonfinite_value" in err


@pytest.mark.parametrize("old, new, message", [
    ('<mass value="1.0"/>', '<mass value="abc"/>', "link 'bob': bad mass value 'abc'"),
    ('lower="-6.2831853071795862"', 'lower="x1"', "joint 'pivot': bad limit lower 'x1'"),
])
def test_info_bad_number_exits_2_naming_its_owner(capsys, tmp_path, old, new, message):
    path = tmp_path / "bad_number.urdf"
    text = Path(fx("pendulum")).read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "info", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_info_double_root_exits_2(capsys):
    code, _, err = run_cli(capsys, "info", fx("bad_double_root"))
    assert code == 2
    assert "multiple" in err


def test_info_warns_but_succeeds_on_indefinite_inertia(capsys):
    code, _, err = run_cli(capsys, "info", fx("bad_inertia"))
    assert code == 0
    assert "indefinite_inertia" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "info", "/does/not/exist.urdf")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# fk / jac


def test_fk_pendulum_at_zero(capsys):
    code, doc, _ = run_json(capsys, "fk", fx("pendulum"), "--q", "0",
                            "--link", "bob")
    assert code == 0
    np.testing.assert_allclose(doc["position"], [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(doc["rotation_matrix"],
                               [1, 0, 0, 0, 1, 0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(doc["quaternion_wxyz"], [1, 0, 0, 0],
                               atol=1e-15)


def test_fk_two_link_bent(capsys):
    code, doc, _ = run_json(
        capsys, "fk", fx("two_link_planar"),
        "--q", "1.5707963267948966,-1.5707963267948966", "--link", "tool")
    assert code == 0
    np.testing.assert_allclose(doc["position"], [1, 1, 0], atol=1e-12)


def test_fk_defaults_q_to_zero(capsys):
    code, doc, _ = run_json(capsys, "fk", fx("two_link_planar"),
                            "--link", "tool")
    assert code == 0
    np.testing.assert_allclose(doc["position"], [2, 0, 0], atol=1e-14)


def test_fk_quaternion_w_is_nonnegative(capsys):
    code, doc, _ = run_json(capsys, "fk", fx("two_link_planar"),
                            "--q", "3.0,0.5", "--link", "tool")
    assert code == 0
    assert doc["quaternion_wxyz"][0] >= 0.0


def test_fk_wrong_q_length_exits_2(capsys):
    code, _, err = run_cli(capsys, "fk", fx("pendulum"), "--q", "0,0",
                           "--link", "bob")
    assert code == 2


def test_fk_unknown_link_exits_2(capsys):
    code, _, _ = run_cli(capsys, "fk", fx("pendulum"), "--q", "0",
                         "--link", "ghost")
    assert code == 2


def test_jac_schema(capsys):
    code, doc, _ = run_json(capsys, "jac", fx("two_link_planar"),
                            "--q", "0,0", "--link", "tool")
    assert code == 0
    assert doc["rows"] == 6 and doc["cols"] == 2
    np.testing.assert_allclose(doc["jacobian"],
                               [0, 0, 0, 0, 1, 1, 0, 0, 2, 1, 0, 0],
                               atol=1e-14)


# ---------------------------------------------------------------------------
# id / fd


def test_id_pendulum_gravity_torque(capsys):
    code, doc, _ = run_json(capsys, "id", fx("pendulum"), "--q", "0",
                            "--qd", "0", "--qdd", "0")
    assert code == 0
    np.testing.assert_allclose(abs(doc["tau"][0]), 9.81, atol=1e-12)


def test_id_custom_gravity(capsys):
    code, doc, _ = run_json(capsys, "id", fx("pendulum"), "--q", "0",
                            "--qd", "0", "--qdd", "0", "--gravity", "0,0,0")
    assert code == 0
    np.testing.assert_allclose(doc["tau"], [0.0], atol=1e-14)


def test_fd_id_roundtrip(capsys):
    rng = np.random.default_rng(0)
    q, qd, tau = rng.uniform(-1, 1, size=(3, 2))
    # --opt=value form: argparse rejects bare values starting with "-"
    arg = lambda name, v: f"--{name}=" + ",".join(repr(float(x)) for x in v)
    code, doc, _ = run_json(capsys, "fd", fx("two_link_planar"),
                            arg("q", q), arg("qd", qd), arg("tau", tau))
    assert code == 0
    code, doc2, _ = run_json(capsys, "id", fx("two_link_planar"),
                             arg("q", q), arg("qd", qd),
                             arg("qdd", doc["qdd"]))
    assert code == 0
    np.testing.assert_allclose(doc2["tau"], tau, atol=1e-8)


def test_fd_on_bad_inertia_exits_1(capsys):
    code, _, err = run_cli(capsys, "fd", fx("bad_inertia"), "--q", "0",
                           "--qd", "0", "--tau", "0")
    assert code == 1


def test_fd_nan_accelerations_exit_1(capsys, tmp_path):
    path = tmp_path / "heavy.urdf"
    path.write_text(heavy_two_link_urdf())
    code, out, err = run_cli(capsys, "fd", str(path), "--q", "0.1,0.2")
    assert (code, out) == (1, "")
    assert err == ("error: non-finite joint accelerations [nan, nan]; "
                   "check link inertias and the state\n")


# ---------------------------------------------------------------------------
# ik


def test_ik_position_target(capsys):
    code, doc, _ = run_json(capsys, "ik", fx("two_link_planar"),
                            "--link", "tool", "--target", "1,1,0",
                            "--q0", "0.1,0.1")
    assert code == 0
    assert doc["converged"] is True
    assert doc["residual"] < 1e-4
    assert isinstance(doc["iterations"], int)
    assert isinstance(doc["restarts"], int) and isinstance(doc["backtracks"], int)
    assert isinstance(doc["evaluations"], int) and doc["evaluations"] > doc["iterations"]
    assert len(doc["q"]) == 2


def test_ik_reports_restarts_and_backtracks(capsys):
    args = ("ik", fx("two_link_planar"), "--link", "tool", "--target", "3,0,0",
            "--q0", "0.3,0.2")
    code, doc, _ = run_json(capsys, *args)
    assert code == 0 and doc["converged"] is False
    assert doc["restarts"] > 0 and doc["backtracks"] > 0
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert (f"restarts: {doc['restarts']}, backtracks: {doc['backtracks']}, "
            f"evaluations: {doc['evaluations']}") in out


def test_ik_full_pose_target(capsys):
    # identity rotation with position (1,1,0): reachable at q=(0, pi/2)
    target = "1,0,0,0,1,0,0,0,1,1,1,0"
    code, doc, _ = run_json(capsys, "ik", fx("two_link_planar"),
                            "--link", "tool", "--target", target,
                            "--q0", "0.1,0.3")
    assert code == 0
    assert doc["converged"] is True


def test_ik_bad_target_arity_exits_2(capsys):
    code, _, _ = run_cli(capsys, "ik", fx("two_link_planar"), "--link", "tool",
                         "--target", "1,1")
    assert code == 2


# ---------------------------------------------------------------------------
# gen-data / sysid


def test_gen_data_deterministic_bytes(tmp_path):
    # full process round trip: determinism must hold byte-for-byte on disk
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "robotdyn.cli", "gen-data", fx("pendulum"),
             "--n", "100", "--seed", "7", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert out_a.read_bytes() == out_b.read_bytes()


def test_gen_data_zero_records_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "gen-data", fx("pendulum"), "--n", "0",
                         "--out", str(tmp_path / "x.jsonl"))
    assert code == 2


@pytest.mark.parametrize("command", ["check", "gen-data"])
def test_model_without_movable_joints_exits_2_naming_the_cause(capsys, tmp_path, command):
    # a base, one fixed joint and a tool link: a model with n = 0
    inertial = (1.0, (0, 0, 0), (0, 0, 0), (0.1, 0.0, 0.0, 0.1, 0.0, 0.1))
    path, out = tmp_path / "z.urdf", tmp_path / "z.jsonl"
    path.write_text(urdf_text("z", [("base", None), ("tool", inertial)],
                              [("f", "fixed", "base", "tool", (0, 0, 0.5), (0, 0, 0),
                                (1, 0, 0))]))
    extra = ["--n", "3", "--out", str(out)] if command == "gen-data" else []
    assert run_cli(capsys, command, str(path), *extra) == \
        (2, "", "error: model 'z' has no movable joints\n")
    assert not out.exists()


def test_gen_data_unwritable_path_exits_1(capsys):
    code, _, _ = run_cli(capsys, "gen-data", fx("pendulum"), "--n", "5",
                         "--out", "/does/not/exist/x.jsonl")
    assert code == 1


def test_sysid_recovers_mass(capsys, tmp_path):
    data = tmp_path / "train.jsonl"
    code, _, _ = run_cli(capsys, "gen-data", fx("pendulum"), "--n", "200",
                         "--seed", "3", "--out", str(data))
    assert code == 0
    code, doc, _ = run_json(capsys, "sysid", fx("pendulum_mass2"),
                            "--data", str(data),
                            "--learn", "bob:mass",
                            "--epochs", "500")
    assert code == 0
    np.testing.assert_allclose(doc["final_params"]["bob.mass"], 1.0,
                               rtol=0.01)
    assert doc["final_loss"] < 1e-8


def test_sysid_defaults_to_levenberg_marquardt(capsys, tmp_path):
    # the data of test_sysid_recovers_mass, with no cap given
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("pendulum"), "--n", "200", "--seed", "3",
            "--out", str(data))
    argv = ("sysid", fx("pendulum_mass2"), "--data", str(data), "--learn", "bob:mass")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["stop_reason"] == "tol" and doc["converged"] is True
    assert doc["iterations"] == len(doc["loss_curve"]) < 10
    np.testing.assert_allclose(doc["final_params"]["bob.mass"], 1.0, rtol=1e-6)


def test_sysid_reports_stop_reason(capsys, tmp_path):
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("pendulum"), "--n", "50", "--out", str(data))
    argv = ("sysid", fx("pendulum_mass2"), "--data", str(data),
            "--learn", "bob:mass", "--epochs", "3")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["stop_reason"] == "max_epochs" and doc["converged"] is False
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "converged: False (max_epochs)" in out


def test_sysid_reports_identifiability(capsys, tmp_path):
    # the pendulum turns about y, so com_y never reaches the torque
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("pendulum"), "--n", "50", "--out", str(data))
    argv = ("sysid", fx("pendulum"), "--data", str(data), "--learn", "bob:com",
            "--epochs", "3")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    ident = doc["identifiability"]
    assert sorted(ident) == ["condition", "parameters", "rank"]
    assert (ident["parameters"], ident["rank"]) == (3, 2)
    assert 1.0 <= ident["condition"] < 1e6
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (f"identifiability: rank 2 of 3 raw parameters, "
            f"condition {ident['condition']:.3g}\n") in out


@pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--lr", "nan"),
                                         ("--lr", "-0.01"), ("--lr", "0.05"),
                                         ("--optimizer", "adam")])
def test_sysid_rejects_bad_fit_arguments_with_exit_2(capsys, tmp_path, flag, value):
    # sysid has no --lr or --optimizer: Levenberg-Marquardt is its only fit
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("pendulum"), "--n", "10", "--out", str(data))
    code, out, err = run_cli(capsys, "sysid", fx("pendulum"), "--data", str(data),
                             "--learn", "bob:mass", flag, value)
    assert (code, out) == (2, "")
    if flag == "--epochs":
        assert err.startswith("error: epochs must be")
    else:
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


def test_sysid_malformed_record_exits_2(capsys, tmp_path):
    data = tmp_path / "train.jsonl"
    data.write_text('{"q": [0.0], "qd": [0.0], "qdd": [0.0], "tau": [0.0]}\n5\n')
    code, out, err = run_cli(capsys, "sysid", fx("pendulum"), "--data", str(data),
                             "--learn", "bob:mass")
    assert (code, out) == (2, "")
    assert err == f"error: {data}:2: record is not a JSON object\n"


def test_sysid_mixed_vector_lengths_exit_2(capsys, tmp_path):
    data = tmp_path / "train.jsonl"
    data.write_text('{"q": [0.0], "qd": [0.0], "qdd": [0.0], "tau": [0.0]}\n'
                    '{"q": [0.5, 1], "qd": [0.0], "qdd": [0.0], "tau": [0.0]}\n')
    code, out, err = run_cli(capsys, "sysid", fx("pendulum"), "--data", str(data),
                             "--learn", "bob:mass")
    assert (code, out) == (2, "")
    assert err == f"error: {data}:2: 'q' has length 2, expected 1\n"


def test_sysid_boolean_entry_exits_2(capsys, tmp_path):
    # a JSON true among floats: numpy would coerce it to 1.0 without a word
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("two_link_planar"), "--n", "10", "--out", str(data))
    first, *rest = data.read_text().splitlines(keepends=True)
    record = json.loads(first)
    record["q"][0] = True
    data.write_text(json.dumps(record) + "\n" + "".join(rest))
    code, out, err = run_cli(capsys, "sysid", fx("two_link_planar"), "--data", str(data),
                             "--learn", "link1:mass")
    assert (code, out) == (2, "")
    assert err == f"error: {data}:1: 'q' entry True is not a float or a 64-bit integer\n"


def test_sysid_dataset_dof_mismatch_exits_2(capsys, tmp_path):
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("pendulum"), "--n", "10", "--out", str(data))
    code, out, err = run_cli(capsys, "sysid", fx("six_dof_arm"), "--data", str(data),
                             "--learn", "link2:mass")
    assert (code, out) == (2, "")
    assert err == "error: dataset has 1 DoF, model has 6\n"


def test_sysid_missing_link_exits_2(capsys, tmp_path):
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("pendulum"), "--n", "10", "--out",
            str(data))
    code, _, _ = run_cli(capsys, "sysid", fx("pendulum"), "--data", str(data),
                         "--learn", "ghost:mass")
    assert code == 2


def test_sysid_learn_spec_has_no_kind_part(capsys, tmp_path):
    data = tmp_path / "train.jsonl"
    run_cli(capsys, "gen-data", fx("pendulum"), "--n", "10", "--out", str(data))
    code, out, err = run_cli(capsys, "sysid", fx("pendulum"), "--data", str(data),
                             "--learn", "bob:mass:positive_scalar")
    assert (code, out) == (2, "")
    assert err == ("error: --learn: malformed spec 'bob:mass:positive_scalar' "
                   "(expected link:field)\n")


def test_sysid_empty_data_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, _ = run_cli(capsys, "sysid", fx("pendulum"), "--data", str(empty),
                         "--learn", "bob:mass")
    assert code == 2


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_valid_fixtures(capsys):
    for name in ("pendulum", "two_link_planar"):
        code, doc, _ = run_json(capsys, "check", fx(name))
        assert code == 0, name
        assert doc["passed"] is True
        for c in doc["checks"].values():
            assert np.isfinite(c["max_error"])


def test_check_six_dof_report_schema(capsys):
    code, doc, _ = run_json(capsys, "check", fx("six_dof_arm"))
    assert code == 0
    assert doc["model"] == "six_dof_arm" and doc["dof"] == 6
    expected = ["aba_rnea_roundtrip", "crba_columns", "aba_vs_cholesky",
                "jacobian_vs_finite_difference", "gradient_vs_finite_difference",
                "energy_drift"]
    assert list(doc["checks"]) == expected


def test_check_never_imports_numpy_random():
    # `robot check` draws its states from the standard library's generator,
    # so a fresh process that runs it never loads numpy.random (~6 MB of RSS)
    script = ("import sys\nfrom robotdyn import cli\n"
              f"code = cli.main(['check', {fx('six_dof_arm')!r}, '--format', 'json'])\n"
              "print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_check_bad_inertia_exits_1(capsys):
    code, _, err = run_cli(capsys, "check", fx("bad_inertia"))
    assert code == 1
    assert err == ("error: check aborted: singular articulated projection at joint "
                   "'pivot' (axis inertia -1); check link inertias\n")


@pytest.mark.parametrize("argv", [["fd", "--tau", "1"], ["check"]])
def test_zero_pivot_with_a_negative_trace_exits_1(capsys, tmp_path, argv):
    # the pendulum with its bob's CoM on the axis and no moment about it: the
    # pivot is exactly 0, and the trace of the indefinite inertia is negative
    with open(fx("pendulum")) as fh:
        text = fh.read().replace('xyz="1 0 0"', 'xyz="0 0 0"').replace(
            'ixx="0" ixy="0" ixz="0" iyy="0" iyz="0" izz="0"',
            'ixx="-20" ixy="0" ixz="0" iyy="0" iyz="0" izz="-20"')
    path = tmp_path / "flat_pendulum.urdf"
    path.write_text(text)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert "singular articulated projection at joint 'pivot'" in err


def test_check_reports_nan_dynamics_and_exits_1(capsys, tmp_path):
    path = tmp_path / "heavy.urdf"
    path.write_text(heavy_two_link_urdf())
    code, doc, err = run_json(capsys, "check", str(path))
    assert code == 1 and doc["passed"] is False
    assert len(doc["checks"]) == 6
    for name in ("aba_rnea_roundtrip", "aba_vs_cholesky", "energy_drift"):
        check = doc["checks"][name]
        assert np.isnan(check["max_error"]) and check["passed"] is False, name
    assert err.startswith("failing checks: ") and "energy_drift" in err


# ---------------------------------------------------------------------------
# plumbing


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "fk", fx("pendulum"))[0] == 2  # missing --link
    assert main([]) == 2  # no subcommand
    assert main(["not-a-command"]) == 2


# the flags each subcommand reads, besides the URDF path and -h
SUBCOMMAND_FLAGS = {
    "info": ["--format"],
    "fk": ["--format", "--link", "--q"],
    "jac": ["--format", "--link", "--q"],
    "id": ["--format", "--gravity", "--q", "--qd", "--qdd"],
    "fd": ["--format", "--gravity", "--q", "--qd", "--tau"],
    "ik": ["--format", "--link", "--max-iters", "--q0", "--seed", "--target"],
    "gen-data": ["--format", "--gravity", "--n", "--noise-std", "--out", "--seed"],
    "sysid": ["--data", "--epochs", "--format", "--gravity", "--learn", "--seed"],
    "check": ["--format", "--seed"],
}


def test_each_subcommand_has_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(opt for action in parser._actions for opt in action.option_strings
                          if opt not in ("-h", "--help"))
             for name, parser in sub.choices.items()}
    assert flags == SUBCOMMAND_FLAGS


@pytest.mark.parametrize("argv", [
    ["fk", "six_dof_arm", "--link", "tool", "--gravity", "abc"],
    ["check", "pendulum", "--gravity", "0,0,0"],
    ["id", "pendulum", "--seed", "1"],
])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], fx(argv[1]), *argv[2:])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


VECTOR_FLAGS = {"fk": ("--q",), "jac": ("--q",), "id": ("--q", "--qd", "--qdd", "--gravity"),
                "fd": ("--q", "--qd", "--tau", "--gravity"), "gen-data": ("--gravity",),
                "sysid": ("--gravity",)}
# a huge first entry of the flag: the exit code and stderr line, "" for an
# answer on stdout; q̇ of 1e200 or more overflows the velocity products to NaN
HUGE_ENTRY = {("id", "--qd"): (1, "error: non-finite joint torques [nan, nan, nan, nan, "
                                  "nan, nan]; check link inertias and the state"),
              ("fd", "--qd"): (1, "error: non-finite joint accelerations [nan, nan, nan, "
                                  "nan, nan, nan]; check link inertias and the state"),
              ("sysid", "--gravity"): (1, "error: inverse dynamics loss is not finite")}


def _refuse_nonfinite(name):
    raise AssertionError(f"non-finite {name} in the JSON output")


# ``ik`` is left out: an unreachable target such as 1e300 is answered with
# "residual": Infinity and exit 0 (ROADMAP item 8)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e200", "1e300", "-1e300",
                                   pytest.param("", id="empty"), "wrong_count"])
@pytest.mark.parametrize("command, flag",
                         [(c, f) for c, flags in VECTOR_FLAGS.items() for f in flags])
def test_vector_flags_and_results_must_be_finite(capsys, tmp_path, command, flag, value):
    n = 3 if flag == "--gravity" else 6
    text = {"": "", "wrong_count": ",".join(["0"] * (n - 1))}.get(
        value, ",".join([value] + ["0"] * (n - 1)))
    extra = {"fk": ["--link", "tool"], "jac": ["--link", "tool"],
             "gen-data": ["--n", "3", "--out", str(tmp_path / "d.jsonl")],
             "sysid": ["--data", str(tmp_path / "s.jsonl"), "--learn", "link1:mass"]
             }.get(command, [])
    if command == "sysid":
        assert run_cli(capsys, "gen-data", fx("six_dof_arm"), "--n", "3", "--out",
                       str(tmp_path / "s.jsonl"))[0] == 0
    code, out, err = run_cli(capsys, command, fx("six_dof_arm"), f"{flag}={text}", *extra,
                             "--format", "json")
    assert code in (0, 1, 2) and "Traceback" not in err and err.count("\n") == (code != 0)
    if value in ("nan", "inf", "-inf"):
        want_code, want_err = 2, f"error: {flag}: values must be finite, got {text!r}"
    elif value == "":
        want_code, want_err = 2, f"error: {flag}: expected comma-separated decimals, got ''"
    elif value == "wrong_count":
        want_code, want_err = 2, f"error: {flag}: expected {n} values, got {n - 1}"
    else:
        want_code, want_err = HUGE_ENTRY.get((command, flag), (0, ""))
    assert (code, err) == (want_code, want_err and want_err + "\n")
    if code == 0:
        json.loads(out, parse_constant=_refuse_nonfinite)
        if command == "gen-data":
            for line in (tmp_path / "d.jsonl").read_text().splitlines():
                json.loads(line, parse_constant=_refuse_nonfinite)
    else:
        assert out == ""


def test_fk_and_jac_that_overflow_exit_1(capsys, tmp_path):
    # a revolute joint carrying two prismatic ones: 1e308 + 1e308 is inf
    inertial = (1.0, (0, 0, 0), (0, 0, 0), (0.1, 0.0, 0.0, 0.1, 0.0, 0.1))
    links = [("base", None), ("l1", inertial), ("l2", inertial), ("l3", inertial)]
    joints = [("j1", "revolute", "base", "l1", (0, 0, 0), (0, 0, 0), (0, 0, 1)),
              ("j2", "prismatic", "l1", "l2", (0, 0, 0), (0, 0, 0), (1, 0, 0)),
              ("j3", "prismatic", "l2", "l3", (0, 0, 0), (0, 0, 0), (1, 0, 0))]
    path = tmp_path / "slider.urdf"
    path.write_text(urdf_text("slider", links, joints))
    for command, what in (("fk", "link pose"), ("jac", "Jacobian")):
        code, out, err = run_cli(capsys, command, str(path), "--link", "l3",
                                 "--q", "0,1e308,1e308")
        assert (code, out) == (1, ""), command
        assert err.startswith(f"error: non-finite {what} [") and err.endswith(
            "; check joint origins and the state\n") and err.count("\n") == 1, err


# argv (fixture names stand for their paths, {tmp} for a scratch directory
# holding bad.jsonl, empty.jsonl and a 20-record pendulum dataset), then the
# exit code and the one stderr line
ERROR_CASES = {
    "fk_unknown_link": (["fk", "two_link_planar", "--link", "ghost"], 2,
                        "error: unknown link 'ghost'"),
    "jac_unknown_link": (["jac", "two_link_planar", "--link", "ghost"], 2,
                         "error: unknown link 'ghost'"),
    "ik_unknown_link": (["ik", "two_link_planar", "--link", "ghost",
                         "--target", "0.1,0.1,0"], 2,
                        "error: unknown link 'ghost'"),
    "ik_nan_target": (["ik", "six_dof_arm", "--link", "tool", "--target", "nan,0.1,0.4"],
                      2, "error: --target: values must be finite, got 'nan,0.1,0.4'"),
    "ik_nan_q0": (["ik", "six_dof_arm", "--link", "tool", "--target", "0.3,0.1,0.4",
                   "--q0", "nan,0,0,0,0,0"], 2,
                  "error: --q0: values must be finite, got 'nan,0,0,0,0,0'"),
    "ik_negative_max_iters": (["ik", "six_dof_arm", "--link", "tool", "--target",
                               "0.3,0.1,0.4", "--max-iters", "-3"], 2,
                              "error: max_iters must be >= 0"),
    "gen_data_no_records": (["gen-data", "pendulum", "--n", "0", "--out", "{tmp}/x.jsonl"],
                            2, "error: n_samples must be >= 1"),
    "gen_data_negative_noise": (["gen-data", "pendulum", "--n", "5", "--noise-std=-1",
                                 "--out", "{tmp}/x.jsonl"], 2,
                                "error: noise_std must be finite and >= 0, got -1.0"),
    "gen_data_nan_noise": (["gen-data", "pendulum", "--n", "5", "--noise-std", "nan",
                            "--out", "{tmp}/x.jsonl"], 2,
                           "error: noise_std must be finite and >= 0, got nan"),
    "sysid_malformed_data": (["sysid", "pendulum", "--data", "{tmp}/bad.jsonl",
                              "--learn", "bob:mass"], 2,
                             "error: {tmp}/bad.jsonl:1: bad JSON: Expecting ',' "
                             "delimiter: line 1 column 12 (char 11)"),
    "sysid_empty_data": (["sysid", "pendulum", "--data", "{tmp}/empty.jsonl",
                          "--learn", "bob:mass"], 2, "error: {tmp}/empty.jsonl: empty dataset"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_exit_code_and_message(capsys, tmp_path, case):
    (tmp_path / "bad.jsonl").write_text('{"q": [0.0]\n')
    (tmp_path / "empty.jsonl").write_text("")
    assert run_cli(capsys, "gen-data", fx("pendulum"), "--n", "20", "--seed", "16",
                   "--out", str(tmp_path / "train.jsonl"))[0] == 0
    argv, want_code, want_err = ERROR_CASES[case]
    argv = [argv[0], fx(argv[1])] + [a.format(tmp=tmp_path) for a in argv[2:]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (want_code, "", want_err.format(tmp=tmp_path) + "\n")


def test_dumps17_is_repr_exact():
    vals = [0.1, 1.0 / 3.0, 9.81, 1e-17, -2.5]
    doc = json.loads(dumps17({"x": vals}))
    assert doc["x"] == vals


def _robot(*argv):
    """``robot <argv>`` in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "robotdyn.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("case", ["check_nan", "sysid_overflow", "gen_data_overflow"])
def test_a_non_finite_result_fails_with_one_stderr_line(capsys, tmp_path, case):
    # numpy's overflow warnings would reach stderr ahead of the diagnostic
    if case == "check_nan":
        path = tmp_path / "heavy.urdf"
        path.write_text(heavy_two_link_urdf())
        argv, want = ["check", str(path)], (1, "failing checks: aba_rnea_roundtrip, "
                                            "aba_vs_cholesky, gradient_vs_finite_difference, "
                                            "energy_drift")
    elif case == "sysid_overflow":
        data = tmp_path / "noisy.jsonl"
        assert run_cli(capsys, "gen-data", fx("pendulum"), "--n", "5", "--noise-std", "1e308",
                       "--out", str(data))[0] == 0
        argv = ["sysid", fx("pendulum"), "--data", str(data), "--learn", "bob:mass"]
        want = (1, "error: inverse dynamics loss is not finite")
    else:
        argv = ["gen-data", fx("six_dof_arm"), "--n", "3", "--gravity", "1e308,1e308,1e308",
                "--out", str(tmp_path / "g.jsonl")]
        want = (2, "error: dataset contains non-finite values")
    code, _, err = _robot(*argv)
    assert (code, err) == (want[0], want[1] + "\n")


def test_importing_robotdyn_leaves_the_tracer_and_the_cli_unloaded():
    # ``simulate`` imports ``tracing`` on first use, so the import stays cheap
    code = ("import sys, robotdyn; print(sorted(m for m in ('robotdyn.tracing', "
            "'robotdyn.cli', 'argparse') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_console_script_entry_point():
    code, out, _ = _robot("info", fx("pendulum"))
    assert code == 0
    assert "pendulum" in out
