"""``robot`` command-line front end.

Grammar: ``robot <info|fk|jac|id|fd|ik|gen-data|sysid|check> <urdf> [flags]``.
Vector flags are comma-separated finite decimals (radians / meters / SI units).
With ``--format json`` each subcommand writes exactly one JSON document to
stdout (floats with 17 significant digits, round-trip exact); diagnostics
go to stderr.  Exit codes: 0 success, 1 runtime/numerical failure,
2 usage/validation failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import learn as learn_mod
from .autodiff import NonFiniteError
from .dynamics import DynamicsError, aba, rnea
from .kinematics import Pose, forward_kinematics, inverse_kinematics, link_jacobian
from .selfcheck import run_checks
from .spatial import Mat33, Vec3
from .urdf import UrdfError, ValidationError, build_model, parse_urdf, validate

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _message(e):
    """An exception's message; ``str`` of a ``KeyError`` would quote it."""
    return e.args[0] if isinstance(e, KeyError) and e.args else str(e)


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats (round-trip exact for 64-bit reals)
# ---------------------------------------------------------------------------

def _fmt_float(x):
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps17(obj):
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps17(str(k))}: {dumps17(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps17(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(dumps17(payload))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_vec(text, flag):
    try:
        v = [float(p) for p in text.split(",")]
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated decimals, got {text!r}")
    if all(map(math.isfinite, v)):
        return v
    raise CliError(f"{flag}: values must be finite, got {text!r}")


def _vec_n(args, name, n):
    text = getattr(args, name.replace("-", "_"), None)
    if text is None:
        return [0.0] * n
    v = _parse_vec(text, f"--{name}")
    if len(v) != n:
        raise CliError(f"--{name}: expected {n} values, got {len(v)}")
    return v


def _require_finite(what, values, cause):
    """Exit 1 when a result has a non-finite entry, naming the ``cause`` to check."""
    if not all(map(math.isfinite, values)):
        raise CliError(f"non-finite {what} {[float(x) for x in values]}; check {cause} "
                       "and the state", code=EXIT_RUNTIME)


def _load_desc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    return parse_urdf(text)


def _load_model(path, kinematics_only=False):
    return build_model(_load_desc(path), kinematics_only=kinematics_only)


def _quaternion_wxyz(R):
    """Unit quaternion of a rotation matrix, sign fixed by w >= 0."""
    m = np.array(R.values() if isinstance(R, Mat33) else R, dtype=float)
    t = np.trace(m)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(0.0, 1.0 + m[i, i] - m[j, j] - m[k, k])) * 2.0
        q = np.zeros(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q.tolist()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_info(args):
    desc = _load_desc(args.urdf)
    diags = validate(desc)
    errors = [d for d in diags if d.level == "error"]
    warnings = [d for d in diags if d.level == "warning"]
    if errors:
        for d in errors:
            print(str(d), file=sys.stderr)
        raise CliError("URDF failed validation")
    model = build_model(desc, kinematics_only=True)
    links = [{"name": l.name,
              "mass": l.inertial.mass if l.inertial else None} for l in desc.links]
    joints = [{"name": j.name, "type": j.type, "parent": j.parent, "child": j.child,
               "axis": list(j.axis), "lower": j.limit_lower, "upper": j.limit_upper}
              for j in desc.joints]
    payload = {"name": desc.name, "dof": model.n, "links": links, "joints": joints,
               "warnings": [str(d) for d in warnings]}
    lines = [f"robot: {desc.name}", f"dof: {model.n}",
             f"links ({len(links)}):"]
    lines += [f"  {l['name']}" + (f"  mass={l['mass']}" if l["mass"] is not None else "")
              for l in links]
    lines.append(f"joints ({len(joints)}):")
    lines += [f"  {j['name']}  {j['type']}  {j['parent']} -> {j['child']}"
              f"  axis={j['axis']}  limits=({j['lower']}, {j['upper']})"
              for j in joints]
    for d in warnings:
        print(str(d), file=sys.stderr)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_fk(args):
    model = _load_model(args.urdf, kinematics_only=True)
    q = _vec_n(args, "q", model.n)
    poses = forward_kinematics(model, q)
    model.link(args.link)  # an unknown link raises with the message of jac and ik
    pose = poses[args.link]
    R = [x for row in pose.rotation.values() for x in row]
    _require_finite("link pose", pose.position.values() + R, "joint origins")
    payload = {"link": args.link,
               "position": pose.position.values(),
               "rotation_matrix": R,
               "quaternion_wxyz": _quaternion_wxyz(pose.rotation)}
    lines = [f"link: {args.link}", f"position: {payload['position']}",
             f"quaternion_wxyz: {payload['quaternion_wxyz']}"]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_jac(args):
    model = _load_model(args.urdf, kinematics_only=True)
    q = _vec_n(args, "q", model.n)
    J = link_jacobian(model, q, args.link)
    _require_finite("Jacobian", J.reshape(-1), "joint origins")
    payload = {"link": args.link, "rows": 6, "cols": model.n,
               "jacobian": [float(x) for x in J.reshape(-1)]}
    lines = [f"link: {args.link}"] + [f"  {list(row)}" for row in J]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_id(args):
    model = _load_model(args.urdf)
    q = _vec_n(args, "q", model.n)
    qd = _vec_n(args, "qd", model.n)
    qdd = _vec_n(args, "qdd", model.n)
    tau = [float(t) for t in rnea(model, q, qd, qdd, gravity=_vec_n(args, "gravity", 3))]
    _require_finite("joint torques", tau, "link inertias")
    _emit(args, {"tau": tau}, [f"tau: {tau}"])
    return EXIT_OK


def cmd_fd(args):
    model = _load_model(args.urdf)
    q = _vec_n(args, "q", model.n)
    qd = _vec_n(args, "qd", model.n)
    tau = _vec_n(args, "tau", model.n)
    qdd = [float(x) for x in aba(model, q, qd, tau, gravity=_vec_n(args, "gravity", 3))]
    _require_finite("joint accelerations", qdd, "link inertias")
    _emit(args, {"qdd": qdd}, [f"qdd: {qdd}"])
    return EXIT_OK


def cmd_ik(args):
    model = _load_model(args.urdf, kinematics_only=True)
    q0 = _vec_n(args, "q0", model.n)
    t = _parse_vec(args.target, "--target")
    if len(t) == 3:
        target = Vec3(t[0], t[1], t[2])
    elif len(t) == 12:
        target = Pose(Mat33.fromrows([t[0:3], t[3:6], t[6:9]]),
                      Vec3(t[9], t[10], t[11]))
    else:
        raise CliError("--target: expected 3 values (position) or 12 "
                       "(rotation row-major then position)")
    res = inverse_kinematics(model, target, args.link, q0,
                             max_iters=args.max_iters, seed=args.seed)
    payload = {"q": [float(x) for x in res.q], "converged": res.converged,
               "residual": float(res.residual), "iterations": res.iterations,
               "restarts": res.restarts, "backtracks": res.backtracks,
               "evaluations": res.evaluations}
    _emit(args, payload, [f"q: {payload['q']}", f"converged: {res.converged}",
                          f"residual: {res.residual:g}",
                          f"restarts: {res.restarts}, backtracks: {res.backtracks}, "
                          f"evaluations: {res.evaluations}"])
    return EXIT_OK


def cmd_gen_data(args):
    model = _load_model(args.urdf)
    ds = learn_mod.generate_dataset(model, args.n, gravity=_vec_n(args, "gravity", 3),
                                    seed=args.seed, noise_std=args.noise_std)
    try:
        ds.save_jsonl(args.out)
    except OSError as e:
        raise CliError(f"cannot write {args.out}: {e}", code=EXIT_RUNTIME)
    _emit(args, {"records": len(ds), "path": args.out},
          [f"wrote {len(ds)} records to {args.out}"])
    return EXIT_OK


def _parse_learn_spec(spec):
    entries = []
    for part in spec.split(","):
        fields = part.split(":")
        if len(fields) != 2 or not all(fields):
            raise CliError(f"--learn: malformed spec '{part}' (expected link:field)")
        entries.append(tuple(fields))
    return entries


def cmd_sysid(args):
    model = _load_model(args.urdf)
    try:
        ds = learn_mod.TrajectoryDataset.load_jsonl(args.data)
    except OSError as e:
        raise CliError(f"cannot read {args.data}: {e}")
    store = learn_mod.ParamStore(model)
    for link, field in _parse_learn_spec(args.learn):
        try:
            store.make_learnable(link, field)
        except (KeyError, ValueError) as e:
            raise CliError(f"--learn: {_message(e)}")
    report = learn_mod.fit(store, ds, epochs=args.epochs, gravity=_vec_n(args, "gravity", 3))
    payload = {"loss_curve": report.losses, "final_loss": report.final_loss,
               "final_params": report.final_params, "iterations": report.iterations,
               "converged": report.converged, "stop_reason": report.stop_reason,
               "identifiability": report.identifiability}
    ident = report.identifiability
    lines = [f"epochs: {report.iterations}", f"final loss: {report.final_loss:.6g}",
             f"converged: {report.converged} ({report.stop_reason})",
             f"identifiability: rank {ident['rank']} of {ident['parameters']} "
             f"raw parameters, condition {ident['condition']:.3g}"]
    lines += [f"  {k} = {v}" for k, v in report.final_params.items()]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_check(args):
    model = _load_model(args.urdf)
    try:
        report = run_checks(model, seed=args.seed)
    except (DynamicsError, NonFiniteError) as e:
        raise CliError(f"check aborted: {e}", code=EXIT_RUNTIME)
    lines = [f"model: {report['model']} (dof {report['dof']})"]
    for name, c in report["checks"].items():
        status = "pass" if c["passed"] else "FAIL"
        lines.append(f"  {status}  {name}: max_error={c['max_error']:.3g} "
                     f"(tol {c['tolerance']:g})")
    lines.append("all checks passed" if report["passed"] else "CHECKS FAILED")
    _emit(args, report, lines)
    if not report["passed"]:
        failing = [n for n, c in report["checks"].items() if not c["passed"]]
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / driver
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="robot",
        description="Differentiable robot kinematics/dynamics from URDF")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("urdf", help="path to a URDF file")
        sp.add_argument("--format", choices=("json", "text"), default="text")
        return sp

    common(sub.add_parser("info", help="model summary and validation report"))

    fk = common(sub.add_parser("fk", help="forward kinematics of one link"))
    fk.add_argument("--q", help="joint positions, comma-separated (default zeros)")
    fk.add_argument("--link", required=True)

    jac = common(sub.add_parser("jac", help="geometric Jacobian of one link"))
    jac.add_argument("--q")
    jac.add_argument("--link", required=True)

    idp = common(sub.add_parser("id", help="inverse dynamics (joint torques)"))
    idp.add_argument("--q")
    idp.add_argument("--qd")
    idp.add_argument("--qdd")

    fd = common(sub.add_parser("fd", help="forward dynamics (joint accelerations)"))
    fd.add_argument("--q")
    fd.add_argument("--qd")
    fd.add_argument("--tau")

    ik = common(sub.add_parser("ik", help="damped Gauss-Newton inverse kinematics"))
    ik.add_argument("--link", required=True)
    ik.add_argument("--target", required=True,
                    help="x,y,z or 12 values (rotation row-major, then position)")
    ik.add_argument("--q0", help="initial joint positions (default zeros)")
    ik.add_argument("--max-iters", type=int, default=500)

    gen = common(sub.add_parser("gen-data", help="write a random trajectory dataset"))
    gen.add_argument("--n", type=int, required=True, help="number of records")
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.add_argument("--noise-std", type=float, default=0.0)

    sysid = common(sub.add_parser("sysid", help="identify parameters from data"))
    sysid.add_argument("--data", required=True, help="JSONL dataset path")
    sysid.add_argument("--learn", required=True,
                       help="comma-separated link:field pairs, field one of mass "
                            "(softplus), com (free) or rot_inertia (Cholesky SPD), "
                            "e.g. link1:mass,link1:com")
    sysid.add_argument("--epochs", type=int, default=1000,
                       help="cap on Levenberg-Marquardt iterations")

    check = common(sub.add_parser("check", help="run the cross-algorithm oracle suite"))
    for sp in (idp, fd, gen, sysid):
        sp.add_argument("--gravity", default="0,0,-9.81", help="gravity vector gx,gy,gz (m/s^2)")
    for sp in (ik, gen, sysid, check):  # sysid draws nothing, but callers pass --seed
        sp.add_argument("--seed", type=int, default=0)
    return p


COMMANDS = {
    "info": cmd_info, "fk": cmd_fk, "jac": cmd_jac, "id": cmd_id, "fd": cmd_fd,
    "ik": cmd_ik, "gen-data": cmd_gen_data, "sysid": cmd_sysid, "check": cmd_check,
}


# built on first use, not at import, and kept: a parser is a web of reference cycles
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # a non-finite result is reported by the command itself, in one line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return COMMANDS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (UrdfError, ValidationError, KeyError, ValueError) as e:
        print(f"error: {_message(e)}", file=sys.stderr)
        return EXIT_USAGE
    except (DynamicsError, NonFiniteError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
