#!/usr/bin/env python3
"""robotdyn benchmark: the ``check``, ``sysid`` and ``ik`` workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload check|sysid|ik --seed N --seconds S --trace 0|1

Each workload is a closed loop: one caller in one process runs one unit at a
time, and checks every unit's output.  ``--trace 0`` sets the workload up
several times (reporting the median as ``setup_s``), then runs units for
``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1`` runs
the fixed layer profile instead (a fixed set of units of every workload, so
every count repeats exactly) with the timing wrappers of ``layers.py``
installed, and reports the per-layer metrics.  The last line of stdout is one
JSON object; metric names and units come from ``BENCHMARK.json``.

The package is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with status 2 and prints no result.
"""

import os

# One BLAS thread, set before numpy loads: the workloads are single-caller.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import xml.etree.ElementTree as ET  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
FIXTURE = SRC / "robotdyn" / "fixtures" / "six_dof_arm.urdf"

WORKLOADS = ("check", "sysid", "ik")
SETUP_REPEATS = 9
SEED_STRIDE = 1000          # check unit i of seed s runs `robot check --seed s*1000+i`
SYSID_SAMPLES = 2000
SYSID_EPOCHS = 20
SYSID_MASS_LINKS = ("link2", "link3", "link4", "link5", "link6")
SYSID_LEARN = ",".join([f"{link}:mass" for link in SYSID_MASS_LINKS]
                       + ["link3:com", "link4:rot_inertia"])
IK_LINK = "tool"
IK_POOL = 500               # targets per seed; units cycle through them
IK_FULL_POSE = (3, 6, 9)    # unit j is a full-pose target when j % 10 is one of these
IK_POS_TOL, IK_ROT_TOL = 1e-5, 1e-4   # inverse_kinematics defaults
PROFILE_UNITS = {"check": 1, "sysid": 1, "ik": 30}
CHECK_NAMES = ("aba_rnea_roundtrip", "crba_columns", "aba_vs_cholesky",
               "mass_matrix_symmetry", "mass_matrix_positive_definite",
               "jacobian_vs_finite_difference", "gradient_vs_finite_difference",
               "energy_drift")

# numpy is imported before the clock starts: its import is a fixed cost of the
# dependency that no change to robotdyn moves, and it is most of the noise
_IMPORT_PROBE = ("import sys, time; import numpy; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import robotdyn; "
                 "print(repr(time.perf_counter() - t))")


def import_seconds():
    """Time to import robotdyn in a fresh interpreter that has loaded numpy."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def run_cli(argv):
    """``robot <argv>`` in-process; returns (exit code, stdout text)."""
    from robotdyn import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def load_model(text, kinematics_only=False):
    """Parse, validate and build (``build_model`` validates) a URDF text."""
    from robotdyn import urdf
    return urdf.build_model(urdf.parse_urdf(text), kinematics_only=kinematics_only)


def _finite(x):
    if isinstance(x, (list, tuple)):
        return all(_finite(v) for v in x)
    return isinstance(x, (int, float)) and math.isfinite(x)


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class Outcome:
    """Verification of one unit: ``consistent`` is False for a wrong output,
    ``failed`` is True for a unit that did not do its job, ``unconverged`` is
    True for an IK solve that returned a valid answer flagged not converged."""

    __slots__ = ("consistent", "failed", "detail", "unconverged")

    def __init__(self, consistent, failed, detail="", unconverged=False):
        self.consistent = consistent
        self.failed = failed
        self.detail = detail
        self.unconverged = unconverged


# ---------------------------------------------------------------------------
# workloads: setup() is timed as set-up, prepare() is untimed bookkeeping for
# verification, unit(i) is the timed operation, verify(i, out) checks it
# ---------------------------------------------------------------------------

class CheckWorkload:
    """``robot check six_dof_arm.urdf --format json --seed s`` per unit."""

    def __init__(self, seed, work):
        self.seed = seed
        self.text = FIXTURE.read_text(encoding="utf-8")

    def setup(self):
        self.model = load_model(self.text)

    def prepare(self):
        pass

    def unit(self, i):
        return run_cli(["check", str(FIXTURE), "--format", "json",
                        "--seed", str(self.seed * SEED_STRIDE + i)])

    def verify(self, i, out):
        code, text = out
        try:
            report = json.loads(text)
            checks = report["checks"]
            consistent = len(checks) > 0 and report["passed"] == all(
                c["passed"] for c in checks.values()) and all(
                c["passed"] == (math.isfinite(c["max_error"])
                                and c["max_error"] < c["tolerance"])
                for c in checks.values())
        except (ValueError, KeyError, TypeError) as e:
            return Outcome(False, True, f"unparsable check output: {e}")
        failed = code != 0 or not report["passed"]
        return Outcome(consistent and (code == 0) == report["passed"], failed,
                       "" if not failed else f"check seed {self.seed * SEED_STRIDE + i} "
                                             f"failed (exit {code})")


class SysidWorkload:
    """Identify masses, one CoM and one rotational inertia from gen-data output."""

    def __init__(self, seed, work):
        self.seed = seed
        self.text = FIXTURE.read_text(encoding="utf-8")
        self.true_urdf = work / "true.urdf"
        self.data = work / "data.jsonl"
        self.final_loss = self.param_err = None

    def true_text(self):
        """The fixture with only the learned fields perturbed, from the seed."""
        rng = np.random.default_rng(self.seed)
        root = ET.fromstring(self.text)
        links = {link.get("name"): link for link in root.findall("link")}
        for name in SYSID_MASS_LINKS:
            mass = links[name].find("inertial/mass")
            mass.set("value", repr(float(mass.get("value")) * rng.uniform(0.8, 1.25)))
        origin = links["link3"].find("inertial/origin")
        xyz = [float(v) + rng.uniform(-0.03, 0.03) for v in origin.get("xyz").split()]
        origin.set("xyz", " ".join(repr(v) for v in xyz))
        inertia = links["link4"].find("inertial/inertia")
        scale = rng.uniform(0.8, 1.25)   # a common scale keeps the tensor valid
        for key in ("ixx", "ixy", "ixz", "iyy", "iyz", "izz"):
            inertia.set(key, repr(float(inertia.get(key)) * scale))
        return ET.tostring(root, encoding="unicode")

    def setup(self):
        self.model = load_model(self.text)
        self.true_urdf.write_text(self.true_text(), encoding="utf-8")
        code, _ = run_cli(["gen-data", str(self.true_urdf), "--n", str(SYSID_SAMPLES),
                           "--out", str(self.data), "--seed", str(self.seed),
                           "--format", "json"])
        if code != 0:
            raise RuntimeError(f"gen-data exited with {code}")

    def prepare(self):
        from robotdyn import autodiff, learn
        true_model = load_model(self.true_urdf.read_text(encoding="utf-8"))
        store = learn.ParamStore(self.model)
        self.truth = {}
        for spec in SYSID_LEARN.split(","):
            link, field = spec.split(":")
            store.make_learnable(link, field)
            inertia = true_model.bodies[true_model.body_index(link)].inertia
            value = getattr(inertia, field)
            self.truth[f"{link}.{field}"] = (value.values() if hasattr(value, "values")
                                             else float(value))
        dataset = learn.TrajectoryDataset.load_jsonl(str(self.data))
        self.initial_loss = float(autodiff.value(learn.inverse_dynamics_loss(store, dataset)))

    def unit(self, i):
        return run_cli(["sysid", str(FIXTURE), "--data", str(self.data),
                        "--learn", SYSID_LEARN, "--epochs", str(SYSID_EPOCHS),
                        "--format", "json", "--seed", str(self.seed)])

    def verify(self, i, out):
        code, text = out
        if code != 0:
            return Outcome(True, True, f"sysid exited with {code}")
        try:
            report = json.loads(text)
            params, loss = report["final_params"], report["final_loss"]
            consistent = (set(params) == set(self.truth)
                          and loss == report["loss_curve"][-1])
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return Outcome(False, True, f"unparsable sysid output: {e}")
        if not (consistent and _finite(list(params.values())) and _finite(loss)):
            return Outcome(False, True, "non-finite or malformed sysid result")
        self.final_loss = loss
        self.param_err = max(_rel_err(params[k], v) for k, v in self.truth.items())
        failed = not loss < self.initial_loss
        return Outcome(True, failed, f"final loss {loss!r} is not below the initial "
                                     f"loss {self.initial_loss!r}" if failed else "")


class IkWorkload:
    """``inverse_kinematics`` on reachable targets: 70% position-only, 30% full pose."""

    def __init__(self, seed, work):
        self.seed = seed
        self.text = FIXTURE.read_text(encoding="utf-8")

    def setup(self):
        import robotdyn
        self.model = load_model(self.text, kinematics_only=True)
        lo, hi = self.model.joint_limits()
        rng = np.random.default_rng(self.seed)
        self.targets = []
        for j in range(IK_POOL):
            q = rng.uniform(lo, hi)
            pose = robotdyn.forward_kinematics(self.model, list(q))[IK_LINK]
            self.targets.append(pose if j % 10 in IK_FULL_POSE else pose.position)

    def prepare(self):
        self.lo, self.hi = self.model.joint_limits()

    def unit(self, i):
        import robotdyn
        j = i % IK_POOL
        return robotdyn.inverse_kinematics(self.model, self.targets[j], IK_LINK,
                                           q0=[0.0] * self.model.n, seed=j)

    def verify(self, i, res):
        """Recompute the residual with forward kinematics and cross-check
        ``converged`` against the solver's tolerances."""
        import robotdyn
        target = self.targets[i % IK_POOL]
        q = np.asarray(res.q, dtype=float)
        if q.shape != (self.model.n,) or not np.all(np.isfinite(q)) \
                or np.any(q < self.lo) or np.any(q > self.hi):
            return Outcome(False, True, "IK returned q outside the joint limits")
        pose = robotdyn.forward_kinematics(self.model, list(q))[IK_LINK]
        full = isinstance(target, robotdyn.Pose)
        want = target.position if full else target
        pos_err = float(np.linalg.norm(np.subtract(pose.position.values(), want.values())))
        errs = [(pos_err, IK_POS_TOL)]
        if full:
            rel = np.asarray(pose.rotation.values()).T @ np.asarray(target.rotation.values())
            c = min(max((np.trace(rel) - 1.0) * 0.5, -1.0 + 1e-12), 1.0 - 1e-12)
            errs.append((math.acos(c), IK_ROT_TOL))
        # a recomputed error within 0.1% of its tolerance may round either way
        if any(abs(err - tol) < 1e-3 * tol for err, tol in errs):
            consistent = True
        else:
            consistent = res.converged == all(err < tol for err, tol in errs)
        # acos near 1 loses digits: a 1e-16 change in the cosine moves the angle
        # by up to 3e-10 at the smallest angle the solver reports
        residual = max(err for err, _ in errs)
        consistent = consistent and abs(res.residual - residual) <= 1e-6 * residual + 1e-9
        # ``converged: false`` is the solver's documented answer for a target it
        # could not reach within max_iters, not a failed call: it is counted
        # apart and printed, and its 500 iterations show in the latency
        return Outcome(consistent, not consistent,
                       "" if res.converged else f"IK target {i % IK_POOL} did not converge",
                       unconverged=not res.converged)


WORKLOAD_TYPES = {"check": CheckWorkload, "sysid": SysidWorkload, "ik": IkWorkload}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0
        self.correct = True
        self.notes = []

    def add(self, outcome):
        self.attempted += 1
        self.failed += outcome.failed
        self.unconverged += outcome.unconverged
        self.correct = self.correct and outcome.consistent
        if outcome.detail:
            self.notes.append(outcome.detail)


def time_units(wl, count):
    """Run units 0..count-1; returns (wall seconds, outputs)."""
    outputs = []
    t0 = time.perf_counter()
    for i in range(count):
        outputs.append(wl.unit(i))
    return time.perf_counter() - t0, outputs


def measure(name, seed, seconds, work):
    """End-to-end metrics with tracing off."""
    wl = WORKLOAD_TYPES[name](seed, work)
    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(t_import + time.perf_counter() - t0)
    wl.prepare()

    tally, latencies = Tally(), []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        out = wl.unit(i)
        latencies.append(time.perf_counter() - t0)
        tally.add(wl.verify(i, out))
        i += 1
        if time.perf_counter() >= deadline:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the tail is printed for reading, not bounded: see bench/README.md
    info = {"units": len(latencies), "setup_repeats": SETUP_REPEATS,
            "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3}
    return tally, metrics, info


def profile(selected, seed, work):
    """Per-layer metrics from the traced layer profile.

    The named workload's profile units also run untraced first, for
    ``bench.trace_overhead_ratio``.  Outputs are verified after the tracer is
    removed, so verification work is not traced.
    """
    from layers import Tracer, count_allocations

    wls = {}
    for name in WORKLOADS:
        (work / name).mkdir()
        wls[name] = WORKLOAD_TYPES[name](seed, work / name)
        wls[name].setup()
        wls[name].prepare()
    plain_s, _ = time_units(wls[selected], PROFILE_UNITS[selected])

    tracer = Tracer().install()
    outputs, walls = {}, {}
    try:
        for name in WORKLOADS:
            wls[name].setup()
            walls[name], outputs[name] = time_units(wls[name], PROFILE_UNITS[name])
    finally:
        tracer.uninstall()

    tally = Tally()
    for name in WORKLOADS:
        for i, out in enumerate(outputs[name]):
            tally.add(wls[name].verify(i, out))
    sysid, model = wls["sysid"], wls["check"].model
    if sysid.final_loss is None:
        raise RuntimeError("the profile's sysid unit failed: " + "; ".join(tally.notes))
    metrics = layer_metrics(tracer)
    metrics.update(count_allocations(model))
    metrics.update({
        "learn.fit.final_loss": sysid.final_loss,
        "learn.fit.param_err": sysid.param_err,
        "urdf.bodies": len(model.bodies),
        "urdf.dof": model.n,
        "kinematics.ik.not_converged": tally.unconverged,
        "bench.trace_overhead_ratio": walls[selected] / plain_s,
    })
    return tally, metrics, {f"units_{name}": PROFILE_UNITS[name] for name in WORKLOADS}


def layer_metrics(t):
    """Span and counter summaries of a finished ``Tracer``."""
    m = {}
    for fn, kinds in (("rnea", ("float", "var", "batch", "batch_var")),
                      ("aba", ("float",)), ("mass_matrix", ("float",)),
                      ("forward_dynamics_cholesky", ("float",))):
        for kind in kinds:
            key = f"dynamics.{fn}.{kind}"
            m[f"{key}.calls"] = t.calls(key)
            m[f"{key}.self_ms"] = t.self_ms(key)
            m[f"{key}.us_per_call"] = t.us_per_call(key)
    for kind in ("batch", "batch_var"):
        key = f"dynamics.rnea.{kind}"
        m[f"{key}.ns_per_sample"] = t.ns_per_sample(key)
    for key in ("dynamics.simulate", "dynamics.total_energy", "kinematics.local_transforms",
                "kinematics.world_transforms.float", "kinematics.world_transforms.var",
                "kinematics.link_jacobian", "learn.loss_gradient",
                "learn.inverse_dynamics_loss", "learn.ParamStore.inertias"):
        m[f"{key}.calls"] = t.calls(key)
        m[f"{key}.self_ms"] = t.self_ms(key)
    for kind in ("var", "batch_var"):
        key = f"autodiff.gradient.{kind}"
        m[f"{key}.calls"] = t.calls(key)
        m[f"{key}.self_ms"] = t.self_ms(key)
        m[f"{key}.tape_nodes_p50"] = statistics.median(t.tape_nodes.get(kind, [0]))
    for key in ("autodiff.backward", "kinematics.inverse_kinematics", "learn.fit",
                "cli.main"):
        m[f"{key}.self_ms"] = t.self_ms(key)
    for check in CHECK_NAMES:
        m[f"selfcheck.{check}.self_ms"] = t.self_ms(f"selfcheck.{check}")

    iterations = t.ik_iterations
    loss_evals = t.counts.get("kinematics.ik.loss.float", 0)
    m["kinematics.ik.iterations_p50"] = statistics.median(iterations)
    m["kinematics.ik.loss_evals_per_solve"] = loss_evals / len(iterations)
    m["kinematics.ik.gradients_per_solve"] = (t.counts.get("kinematics.ik.loss.var", 0)
                                              / len(iterations))
    m["kinematics.ik.evals_per_iteration"] = loss_evals / max(1, sum(iterations))

    m["learn.fit.epochs"] = statistics.median(t.fit_epochs)
    m["learn.generate_dataset_ms"] = t.median_ms("learn.generate_dataset")
    m["learn.load_jsonl_ms"] = t.median_ms("learn.load_jsonl")
    m["urdf.parse_ms"] = t.median_ms("urdf.parse_urdf")
    m["urdf.validate_ms"] = t.median_ms("urdf.validate")
    m["urdf.build_ms"] = t.median_ms("urdf.build_model")
    return m


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "?")
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": BLAS_THREADS}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import robotdyn from this checkout's ``src/``; returns an error or None."""
    if not (SRC / "robotdyn" / "__init__.py").is_file():
        return f"no robotdyn sources under {SRC}"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import robotdyn
    if Path(robotdyn.__file__).resolve().parent != SRC / "robotdyn":
        return f"imported robotdyn from {robotdyn.__file__}, not from {SRC}"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            tally, values, info = profile(args.workload, args.seed, work)
        else:
            tally, values, info = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    declared = declared_metrics(args.trace)
    names = [name for name, _ in declared]
    if sorted(names) != sorted(values):
        print(f"error: measured metrics {sorted(set(values) ^ set(names))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    env = environment()
    print("# " + " ".join(f"{k}={v}" for k, v in
                          {"workload": args.workload, "seed": args.seed,
                           "trace": args.trace, **env, **info}.items()))
    print(f"# attempted={tally.attempted} failed={tally.failed} "
          f"fail_ratio={tally.failed / tally.attempted!r} correct={tally.correct} "
          f"ik_not_converged={tally.unconverged}")
    for note in tally.notes[:20]:
        print(f"# {note}")
    for name, unit in declared:
        print(f"# {name} = {values[name]!r} {unit}")
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
