"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

They check that tracing leaves every output unchanged, that the exact counts
repeat across processes, that a delay injected into one layer moves only the
workload that runs it, that unit verification catches a wrong output, and
that the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run

assert run.import_package() is None
from layers import Tracer, count_allocations, replace_everywhere, restore  # noqa: E402

SEED = 11


@pytest.fixture
def work():
    path = run.WORK_ROOT / f"test-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass


def _prepared(name, work):
    wl = run.WORKLOAD_TYPES[name](SEED, work)
    wl.setup()
    wl.prepare()
    return wl


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_tracing_leaves_outputs_unchanged(work):
    from robotdyn import selfcheck
    from robotdyn.spatial import Mat33, Vec3

    units = {"check": 1, "sysid": 1, "ik": 10}
    wls = {name: _prepared(name, work) for name in units}
    plain = {name: run.time_units(wls[name], n)[1] for name, n in units.items()}
    inits = (Vec3.__dict__["__init__"], Mat33.__dict__["__init__"])
    tracer = Tracer().install()
    try:
        # run_checks dispatches on identity with these module globals
        for _, fn, _ in selfcheck.CHECKS:
            assert getattr(selfcheck, fn.__wrapped__.__name__) is fn
        traced = {name: run.time_units(wls[name], n)[1] for name, n in units.items()}
    finally:
        tracer.uninstall()
    assert (Vec3.__dict__["__init__"], Mat33.__dict__["__init__"]) == inits
    assert all(not hasattr(fn, "__wrapped__") for _, fn, _ in selfcheck.CHECKS)

    assert traced["check"] == plain["check"]      # (exit code, stdout), byte for byte
    assert traced["sysid"] == plain["sysid"]
    for a, b in zip(plain["ik"], traced["ik"]):
        assert np.array_equal(a.q, b.q) and a.converged == b.converged
    assert tracer.calls("selfcheck.energy_drift") == 1
    assert tracer.calls("dynamics.simulate") == 1
    assert tracer.calls("learn.fit") == 1 and tracer.fit_epochs == [run.SYSID_EPOCHS]
    assert len(tracer.ik_iterations) == units["ik"]


def test_ik_units_bypass_dynamics(work):
    wl = _prepared("ik", work)
    tracer = Tracer().install()
    try:
        run.time_units(wl, 10)
    finally:
        tracer.uninstall()
    assert not any(key.startswith("dynamics.") for key in tracer.stats)
    assert tracer.calls("autodiff.gradient.var") > 0


def test_allocation_counts_restore_constructors(work):
    from robotdyn.spatial import Mat33, Vec3
    inits = (Vec3.__dict__["__init__"], Mat33.__dict__["__init__"])
    model = _prepared("check", work).model
    first, second = count_allocations(model), count_allocations(model)
    assert first == second and all(v > 0 for v in first.values())
    assert (Vec3.__dict__["__init__"], Mat33.__dict__["__init__"]) == inits


def test_counts_repeat_across_processes():
    cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "ik",
           "--seed", "5", "--seconds", "1", "--trace", "1"]
    results = []
    for _ in range(2):   # one after the other: each process peaks near 0.5 GB
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        results.append(_last_json(proc.stdout))
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert len(counts[0]) >= 30
    assert results[0]["attempted"] == results[1]["attempted"]
    assert results[0]["failed"] == results[1]["failed"]


def _busy_wait(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("name,seconds", [("check", 8.0), ("sysid", 4.0), ("ik", 4.0)])
def test_aba_delay_moves_only_check(name, seconds, work):
    """A 1 ms delay per ``dynamics.aba`` call raises ``latency_p50_ms`` on
    ``check`` by about the delay times its aba calls per unit; ``sysid`` and
    ``ik`` never call aba, so the delay never fires there."""
    from robotdyn import dynamics
    delay, hits = 1e-3, [0]
    aba = dynamics.aba

    def slow_aba(*args, **kwargs):
        hits[0] += 1
        _busy_wait(delay)
        return aba(*args, **kwargs)

    tally, base, _ = run.measure(name, SEED, seconds, work)
    assert tally.correct and sorted(base) == sorted(n for n, _ in run.declared_metrics(0))
    undo = []
    replace_everywhere(aba, slow_aba, undo)
    try:
        tally, slow, _ = run.measure(name, SEED, seconds, work)
    finally:
        restore(undo)
    assert tally.correct
    if name == "check":
        added_ms = hits[0] / tally.attempted * delay * 1e3
        assert added_ms > 500.0
        assert slow["latency_p50_ms"] > base["latency_p50_ms"] + 0.5 * added_ms
    else:
        assert hits[0] == 0
        assert slow["latency_p50_ms"] < 1.5 * base["latency_p50_ms"]


def test_verification_catches_wrong_outputs(work):
    check = _prepared("check", work)
    code, text = check.unit(0)
    assert check.verify(0, (code, text)).consistent
    report = json.loads(text)
    report["passed"] = not report["passed"]
    assert not check.verify(0, (code, json.dumps(report))).consistent

    sysid = _prepared("sysid", work)
    code, text = sysid.unit(0)
    outcome = sysid.verify(0, (code, text))
    assert outcome.consistent and not outcome.failed
    assert 0.0 < sysid.final_loss < sysid.initial_loss
    report = json.loads(text)
    report["loss_curve"][-1] *= 2.0
    assert not sysid.verify(0, (code, json.dumps(report))).consistent

    ik = _prepared("ik", work)
    for i in range(3):
        res = ik.unit(i)
        assert ik.verify(i, res).consistent
        res.converged = not res.converged
        assert not ik.verify(i, res).consistent

    # an unreachable target: a valid answer flagged not converged, counted
    # apart from the failures
    from robotdyn.spatial import Vec3
    ik.targets[0] = Vec3(10.0, 10.0, 10.0)
    outcome = ik.verify(0, ik.unit(0))
    assert outcome.consistent and outcome.unconverged and not outcome.failed


def test_refuses_to_run_without_sources(work):
    """In a directory holding only BENCHMARK.json and bench/, no result is printed."""
    shutil.copy(run.ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    (work / "bench").mkdir()
    for path in (run.ROOT / "bench").glob("*.py"):
        shutil.copy(path, work / "bench" / path.name)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (Path(work) / ".bench_work").exists()
