"""The benchmark's per-layer tracer (``bench/layers.py``) against the package:
every robotdyn name it wraps still resolves, and ``uninstall`` puts every
original back.  A rename in ``src/`` that the tracer still looks up fails here
instead of only inside the benchmark's own self-tests."""

import importlib
import sys
from pathlib import Path

import pytest

from robotdyn import learn, selfcheck

BENCH = Path(__file__).resolve().parents[1] / "bench"

# module -> the names bench/layers.py wraps in it (the selfcheck checks aside)
WRAPPED = {
    "robotdyn.autodiff": {"Tape", "gradient", "backward"},
    "robotdyn.urdf": {"parse_urdf", "validate", "build_model"},
    "robotdyn.kinematics": {"local_transforms", "world_transforms", "link_jacobian",
                            "_pose_loss", "inverse_kinematics"},
    "robotdyn.dynamics": {"rnea", "aba", "mass_matrix", "forward_dynamics_cholesky",
                          "simulate", "total_energy"},
    "robotdyn.learn": {"loss_gradient", "inverse_dynamics_loss", "generate_dataset", "fit"},
    "robotdyn.cli": {"main"},
}
CLASS_ATTRS = {(learn.ParamStore, "inertias"), (learn.TrajectoryDataset, "load_jsonl")}


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("layers")
    sys.modules.pop("layers", None)


def _bindings():
    """Every module global of every loaded robotdyn module, and the class
    attributes the tracer replaces."""
    out = {(name, key): obj for name, mod in list(sys.modules.items())
           if mod is not None and (name == "robotdyn" or name.startswith("robotdyn."))
           for key, obj in vars(mod).items()}
    out.update({(owner, attr): owner.__dict__[attr] for owner, attr in CLASS_ATTRS})
    return out


def test_tracer_wraps_names_that_resolve_and_uninstall_restores_them(layers):
    import robotdyn.cli  # noqa: F401  (install loads it; the snapshot must hold it too)
    before = _bindings()
    tracer = layers.Tracer()
    try:
        tracer.install()  # a name that no longer resolves raises here
        replaced = {(owner.__name__, name) for owner, name, _ in tracer._undo}
        for owner, name, old in tracer._undo:
            assert vars(owner)[name] is not old, (owner, name)
        want = {(mod, name) for mod, names in WRAPPED.items() for name in names}
        want |= {("robotdyn.selfcheck", fn.__name__) for _, fn, _ in selfcheck.CHECKS}
        want |= {(owner.__name__, attr) for owner, attr in CLASS_ATTRS}
        assert want <= replaced, sorted(want - replaced)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_counts_the_nodes_of_a_released_tape(layers):
    # gradient releases its tape on return; the tracer reads the node list
    # after that, so the release must leave the list whole
    from robotdyn import autodiff
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert autodiff.gradient(lambda xs: xs[0] * xs[1], [2.0, 3.0]).tolist() == [3.0, 2.0]
    finally:
        tracer.uninstall()
    assert tracer.tape_nodes == {"var": [3]}
