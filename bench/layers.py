"""Per-layer spans recorded from outside the package.

A ``Tracer`` replaces the public functions of each robotdyn module with
timing wrappers, everywhere a caller looks them up: the defining module,
every module that imported the name (``from .dynamics import rnea``), the
package namespace, and tuples that hold the function (``selfcheck.CHECKS``).
Replacing a function in only some of those places changes behaviour:
``run_checks`` dispatches on ``fn is check_energy_drift``, so a wrapper in
``CHECKS`` but not in the module globals would run the energy check with 20
steps instead of 300.

Each span records calls, inclusive time and self time (inclusive time minus
the time of the wrapped calls it made).  Calls into dynamics,
``world_transforms`` and autodiff gradients are split by the scalar kind they
ran on: ``float``, ``batch`` (numpy state), ``var`` (``autodiff.Var``
scalars) and ``batch_var`` (numpy state with ``Var`` inertias).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from robotdyn.autodiff import Var, value

_KINDS = {(False, False): "float", (True, False): "batch",
          (False, True): "var", (True, True): "batch_var"}


def scalar_kind(values, inertias=None):
    """Kind of a call from its state values and (optional) inertias."""
    batch = var = False
    for v in values:
        if isinstance(v, Var):
            var = True
            v = v.value
        if isinstance(v, np.ndarray):
            batch = True
    for inertia in inertias or ():
        for s in (inertia.mass, inertia.com.x, inertia.rot_inertia.a):
            if isinstance(s, Var):
                var = True
                if isinstance(s.value, np.ndarray):
                    batch = True
    return _KINDS[(batch, var)]


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _state_kind(n_state, inertia_pos):
    """Kind function for ``f(model, *state[:n_state], ..., inertias=...)``."""
    def kind(args, kwargs):
        state = []
        for arg in args[1:1 + n_state]:
            state.extend(arg)
        inertias = None if inertia_pos is None else _arg(args, kwargs, inertia_pos,
                                                          "inertias")
        return scalar_kind(state, inertias)
    return kind


def _samples(args):
    """Batch length of a dynamics call (1 for scalar state)."""
    v = value(args[1][0])
    return len(v) if isinstance(v, np.ndarray) else 1


def replace_everywhere(original, replacement, undo):
    """Rebind every robotdyn-module reference to ``original``.

    Module globals and (nested) tuples in module globals are rebound; each
    change is appended to ``undo`` as ``(module, name, old_value)``.
    """
    def swap(obj):
        if obj is original:
            return replacement
        if isinstance(obj, tuple):
            items = tuple(swap(v) for v in obj)
            if any(a is not b for a, b in zip(items, obj)):
                return items
        return obj

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "robotdyn" or mod_name.startswith("robotdyn.")):
            continue
        for name, obj in list(vars(mod).items()):
            new = swap(obj)
            if new is not obj:
                undo.append((mod, name, obj))
                setattr(mod, name, new)


def restore(undo):
    for obj, name, old in reversed(undo):
        setattr(obj, name, old)
    undo.clear()


class Tracer:
    """Timing wrappers over robotdyn's public functions, with counters."""

    def __init__(self):
        self.stats = {}       # span key -> [calls, inclusive_s, self_s, samples]
        self.per_call = {}    # span key -> list of inclusive seconds per call
        self.counts = {}      # counter name -> int
        self.tape_nodes = {}  # gradient kind -> list of tape sizes
        self.ik_iterations = []  # per inverse_kinematics call
        self.fit_epochs = []
        self._stack = []
        self._tapes = []
        self._undo = []

    # -- recording ----------------------------------------------------------
    def wrap(self, name, fn, kind=None, samples=None, per_call=False, on_exit=None):
        stack, stats = self._stack, self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            key = name if kind is None else f"{name}.{kind(args, kwargs)}"
            st = stats.get(key)
            if st is None:
                st = stats[key] = [0, 0.0, 0.0, 0]
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[0]
            if samples is not None:
                st[3] += samples(args)
            if per_call:
                self.per_call.setdefault(key, []).append(dt)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, name, fn, kind):
        counts = self.counts

        def wrapper(*args, **kwargs):
            key = f"{name}.{kind(args, kwargs)}"
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------
    def _replace(self, module, attr, wrapper):
        replace_everywhere(getattr(module, attr), wrapper, self._undo)

    def _replace_attr(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function; ``uninstall`` puts the originals back."""
        import robotdyn  # noqa: F401  (loads every submodule)
        from robotdyn import autodiff, cli, dynamics, kinematics, learn, selfcheck, urdf

        tracer = self

        class CountingTape(autodiff.Tape):
            def __init__(self):
                super().__init__()
                tracer._tapes.append(self)

        def gradient_kind(args, kwargs):
            """Count the nodes of the tapes this gradient recorded, then drop them."""
            nodes = [n for tape in tracer._tapes for n in tape.nodes]
            tracer._tapes.clear()
            kind = "batch_var" if any(isinstance(n.value, np.ndarray)
                                      for n in nodes) else "var"
            tracer.tape_nodes.setdefault(kind, []).append(len(nodes))
            return kind

        self._replace(autodiff, "Tape", CountingTape)
        self._replace(autodiff, "gradient",
                      self.wrap("autodiff.gradient", autodiff.gradient,
                                kind=gradient_kind))
        self._replace(autodiff, "backward",
                      self.wrap("autodiff.backward", autodiff.backward))

        for name in ("parse_urdf", "validate", "build_model"):
            self._replace(urdf, name, self.wrap(f"urdf.{name}", getattr(urdf, name),
                                                per_call=True))

        self._replace(kinematics, "local_transforms",
                      self.wrap("kinematics.local_transforms",
                                kinematics.local_transforms))
        self._replace(kinematics, "world_transforms",
                      self.wrap("kinematics.world_transforms",
                                kinematics.world_transforms,
                                kind=_state_kind(1, None)))
        self._replace(kinematics, "link_jacobian",
                      self.wrap("kinematics.link_jacobian", kinematics.link_jacobian))
        self._replace(kinematics, "_pose_loss",
                      self.count("kinematics.ik.loss", kinematics._pose_loss,
                                 kind=lambda a, k: scalar_kind(a[2])))

        def ik_exit(args, kwargs, result):
            self.ik_iterations.append(result.iterations)

        self._replace(kinematics, "inverse_kinematics",
                      self.wrap("kinematics.inverse_kinematics",
                                kinematics.inverse_kinematics, on_exit=ik_exit))

        for name, n_state, inertia_pos in (("rnea", 3, 5), ("aba", 3, 5),
                                           ("mass_matrix", 1, 2),
                                           ("forward_dynamics_cholesky", 3, 5)):
            self._replace(dynamics, name,
                          self.wrap(f"dynamics.{name}", getattr(dynamics, name),
                                    kind=_state_kind(n_state, inertia_pos),
                                    samples=_samples))
        for name in ("simulate", "total_energy"):
            self._replace(dynamics, name,
                          self.wrap(f"dynamics.{name}", getattr(dynamics, name)))

        for name in ("loss_gradient", "inverse_dynamics_loss"):
            self._replace(learn, name, self.wrap(f"learn.{name}", getattr(learn, name)))
        self._replace(learn, "generate_dataset",
                      self.wrap("learn.generate_dataset", learn.generate_dataset,
                                per_call=True))

        def fit_exit(args, kwargs, result):
            self.fit_epochs.append(result.iterations)

        self._replace(learn, "fit", self.wrap("learn.fit", learn.fit, on_exit=fit_exit))
        self._replace_attr(learn.ParamStore, "inertias",
                           self.wrap("learn.ParamStore.inertias",
                                     learn.ParamStore.inertias))
        load = learn.TrajectoryDataset.__dict__["load_jsonl"]
        self._replace_attr(learn.TrajectoryDataset, "load_jsonl",
                           classmethod(self.wrap("learn.load_jsonl", load.__func__,
                                                 per_call=True)))

        for check_name, fn, _ in selfcheck.CHECKS:
            self._replace(selfcheck, fn.__name__,
                          self.wrap(f"selfcheck.{check_name}", fn))

        self._replace(cli, "main", self.wrap("cli.main", cli.main))
        return self

    def uninstall(self):
        restore(self._undo)
        self._tapes.clear()

    # -- summaries ----------------------------------------------------------
    def calls(self, key):
        return self.stats.get(key, [0, 0.0, 0.0, 0])[0]

    def self_ms(self, key):
        return self.stats.get(key, [0, 0.0, 0.0, 0])[2] * 1e3

    def us_per_call(self, key):
        st = self.stats.get(key)
        return st[1] / st[0] * 1e6 if st else 0.0

    def ns_per_sample(self, key):
        st = self.stats.get(key)
        return st[1] / st[3] * 1e9 if st and st[3] else 0.0

    def median_ms(self, key):
        times = self.per_call.get(key)
        return float(np.median(times)) * 1e3 if times else 0.0


def count_allocations(model):
    """``Vec3``/``Mat33`` objects created by one float ``rnea`` and one ``aba``.

    Patches the constructors only for the duration of this call, so no timed
    code runs with the counting constructors.
    """
    from robotdyn.dynamics import aba, rnea
    from robotdyn.spatial import Mat33, Vec3

    n = model.n
    rng = np.random.default_rng(0)
    q, qd, qdd = (list(rng.uniform(-1.0, 1.0, n)) for _ in range(3))
    counts = {}
    undo = []
    for cls in (Vec3, Mat33):
        init = cls.__dict__["__init__"]

        def counting(self, *args, _init=init, _key=cls.__name__.lower()):
            counts[_key] = counts.get(_key, 0) + 1
            _init(self, *args)

        undo.append((cls, "__init__", init))
        cls.__init__ = counting
    result = {}
    try:
        for name, fn in (("rnea", rnea), ("aba", aba)):
            counts.clear()
            fn(model, q, qd, qdd)
            for key in ("vec3", "mat33"):
                result[f"spatial.{key}_new_per_{name}"] = counts.get(key, 0)
    finally:
        restore(undo)
    return result
