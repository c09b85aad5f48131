"""Learnable rigid-body parameters and gradient-based identification.

Selected inertial fields (mass, CoM, rotational inertia) are exposed to an
optimizer through maps from unconstrained raw vectors: mass stays positive
(softplus), the CoM is free, and the rotational inertia about the link
origin stays symmetric positive definite (Cholesky factor with softplus
diagonal plus a small diagonal floor).  That is all the maps guarantee: an
SPD inertia about the link origin can still leave the inertia about the CoM
indefinite or violating the triangle inequality, so an optimizer step can
reach physically inconsistent parameters (ROADMAP item 3 plans a map that
rules this out).

Identification minimizes a torque-regression loss: mean squared difference
between inverse-dynamics torques predicted with the mapped parameters and
the recorded torques.  ``inverse_dynamics_loss`` and ``loss_gradient`` state
it directly, one numpy-batched ``rnea`` sweep over the dataset taped by the
reverse-mode engine of :mod:`robotdyn.autodiff`; they are the reference.
``fit`` uses that inverse dynamics is linear in each body's 10 inertial
parameters, tau = Y(q, qd, qdd) pi (``dynamics.regressor``, which carries
each joint's axis down to every body it moves and takes each block of Y as
the 10 coefficients of ``spatial.inertia_bilinear``): it builds Y once per
call, and each step evaluates the residual Y pi(raw) - tau in floats and
pulls its gradient (2/N) Y^T r back through the map pi(raw) with one reverse
sweep over a tape of the map alone, whose length is independent of the
sample count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dynamics import regressor, rnea
from .spatial import Mat33, SpatialInertia, Vec3, parallel_axis_term

SPD_EPS = 1e-9  # diagonal floor keeping mapped inertias safely invertible


def positive_scalar_map(raw):
    """Overflow-safe softplus log(1 + exp(raw)); strictly positive and increasing.

    Both tails use their asymptotic forms: the upper to avoid exp overflow,
    the lower because log(1 + exp(raw)) underflows to exactly zero there.
    A NaN raw maps to NaN (the clamps would map it to softplus(-30)).
    """
    capped = ad.minimum(ad.maximum(raw, -30.0), 30.0)
    mid = ad.log(1.0 + ad.exp(capped))
    low = ad.exp(ad.maximum(raw, -745.0))  # softplus(x) ~ exp(x) as x -> -inf
    val = np.asarray(ad.value(raw))
    return ad.where((val > 30.0) | np.isnan(val), raw, ad.where(val < -30.0, low, mid))


def positive_scalar_init(target):
    """Inverse softplus: raw with positive_scalar_map(raw) == target."""
    if target <= 0.0:
        raise ValueError(f"target must be positive, got {target}")
    if target > 30.0:
        return float(target)
    return math.log(math.expm1(target))


def spd_map(raw):
    """raw[6] -> L L^T + eps*I with softplus diagonal: always SPD.

    Raw layout: (d0, d1, d2, l10, l20, l21).
    """
    d0 = positive_scalar_map(raw[0])
    d1 = positive_scalar_map(raw[1])
    d2 = positive_scalar_map(raw[2])
    l10, l20, l21 = raw[3], raw[4], raw[5]
    # L L^T for lower-triangular L, plus the floor
    return Mat33(
        d0 * d0 + SPD_EPS, d0 * l10, d0 * l20,
        d0 * l10, l10 * l10 + d1 * d1 + SPD_EPS, l10 * l20 + d1 * l21,
        d0 * l20, l10 * l20 + d1 * l21, l20 * l20 + l21 * l21 + d2 * d2 + SPD_EPS)


def spd_init(target):
    """Raw vector whose spd_map reproduces ``target`` (eigenvalues floored at 1e-8)."""
    T = np.array(target.values() if isinstance(target, Mat33) else target, dtype=float)
    T = 0.5 * (T + T.T)
    w, V = np.linalg.eigh(T)
    w = np.maximum(w, 1e-8)
    L = np.linalg.cholesky(V @ np.diag(w) @ V.T - SPD_EPS * np.eye(3))
    return [positive_scalar_init(L[0, 0]), positive_scalar_init(L[1, 1]),
            positive_scalar_init(L[2, 2]), float(L[1, 0]), float(L[2, 0]),
            float(L[2, 1])]


# Each learnable field: its raw size, the raw vector reproducing a model value,
# and the map from a raw vector to a valid value
_FIELDS = {
    "mass": (1, lambda mass: [positive_scalar_init(float(mass))],
             lambda raw: positive_scalar_map(raw[0])),
    "com": (3, lambda com: [float(com.x), float(com.y), float(com.z)],
            lambda raw: Vec3(raw[0], raw[1], raw[2])),
    "rot_inertia": (6, spd_init, spd_map),
}


@dataclass
class _Entry:
    body: int
    field: str
    offset: int


class ParamStore:
    """Registry of learnable (body, field) pairs with a flat raw view."""

    def __init__(self, model):
        if model.kinematics_only:
            raise ValueError("cannot attach learnable parameters to a "
                             "kinematics_only model")
        self.model = model
        self.entries = []
        self.raw = np.zeros(0)
        self._base_inertias = model.inertias()

    def make_learnable(self, link, field):
        """Register a learnable field, initialized at the model's current value."""
        idx = self.model.body_index(link)
        if field not in _FIELDS:
            raise ValueError(f"unknown field '{field}' (expected mass/com/rot_inertia)")
        if any(e.body == idx and e.field == field for e in self.entries):
            raise ValueError(f"{link}.{field} is already learnable")
        _, init, _ = _FIELDS[field]
        raw0 = init(getattr(self.model.bodies[idx].inertia, field))
        self.entries.append(_Entry(idx, field, len(self.raw)))
        self.raw = np.concatenate([self.raw, np.asarray(raw0, dtype=float)])
        return self

    @property
    def size(self):
        return len(self.raw)

    def _mapped(self, raw):
        """(entry, field value mapped from its raw chunk) for every entry."""
        for e in self.entries:
            size, _, map_ = _FIELDS[e.field]
            yield e, map_(list(raw[e.offset:e.offset + size]))

    def inertias(self, raw=None):
        """Per-body inertias with learnable fields mapped from ``raw``.

        ``raw`` may hold floats or autodiff scalars; defaults to the stored
        raw vector.
        """
        if raw is None:
            raw = list(self.raw)
        out = list(self._base_inertias)
        touched = {}
        for e, value in self._mapped(raw):
            touched.setdefault(e.body, {})[e.field] = value
        for body, fields in touched.items():
            base = self._base_inertias[body]
            mass = fields.get("mass", base.mass)
            com = fields.get("com", base.com)
            if "rot_inertia" in fields:
                # the SPD map owns the full origin-referenced tensor
                rot = fields["rot_inertia"]
            else:
                # keep the CoM-referenced part fixed and recompose the
                # parallel-axis term, so it tracks a learnable mass/CoM
                i_com = base.rot_inertia - parallel_axis_term(base.mass, base.com)
                rot = i_com + parallel_axis_term(mass, com)
            out[body] = SpatialInertia(mass, com, rot)
        return out

    def physical_values(self, raw=None):
        """Mapped float values keyed 'link.field': a mass as a float, a CoM as
        a 3-list, a rotational inertia as a 3x3 nested list."""
        raw = [float(ad.value(r)) for r in (self.raw if raw is None else raw)]
        return {f"{self.model.bodies[e.body].name}.{e.field}":
                value.values() if isinstance(value, (Vec3, Mat33)) else float(value)
                for e, value in self._mapped(raw)}


def make_learnable(model, link, field):
    """A new ParamStore with one learnable (link, field)."""
    return ParamStore(model).make_learnable(link, field)


class TrajectoryDataset:
    """Records of (q, qd, qdd, tau), stored column-batched as (N, n) arrays."""

    def __init__(self, q, qd, qdd, tau):
        self.q = np.asarray(q, dtype=float)
        self.qd = np.asarray(qd, dtype=float)
        self.qdd = np.asarray(qdd, dtype=float)
        self.tau = np.asarray(tau, dtype=float)
        shapes = {a.shape for a in (self.q, self.qd, self.qdd, self.tau)}
        if len(shapes) != 1 or self.q.ndim != 2:
            raise ValueError(f"inconsistent record shapes: {sorted(shapes)}")
        if not all(np.all(np.isfinite(a)) for a in (self.q, self.qd, self.qdd, self.tau)):
            raise ValueError("dataset contains non-finite values")

    def __len__(self):
        return self.q.shape[0]

    @property
    def n_joints(self):
        return self.q.shape[1]

    def subset(self, idx):
        return TrajectoryDataset(self.q[idx], self.qd[idx], self.qdd[idx], self.tau[idx])

    def save_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                rec = {"q": self.q[i].tolist(), "qd": self.qd[i].tolist(),
                       "qdd": self.qdd[i].tolist(), "tau": self.tau[i].tolist()}
                fh.write(json.dumps(rec) + "\n")

    @classmethod
    def load_jsonl(cls, path):
        rows = {"q": [], "qd": [], "qdd": [], "tau": []}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ValueError(f"{path}:{lineno}: bad JSON: {e}") from None
                if not isinstance(rec, dict):
                    raise ValueError(f"{path}:{lineno}: record is not a JSON object")
                for key, column in rows.items():
                    if key not in rec:
                        raise ValueError(f"{path}:{lineno}: missing '{key}'")
                    value = rec[key]
                    if not isinstance(value, list):
                        raise ValueError(f"{path}:{lineno}: '{key}' is not a list")
                    column.append(value)
        if not rows["q"]:
            raise ValueError(f"{path}: empty dataset")
        lengths = {len(v) for row in rows.values() for v in row}
        if len(lengths) != 1:
            raise ValueError(_mixed_length(path, rows))
        try:
            arrays = [np.array(column) for column in rows.values()]
        except ValueError:  # an entry is a list itself
            raise ValueError(_non_number(path, rows)) from None
        if any(a.ndim != 2 or a.dtype.kind not in "biuf" for a in arrays):
            raise ValueError(_non_number(path, rows))
        return cls(*arrays)


def _records(path):
    """(line number, record) of each non-blank line of a JSONL dataset that
    ``load_jsonl`` has read once: its error paths read the file again to name
    the line, so a valid file pays nothing for them."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(lineno, json.loads(line)) for lineno, line in enumerate(fh, 1)
                if line.strip()]


def _non_number(path, keys):
    """The line and entry of the first entry that numpy does not read as a
    number."""
    for lineno, rec in _records(path):
        for key in keys:
            for x in rec[key]:
                a = np.array(x)
                if a.ndim or a.dtype.kind not in "biuf":
                    return (f"{path}:{lineno}: '{key}' entry {x!r} is not a float "
                            f"or a 64-bit integer")
    return f"{path}: entries are not all floats or 64-bit integers"


def _mixed_length(path, keys):
    """The line and field of the first vector whose length differs from the
    first record's first field."""
    expected = None
    for lineno, rec in _records(path):
        for key in keys:
            k = len(rec[key])
            if expected is None:
                expected = k
            elif k != expected:
                return f"{path}:{lineno}: '{key}' has length {k}, expected {expected}"
    return f"{path}: records have mixed vector lengths"


def generate_dataset(model, n_samples, q_range=(-np.pi, np.pi), qd_range=(-2.0, 2.0),
                     qdd_range=(-2.0, 2.0), gravity=None, seed=0, noise_std=0.0):
    """Seeded random states with torques from inverse dynamics.

    The same seed always yields the identical dataset.  ``noise_std`` adds
    optional Gaussian noise to the torque column.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = model.n
    rng = np.random.default_rng(seed)
    q = rng.uniform(q_range[0], q_range[1], size=(n_samples, n))
    qd = rng.uniform(qd_range[0], qd_range[1], size=(n_samples, n))
    qdd = rng.uniform(qdd_range[0], qdd_range[1], size=(n_samples, n))
    tau_cols = rnea(model, list(q.T), list(qd.T), list(qdd.T), gravity=gravity)
    tau = np.stack([np.asarray(c) for c in tau_cols], axis=1)
    if noise_std > 0.0:
        tau = tau + rng.normal(0.0, noise_std, size=tau.shape)
    return TrajectoryDataset(q, qd, qdd, tau)


def _check_dataset(model, dataset):
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset.n_joints != model.n:
        raise ValueError(f"dataset has {dataset.n_joints} DoF, model has {model.n}")


def inverse_dynamics_loss(store, dataset, raw=None, gravity=None):
    """Mean squared torque residual of the model with mapped parameters.

    ``raw`` may hold autodiff scalars; the dataset is evaluated as one
    batched sweep.
    """
    model = store.model
    _check_dataset(model, dataset)
    inertias = store.inertias(raw)
    pred = rnea(model, list(dataset.q.T), list(dataset.qd.T), list(dataset.qdd.T),
                gravity=gravity, inertias=inertias)
    loss = 0.0
    for j in range(model.n):
        res = pred[j] - dataset.tau[:, j]
        loss = loss + ad.amean(res * res)
    if not np.isfinite(float(ad.value(loss))):
        raise ad.NonFiniteError("inverse dynamics loss is not finite")
    return loss


def loss_gradient(store, dataset, raw, gravity=None):
    """Reverse-mode gradient of the loss with respect to the raw vector."""
    return ad.gradient(lambda rs: inverse_dynamics_loss(store, dataset, rs,
                                                        gravity=gravity), raw)


def _params(store, raw):
    """pi(raw): the 10 inertial parameters of every body, in body order."""
    return [p for inertia in store.inertias(raw) for p in inertia.params()]


def _residual(Y, tau, p):
    """Torque residual Y p - tau, shape (N, n), and its loss sum(r^2) / N."""
    r = (Y.reshape(-1, Y.shape[-1]) @ np.asarray(p, dtype=float)).reshape(tau.shape) - tau
    loss = float(np.sum(r * r)) / len(r)
    if not math.isfinite(loss):
        raise ad.NonFiniteError("inverse dynamics loss is not finite")
    return r, loss


def _raw_gradient(store, Y, r, raw):
    """Gradient with respect to ``raw`` of the loss whose residual is ``r``:
    the parameter gradient (2/N) Y^T r, pulled back through pi(raw) by one
    reverse sweep of <g_pi, pi(raw)>."""
    g_pi = Y.reshape(-1, Y.shape[-1]).T @ r.ravel() * (2.0 / len(r))

    def pairing(rs):
        s = 0.0
        for g, p in zip(g_pi.tolist(), _params(store, rs)):
            if isinstance(p, ad.Var):
                s = s + p * g
        return s

    return ad.gradient(pairing, raw)


def identifiability(store, Y, raw):
    """Rank and condition of the raw parameters' torque map, Y dpi/draw at ``raw``.

    ``rank`` counts the singular values above ``numpy.linalg.matrix_rank``'s
    default tolerance, sigma_max * max(A.shape) * eps, and ``condition`` is
    sigma_max / sigma_rank (finite even when the data cannot determine every
    raw parameter; infinite only at rank 0).
    """
    J = ad.jacobian_fwd(lambda rs: _params(store, rs), list(raw))
    A = Y.reshape(-1, J.shape[0]) @ J
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > s[0] * max(A.shape) * np.finfo(float).eps))
    return {"parameters": store.size, "rank": rank,
            "condition": float(s[0] / s[rank - 1]) if rank else math.inf}


@dataclass
class TrainReport:
    losses: list
    final_loss: float
    final_params: dict
    iterations: int
    converged: bool    # the loss fell below ``tol``
    stop_reason: str   # "tol", "plateau" or "max_epochs"
    identifiability: dict  # {"parameters", "rank", "condition"} at the final raw


def fit(store, dataset, optimizer="adam", learning_rate=0.01, epochs=1000,
        batch_size=None, tol=1e-10, rel_tol=1e-12, patience=10, gravity=None,
        seed=0):
    """Gradient-descent identification loop over the store's raw vector.

    ``optimizer`` is "gd" (plain descent) or "adam" (per-coordinate adaptive
    with momentum).  Stops when the loss drops below ``tol`` (stop reason
    "tol", the only one reported as converged), when halving the learning
    rate after every ``patience`` epochs without a relative improvement of
    ``rel_tol`` has shrunk it ~1e-9x ("plateau"), or after ``epochs``
    ("max_epochs").  Divergence (loss above 1e12) raises ``RuntimeError``
    with the epoch index, a non-finite loss ``NonFiniteError``; a
    ``learning_rate`` that is not positive and finite, or an ``epochs`` or
    ``batch_size`` below 1, raises ``ValueError`` before any work.

    The loss is ``inverse_dynamics_loss``, evaluated through the inertial
    regressor: Y is built once per call, each step (each minibatch, with
    ``batch_size``) takes the residual r = Y pi(raw) - tau on its rows in
    floats and its gradient from (2/N) Y^T r and a tape of pi(raw) alone, and
    each epoch's loss is sum(r^2)/N over the whole dataset, whose residual
    also serves the next full-batch step.  No step runs ``rnea``.  The report
    carries ``identifiability`` at the final raw vector.
    """
    if store.size == 0:
        raise ValueError("no learnable parameters registered")
    if optimizer not in ("gd", "adam"):
        raise ValueError(f"unknown optimizer '{optimizer}'")
    if not (math.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate!r}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs!r}")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
    _check_dataset(store.model, dataset)
    Y = regressor(store.model, list(dataset.q.T), list(dataset.qd.T), list(dataset.qdd.T),
                  gravity=gravity)
    tau = dataset.tau
    raw = store.raw.astype(float).copy()
    m = np.zeros_like(raw)
    v = np.zeros_like(raw)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(seed)

    losses = []
    stop_reason = "max_epochs"
    epoch = 0
    best_loss = math.inf
    best_raw = raw.copy()
    since_best = 0
    cur_lr = learning_rate
    adam_t = 0
    r = None  # residual of every sample at the current raw, when known
    for epoch in range(1, epochs + 1):
        if batch_size is None or batch_size >= len(dataset):
            batches = [None]
        else:
            order = rng.permutation(len(dataset))
            batches = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
        for rows in batches:
            if rows is None:
                if r is None:
                    r, _ = _residual(Y, tau, _params(store, list(raw)))
                Yb, rb = Y, r
            else:
                Yb = Y[rows]
                rb, _ = _residual(Yb, tau[rows], _params(store, list(raw)))
            g = _raw_gradient(store, Yb, rb, list(raw))
            if optimizer == "gd":
                raw -= cur_lr * g
            else:
                adam_t += 1
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * g * g
                mhat = m / (1.0 - beta1 ** adam_t)
                vhat = v / (1.0 - beta2 ** adam_t)
                raw -= cur_lr * mhat / (np.sqrt(vhat) + eps)
        r, loss = _residual(Y, tau, _params(store, list(raw)))
        if loss > 1e12:
            raise RuntimeError(f"training diverged at epoch {epoch} (loss {loss:g})")
        losses.append(loss)
        if loss < best_loss * (1.0 - rel_tol):
            best_loss = loss
            best_raw = raw.copy()
            since_best = 0
        else:
            since_best += 1
        if loss < tol:
            stop_reason = "tol"
            break
        if since_best >= patience:
            # plateau: restart from the best point with a halved step; give up
            # once the step has shrunk ~1e-9x without further improvement
            cur_lr *= 0.5
            if cur_lr < learning_rate * 1e-9:
                stop_reason = "plateau"
                break
            raw = best_raw.copy()
            r = None
            m[:] = 0.0
            v[:] = 0.0
            adam_t = 0
            since_best = 0

    if best_loss < losses[-1]:
        raw = best_raw
        losses.append(best_loss)
    store.raw = raw
    return TrainReport(losses=losses, final_loss=losses[-1],
                       final_params=store.physical_values(), iterations=epoch,
                       converged=stop_reason == "tol", stop_reason=stop_reason,
                       identifiability=identifiability(store, Y, raw))
