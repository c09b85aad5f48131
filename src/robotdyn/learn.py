"""Learnable rigid-body parameters and their identification from torque data.

Selected inertial fields (mass, CoM, rotational inertia) are exposed to an
optimizer through maps from unconstrained raw vectors: mass stays positive
(softplus), the CoM is free, and the rotational inertia about the link
origin stays symmetric positive definite (Cholesky factor with softplus
diagonal plus a small diagonal floor).  That is all the maps guarantee: an
SPD inertia about the link origin can still leave the inertia about the CoM
indefinite or violating the triangle inequality, so an optimizer step can
reach physically inconsistent parameters (ROADMAP item 4 plans a map that
rules this out).

Identification minimizes a torque-regression loss: mean squared difference
between inverse-dynamics torques predicted with the mapped parameters and
the recorded torques.  ``inverse_dynamics_loss`` and ``loss_gradient`` state
it directly, one numpy-batched ``rnea`` sweep over the dataset taped by the
reverse-mode engine of :mod:`robotdyn.autodiff`; they are the reference.  The
mapped inertias reach ``rnea`` as a model, ``model.with_inertias(...)``.
``fit`` uses that inverse dynamics is linear in each body's 10 inertial
parameters, tau = Y(q, qd, qdd) pi (``dynamics.regressor``, which carries
each joint's axis down to every body it moves and takes each block of Y as
the 10 coefficients of ``spatial.inertia_bilinear``): it builds Y and
G = Y^T Y once per call, evaluates the residual r = Y pi(raw) - tau in
floats, and takes Levenberg-Marquardt steps (Marquardt 1963), each a damped
Gauss-Newton system from G and dpi/draw by forward mode.
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
FIT_TOL = 1e-10       # fit converges once the loss (N²m²) is below this
FIT_REL_TOL = 1e-12   # and plateaus once a step gains less than this share of it


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


def generate_dataset(model, n_samples, gravity=None, seed=0, noise_std=0.0):
    """Seeded random states with torques from inverse dynamics.

    q is uniform in [-π, π], q̇ and q̈ in [-2, 2]; one seed gives one dataset.
    ``noise_std`` (finite, >= 0) adds Gaussian noise to the torque column.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    n = model.n
    rng = np.random.default_rng(seed)
    q = rng.uniform(-np.pi, np.pi, size=(n_samples, n))
    qd = rng.uniform(-2.0, 2.0, size=(n_samples, n))
    qdd = rng.uniform(-2.0, 2.0, size=(n_samples, n))
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
    pred = rnea(model.with_inertias(store.inertias(raw)), list(dataset.q.T),
                list(dataset.qd.T), list(dataset.qdd.T), gravity=gravity)
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


def _lm_step(store, Y2, G, tau, raw, r, loss, lam):
    """One Levenberg-Marquardt iteration from ``raw``, whose residual is ``r``:
    solves (H + lam D) delta = g, with H = J^T G J (J = dpi/draw, G = Y^T Y),
    g = J^T Y^T r and Marquardt's D = diag(H), floored so that a parameter the
    torque never feels (a zero column of H) is damped too; lam is multiplied
    by 4 until raw - delta lowers the loss, then divided by 3.  Returns the new
    (raw, r, loss, lam), or the old raw, r and loss if no lam up to 1e16 does.
    """
    J = ad.jacobian_fwd(lambda rs: _params(store, rs), list(raw))
    H = J.T @ G @ J
    g = J.T @ (Y2.T @ r.ravel())
    d = np.diag(H)
    D = np.diag(np.maximum(d, np.finfo(float).eps * d.max() or 1.0))  # H = 0 has g = 0
    while lam <= 1e16:
        trial = raw - np.linalg.solve(H + lam * D, g)
        r_trial, loss_trial = _residual(Y2, tau, _params(store, list(trial)))
        if loss_trial < loss:
            return trial, r_trial, loss_trial, lam / 3.0
        lam *= 4.0
    return raw, r, loss, lam


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
    converged: bool    # the loss fell below ``FIT_TOL``
    stop_reason: str   # "tol", "plateau" or "max_epochs"
    identifiability: dict  # {"parameters", "rank", "condition"} at the final raw


def fit(store, dataset, epochs=1000, gravity=None):
    """Levenberg-Marquardt identification of the store's raw vector.

    Each iteration is one ``_lm_step`` and adds its loss to the curve; a step
    is taken only if it lowers the loss, so the last loss is the lowest.
    Stops when the loss drops below ``FIT_TOL`` (stop reason "tol", the only
    one reported as converged), when a step gains less than
    ``FIT_REL_TOL`` of the loss ("plateau": on noisy torques, the
    least-squares floor), or after ``epochs`` iterations ("max_epochs").  A
    non-finite loss raises ``NonFiniteError``; an ``epochs`` below 1 raises
    ``ValueError`` before any work.

    The loss is ``inverse_dynamics_loss``, evaluated through the inertial
    regressor Y, built once per call (see the module docstring); no step
    runs ``rnea``.  The report carries ``identifiability`` at the final raw
    vector.
    """
    if store.size == 0:
        raise ValueError("no learnable parameters registered")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs!r}")
    _check_dataset(store.model, dataset)
    Y = regressor(store.model, list(dataset.q.T), list(dataset.qd.T), list(dataset.qdd.T),
                  gravity=gravity)
    Y = Y.reshape(-1, Y.shape[-1])
    G = Y.T @ Y
    raw = store.raw.astype(float).copy()
    r, loss = _residual(Y, dataset.tau, _params(store, list(raw)))
    lam = 1e-3  # Levenberg-Marquardt's damping
    losses = []
    stop_reason = "max_epochs"
    for epoch in range(1, epochs + 1):
        prev = loss
        raw, r, loss, lam = _lm_step(store, Y, G, dataset.tau, raw, r, loss, lam)
        losses.append(loss)
        if loss < FIT_TOL or not loss < prev * (1.0 - FIT_REL_TOL):
            stop_reason = "tol" if loss < FIT_TOL else "plateau"
            break
    store.raw = raw
    return TrainReport(losses=losses, final_loss=loss,
                       final_params=store.physical_values(), iterations=epoch,
                       converged=stop_reason == "tol", stop_reason=stop_reason,
                       identifiability=identifiability(store, Y, raw))
