"""Automatic differentiation over plain floats and numpy arrays.

Two scalar flavours are provided:

* ``Dual`` -- forward mode; its partials are one array with a row per input,
  so one numpy product applies the chain rule to every partial of a float or
  of a batch.  Used for Jacobians of vector functions with few inputs.
* ``Var`` -- reverse mode; every operation appends a node to a ``Tape`` and
  a single backward sweep yields the gradient of a scalar output.

A third, ``tracing.Traced``, records float operations for a straight-line
kernel; it shares ``_Scalar`` and the elementary functions below.

Each operation is defined once for all three: it computes its value and local
partials and hands them to ``_new(value, op, parents)``, which records a tape
node (``Var``), records a kernel statement (``Traced``) or applies the chain
rule to the operands' partials (``Dual``).

All kinematics/dynamics code in this package is written against ordinary
arithmetic operators plus the module-level functions ``sin``, ``cos``,
``sqrt`` etc., so it runs unchanged on floats, numpy arrays (elementwise
batches), ``Dual``, ``Var`` and ``Traced``.  The value channel of a
``Dual``/``Var`` always equals the plain-float evaluation: derivative
bookkeeping never changes the primal arithmetic.

Comparisons read the value channel only; at kinks (abs, min/max) the
derivative is that of the branch taken.
"""

from __future__ import annotations

import math

import numpy as np


class NonFiniteError(ArithmeticError):
    """A non-finite value appeared during an AD evaluation."""


# ---------------------------------------------------------------------------
# value-channel primitives (float -> math.*, ndarray -> np.*), non-throwing
# ---------------------------------------------------------------------------

_REAL = (int, float, np.floating)


def _sin(x):
    return math.sin(x) if isinstance(x, _REAL) else np.sin(x)


def _cos(x):
    return math.cos(x) if isinstance(x, _REAL) else np.cos(x)


def _exp(x):
    if isinstance(x, _REAL):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf
    with np.errstate(over="ignore"):
        return np.exp(x)


def _log(x):
    if isinstance(x, _REAL):
        if x > 0.0:
            return math.log(x)
        return -math.inf if x == 0.0 else math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x)


def _sqrt(x):
    if isinstance(x, _REAL):
        return math.sqrt(x) if x >= 0.0 else math.nan
    with np.errstate(invalid="ignore"):
        return np.sqrt(x)


def _acos(x):
    if isinstance(x, _REAL):
        return math.acos(x) if -1.0 <= x <= 1.0 else math.nan
    with np.errstate(invalid="ignore"):
        return np.arccos(x)


def _div(a, b):
    # division by zero propagates inf/nan instead of raising
    if isinstance(a, _REAL) and isinstance(b, _REAL):
        if b != 0.0:
            return a / b
        if a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


def value(x):
    """Value channel of any supported scalar.  A ``tracing.Traced`` scalar is
    its own value channel: its value is only known when its kernel runs."""
    if isinstance(x, (Var, Dual)):
        return x.value
    return x


def _all_finite(v):
    return bool(np.all(np.isfinite(v)))


# ---------------------------------------------------------------------------
# operators shared by every flavour
# ---------------------------------------------------------------------------

class _Scalar:
    """Operators of all three flavours (``Var``, ``Dual`` and
    ``tracing.Traced``).  ``parents`` pairs each differentiable operand with
    the local partial of the result with respect to it; plain numbers
    contribute no pair.
    """

    __slots__ = ()
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __add__(self, other):
        if isinstance(other, _Scalar):
            return self._new(self.value + other.value, "add", ((self, 1.0), (other, 1.0)))
        return self._new(self.value + other, "add", ((self, 1.0),))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Scalar):
            return self._new(self.value - other.value, "sub", ((self, 1.0), (other, -1.0)))
        return self._new(self.value - other, "sub", ((self, 1.0),))

    def __rsub__(self, other):
        return self._new(other - self.value, "rsub", ((self, -1.0),))

    def __mul__(self, other):
        if isinstance(other, _Scalar):
            return self._new(self.value * other.value, "mul",
                             ((self, other.value), (other, self.value)))
        return self._new(self.value * other, "mul", ((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Scalar):
            inv = _div(1.0, other.value)
            q = _div(self.value, other.value)
            return self._new(q, "div", ((self, inv), (other, -q * inv)))
        return self._new(_div(self.value, other), "div", ((self, _div(1.0, other)),))

    def __rtruediv__(self, other):
        inv = _div(1.0, self.value)
        q = _div(other, self.value)
        return self._new(q, "rdiv", ((self, -q * inv),))

    def __neg__(self):
        return self._new(-self.value, "neg", ((self, -1.0),))

    def __pow__(self, p):
        if not isinstance(p, _REAL):
            raise TypeError(f"{type(self).__name__} ** exponent must be a plain number")
        v = self.value ** p
        return self._new(v, "pow", ((self, p * self.value ** (p - 1.0)),))

    def __abs__(self):
        return self._new(abs(self.value), "abs", ((self, np.sign(self.value)),))

    # -- comparisons read the value channel only ----------------------------
    def __lt__(self, other):
        return self.value < value(other)

    def __le__(self, other):
        return self.value <= value(other)

    def __gt__(self, other):
        return self.value > value(other)

    def __ge__(self, other):
        return self.value >= value(other)


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------

class Tape:
    """Append-only record of elementary operations, in evaluation order."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def var(self, val, op="input", parents=()):
        v = Var(self, val, op, parents)
        self.nodes.append(v)
        return v


class Var(_Scalar):
    """Reverse-mode scalar: a node on a ``Tape``.

    ``value`` may be a float or a numpy array (an elementwise batch);
    broadcasting a scalar ``Var`` against array operands is supported and
    the backward sweep sums over the broadcast dimension.
    """

    __slots__ = ("tape", "value", "op", "parents", "adj")

    def __init__(self, tape, val, op, parents):
        self.tape = tape
        self.value = val
        self.op = op
        self.parents = parents
        self.adj = None

    def _new(self, val, op, parents):
        return self.tape.var(val, op, parents)

    def __repr__(self):
        return f"Var({self.value!r}, op={self.op})"


def _selected(partial, d, g):
    """``g = partial * d`` with every element where either factor is zero set
    to zero, so an infinite or NaN factor there contributes nothing: an array
    ``where`` passes its untaken branch a zero adjoint (reverse) or a zero
    partial (forward), which must cut that branch off even where its own
    partials are not finite (sqrt at 0)."""
    if isinstance(g, np.ndarray) and np.isnan(g).any():
        return np.where((np.asarray(partial) == 0.0) | (np.asarray(d) == 0.0), 0.0, g)
    return g


def backward(y):
    """Backward sweep from scalar output ``y``; fills ``adj`` on its tape."""
    tape = y.tape
    for n in tape.nodes:
        n.adj = None
    y.adj = 1.0
    with np.errstate(invalid="ignore"):
        for node in reversed(tape.nodes):
            a = node.adj
            if a is None:
                continue
            for parent, partial in node.parents:
                g = partial * a
                if isinstance(g, np.ndarray):
                    g = _selected(partial, a, g)
                    if not isinstance(parent.value, np.ndarray):
                        g = float(g.sum())  # un-broadcast onto a scalar parent
                parent.adj = g if parent.adj is None else parent.adj + g


def _raise_first_nonfinite(tape):
    for node in tape.nodes:
        if not _all_finite(node.value):
            raise NonFiniteError(f"non-finite value produced by operation '{node.op}'")
    raise NonFiniteError("non-finite value with no offending tape node (constant input?)")


def _inputs(x):
    tape = Tape()
    return [tape.var(float(xi)) for xi in x]


def _adjoints(xs, y):
    """Gradient of output ``y`` with respect to the inputs ``xs`` of its tape."""
    if not isinstance(y, Var):
        return np.zeros(len(xs))
    if not _all_finite(y.value):
        _raise_first_nonfinite(y.tape)
    backward(y)
    return np.array([0.0 if v.adj is None else float(np.sum(v.adj)) for v in xs])


def gradient(f, x):
    """Gradient of scalar-valued ``f`` at ``x`` via one reverse sweep.

    ``f`` receives a list of ``Var`` and must return a ``Var`` (or a plain
    constant, in which case the gradient is zero).
    """
    xs = _inputs(x)
    return _adjoints(xs, f(xs))


def jacobian_rev(f, x):
    """Jacobian of vector-valued ``f`` at ``x``: ``f`` is recorded on one tape,
    then one reverse sweep per output gives that output's row, equal to
    ``gradient`` of the output alone."""
    xs = _inputs(x)
    return np.array([_adjoints(xs, y) for y in f(xs)])


# ---------------------------------------------------------------------------
# forward mode
# ---------------------------------------------------------------------------

def _rows(partials, nd):
    """Partials (p,) + s with singleton axes after p, so that a float
    operand's rows broadcast against an ``nd``-dimensional batch."""
    pad = (1,) * (nd + 1 - partials.ndim)
    return partials.reshape(partials.shape[:1] + pad + partials.shape[1:]) if pad else partials


class Dual(_Scalar):
    """Forward-mode scalar.  ``partials`` is one float array of shape
    (p,) + shape(value): row j is the derivative with respect to input j."""

    __slots__ = ("value", "partials")

    def __init__(self, val, partials):
        self.value = val
        self.partials = np.asarray(partials, dtype=float)

    @staticmethod
    def seed(values):
        """Lift ``values`` into duals whose partials are the identity's rows."""
        return [Dual(float(v), row) for v, row in zip(values, np.eye(len(values)))]

    @np.errstate(invalid="ignore", over="ignore")
    def _new(self, val, op, parents):
        # the sum over (operand, local partial d) pairs of d times the
        # operand's partial rows; in a batch, a row whose product holds a NaN
        # is _selected, as in the backward sweep
        nd = val.ndim if isinstance(val, np.ndarray) else 0
        g = None
        for x, d in parents:
            t = d * (_rows(x.partials, d.ndim) if isinstance(d, np.ndarray) else x.partials)
            if t.ndim > 1 and math.isnan(np.vdot(t, t)):  # NaN exactly where t holds one
                t = np.array([_selected(d, a, d * a) for a in x.partials])
            g = t if g is None else g + t if g.ndim == t.ndim else _rows(g, nd) + _rows(t, nd)
        if nd and g.shape[1:] != val.shape:
            g = np.broadcast_to(_rows(g, nd), g.shape[:1] + val.shape)
        elif g.ndim > 1 + nd:  # un-broadcast onto a float result, as backward does
            g = np.ascontiguousarray(g).reshape(len(g), -1).sum(axis=1)
        return Dual(val, g)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.partials!r})"


# ---------------------------------------------------------------------------
# elementary functions: one (f, df(x, f(x))) pair each, for every flavour
# ---------------------------------------------------------------------------

def _elementary(name, f, df):
    def fn(x):
        if isinstance(x, _Scalar):
            fx = f(x.value)
            return x._new(fx, name, ((x, df(x.value, fx)),))
        return f(x)

    fn.__name__ = fn.__qualname__ = name
    return fn


_ELEMENTARY = (
    ("sin", _sin, lambda x, fx: _cos(x)),
    ("cos", _cos, lambda x, fx: -_sin(x)),
    ("exp", _exp, lambda x, fx: fx),
    ("log", _log, lambda x, fx: _div(1.0, x)),
    ("sqrt", _sqrt, lambda x, fx: _div(0.5, fx)),
    ("acos", _acos, lambda x, fx: -_div(1.0, _sqrt(1.0 - x * x))),
)

sin, cos, exp, log, sqrt, acos = (_elementary(*row) for row in _ELEMENTARY)


def where(cond, a, b):
    """Branch on a boolean (or boolean array) value; differentiable in a, b.

    A plain boolean (or 0-d array) returns the taken branch itself, so the
    untaken branch never reaches the derivative (its partials may be inf,
    e.g. sqrt at 0).  An array condition selects elementwise: the untaken
    branch's elements get a zero partial, and both modes treat a zero factor
    of the chain rule as cutting off whatever it multiplies, inf and NaN
    included.
    """
    if not isinstance(cond, np.ndarray) or cond.ndim == 0:
        return a if cond else b
    take = np.where(cond, 1.0, 0.0)
    parents = tuple((x, d) for x, d in ((a, take), (b, 1.0 - take)) if isinstance(x, _Scalar))
    val = np.where(cond, value(a), value(b))
    return parents[0][0]._new(val, "where", parents) if parents else val


def maximum(a, b):
    return where(value(a) >= value(b), a, b)


def minimum(a, b):
    return where(value(a) <= value(b), a, b)


def asum(x):
    """Sum of an elementwise batch; reduces an array-valued node to a scalar."""
    if isinstance(x, _Scalar):
        # an array of ones, so a scalar operand broadcast into x sums its share
        d = np.ones_like(x.value) if isinstance(x.value, np.ndarray) else 1.0
        return x._new(float(np.sum(x.value)), "sum", ((x, d),))
    return float(np.sum(x))


def amean(x):
    v = value(x)
    n = v.size if isinstance(v, np.ndarray) else 1
    return asum(x) / n


# ---------------------------------------------------------------------------
# driver-level helpers
# ---------------------------------------------------------------------------

def jacobian_fwd(f, x):
    """Full Jacobian of vector-valued ``f`` at ``x`` using n-wide duals."""
    ys = f(Dual.seed(x))
    return np.array([y.partials if isinstance(y, Dual) else np.zeros(len(x)) for y in ys],
                    dtype=float)


def check_gradient(f, x):
    """Max relative error between the reverse-mode gradient and central FD."""
    step = 1e-6
    x = [float(v) for v in x]
    g = gradient(f, x)
    err = 0.0
    for i in range(len(x)):
        xp = list(x)
        xm = list(x)
        xp[i] += step
        xm[i] -= step
        fd = (float(value(f(xp))) - float(value(f(xm)))) / (2.0 * step)
        err = max(err, abs(g[i] - fd) / max(1.0, abs(g[i])))
    return err
