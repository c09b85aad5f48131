"""Tracing generic scalar code into straight-line float code.

``Traced`` is a third scalar flavour next to ``autodiff.Var`` and
``autodiff.Dual``: it shares their ``_Scalar`` base and elementary functions,
and records every float operation with its operands into a ``Trace``.
``trace_kernel`` calls a generic function once on ``Traced`` inputs and
compiles the record into one straight-line Python function that runs on
plain floats.

``dynamics.simulate`` imports this module when it first traces ``aba``, and
``kinematics.inverse_kinematics`` when it first traces a link's pose and
Jacobian chain or its Gauss-Newton step, so importing robotdyn does not
compile it.
"""

from __future__ import annotations

import math

from .autodiff import _ELEMENTARY, _REAL, _Scalar


class TraceError(TypeError):
    """The traced function did something a straight-line kernel cannot hold:
    a branch on a traced value, or an operand that is not a plain number."""


class _Bail(ArithmeticError):
    """Raised inside a kernel that cannot vouch for its result."""


_EXPRESSIONS = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "div": "{} / {}",
                "neg": "-{}", "abs": "abs({})", "pow": "{} ** {}",
                **{name: name + "({})" for name, _, _ in _ELEMENTARY}}

# how many leading operands spread a non-finite value into the result, where
# not all do: a denominator, an exponent or exp's argument may not (1/inf, exp(-inf))
_SPREADS = {"div": 1, "pow": 0, "exp": 0}

# operations per fused expression, outermost included: a bound on the nesting
# the parser and compiler meet, far below their limits
_DEPTH = 16


def _fuse(statements, pinned):
    """Fold every temporary read exactly once, by a later assignment, into the
    expression that reads it, in parentheses, up to ``_DEPTH`` operations deep.

    ``statements`` are (target, template, operands, reads, spreads); a guard
    has target None.  Names read by a guard or ``pinned``, and names read more
    than once, stay assigned.  Returns (target, expression) for every
    statement left: each operation still runs once on the same operands, so
    only the schedule changes.
    """
    uses, pinned = {}, set(pinned)
    for target, _, _, reads, _ in statements:
        for name in reads:
            uses[name] = uses.get(name, 0) + 1
        if target is None:
            pinned.update(reads)
    inline, out = {}, []   # inline: name -> (expression, depth)
    for target, template, operands, _, _ in statements:
        args, depth = [], 0
        for name in operands:
            if name in inline:
                expr, d = inline.pop(name)
                args.append(f"({expr})")
                depth = max(depth, d)
            else:
                args.append(name)
        expr = template.format(*args)
        if depth + 1 < _DEPTH and uses.get(target) == 1 and target not in pinned:
            inline[target] = (expr, depth + 1)
        else:
            out.append((target, expr))
    return out


class Trace:
    """Straight-line record of the float operations on its ``Traced`` scalars.

    A plain-number operand becomes a constant bound by name (``repr`` does not
    round-trip ``inf``/``nan``).  Operations on constants alone run as plain
    float arithmetic and are never recorded; the identities ``trace_kernel``
    lists are folded instead of recorded.

    Each statement stays structural, an operation's template and its operand
    names, until ``compile`` renders it: the compiled kernel is nested
    expressions, not one assignment per operation (see ``_fuse``).
    """

    def __init__(self):
        # (target, template, operand names, traced names read, names whose
        # non-finite value the target spreads); a guard has target None
        self.statements = []
        self.constants = {}     # name -> plain number
        self._constant_names = {}
        self.folded = {}        # names of the x folded in some x * 0, as dict keys
        self.folds = 0          # identities folded, of any kind
        self._count = 0

    def scalar(self, prefix="t"):
        self._count += 1
        return Traced(self, f"{prefix}{self._count}")

    def name(self, x):
        """Name of an operand: a ``Traced`` of this trace, or a constant."""
        if isinstance(x, Traced) and x.trace is self:
            return x.name
        if not isinstance(x, _REAL):
            raise TraceError(f"cannot trace an operand of type {type(x).__name__}")
        key = (type(x), x.hex() if isinstance(x, float) else repr(x))
        name = self._constant_names.get(key)
        if name is None:
            name = self._constant_names[key] = f"c{len(self.constants)}"
            self.constants[name] = x
        return name

    def record(self, op, operands):
        """The result of ``op`` on ``operands``: folded, or a new statement."""
        if op not in _EXPRESSIONS:
            raise TraceError(f"cannot trace operation '{op}'")
        if len(operands) == 2:   # a plain-number operand may fold the operation
            x, y = operands
            fold = None
            if op == "sub" and isinstance(x, _REAL) and x == 0:
                fold = -y
            elif op in ("add", "sub", "mul", "div") and isinstance(y, _REAL):
                if y == 0 and op in ("add", "sub"):
                    fold = x
                elif y == 0 and op == "mul":
                    self.folded[x.name] = None
                    fold = 0.0
                elif y in (1, -1) and op in ("mul", "div"):
                    fold = x if y == 1 else -x
            if fold is not None:
                self.folds += 1
                return fold
        names = [self.name(x) for x in operands]   # raises for a foreign operand
        out = self.scalar()
        reads = tuple(n for x, n in zip(operands, names) if isinstance(x, Traced))
        spreads = tuple(n for x, n in zip(operands[:_SPREADS.get(op, 2)], names)
                        if isinstance(x, Traced))
        self.statements.append((out.name, _EXPRESSIONS[op], tuple(names), reads, spreads))
        return out

    def compile(self, f, inputs, outputs):
        """``kernel(*lists)`` for the traced ``inputs`` (lists of ``Traced``)
        and ``outputs`` of ``f``; see ``trace_kernel``.

        The tail tests the finiteness of the outputs and witness and, if the
        trace folded an identity, whether an output is zero; either hands the
        call to ``f``.  Dead-code elimination keeps the guards and whatever
        the outputs and the finiteness test read.  ``_fuse`` then folds each
        temporary read exactly once, by a later assignment, into the
        expression that reads it; the outputs, the finiteness sum, the names
        a guard reads and the names read more than once stay assigned.  This is exact: every IEEE
        operation still runs once on the same operands, and only their
        schedule changes.  It may change which error a bad input raises
        first, but any error, like a guard, hands the call to ``f``.  The
        statements left are compiled as the body of one function.
        """
        out_names = [self.name(y) for y in outputs]
        traced = [y for y in outputs if isinstance(y, Traced)]
        covered = {y.name for y in traced}
        for target, _, _, _, spreads in reversed(self.statements):
            if target in covered:
                covered.update(spreads)
        witness = [Traced(self, name) for name in self.folded if name not in covered]
        tail, reads = [], {y.name for y in traced}
        # one finiteness test per call, of the outputs and the witness
        terms = traced + witness
        if terms:
            check = sum(terms[1:], terms[0])
            reads.add(check.name)
            zero = f" or 0.0 in ({', '.join(y.name for y in traced)},)" \
                if traced and self.folds else ""
            tail.append(f"if not isfinite({check.name}){zero}: raise _Bail")
        tail.append(f"return [{', '.join(out_names)}]")

        # dead-code elimination: keep the guards and whatever the tail reads
        kept, live = [], set(reads)
        for statement in reversed(self.statements):
            if statement[0] is None or statement[0] in live:
                kept.append(statement)
                live.update(statement[3])
        kept.reverse()

        namespace = dict(self.constants, isfinite=math.isfinite, _Bail=_Bail, _f=f,
                         **{name: fn for name, fn, _ in _ELEMENTARY})
        namespace.update(sin=math.sin, cos=math.cos)  # floats only: skip the type dispatch
        args = [f"a{i}" for i in range(len(inputs))]
        lines = [f"def kernel({', '.join(args)}):", "    try:"]
        lines += [f"        {', '.join(x.name for x in xs)}, = {a}"
                  for a, xs in zip(args, inputs) if xs]
        lines += [f"        if {expr}: raise _Bail" if target is None
                  else f"        {target} = {expr}" for target, expr in _fuse(kept, reads)]
        lines += ["        " + line for line in tail]
        # a guard, the finiteness test, a float operation or a malformed input
        # raised: the traced function, run on the plain floats, decides the result
        lines += ["    except (ArithmeticError, ValueError, TypeError):", "        pass",
                  f"    return _f({', '.join(args)})"]
        exec(compile("\n".join(lines), "<kernel>", "exec"), namespace)
        return namespace.pop("kernel")


class _Condition:
    """A comparison of traced scalars, known only when the kernel runs."""

    __slots__ = ("trace", "statement")

    def __init__(self, trace, statement):
        self.trace = trace
        self.statement = statement   # a guard, as ``Trace.statements`` holds it

    def __bool__(self):
        raise TraceError("branch on a traced value")

    def any(self, axis=None, out=None):
        """``np.any(condition)`` defers here.  The trace takes the condition
        as false, and the kernel bails out when it holds."""
        self.trace.statements.append(self.statement)
        return False


class Traced(_Scalar):
    """Scalar whose float operations are recorded into a ``Trace``.

    ``value`` is a NaN placeholder that the elementary functions compute on
    and nothing reads (NaN arithmetic never raises).
    """

    __slots__ = ("trace", "name", "value")

    def __init__(self, trace, name):
        self.trace = trace
        self.name = name
        self.value = math.nan

    def _new(self, val, op, parents):
        # an elementary function of self (``where`` and ``asum`` raise here)
        return self.trace.record(op, (self,))

    def __add__(self, other):
        return self.trace.record("add", (self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.trace.record("sub", (self, other))

    def __rsub__(self, other):
        return self.trace.record("sub", (other, self))

    def __mul__(self, other):
        return self.trace.record("mul", (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.trace.record("div", (self, other))

    def __rtruediv__(self, other):
        return self.trace.record("div", (other, self))

    def __neg__(self):
        return self.trace.record("neg", (self,))

    def __abs__(self):
        return self.trace.record("abs", (self,))

    def __pow__(self, p):
        return self.trace.record("pow", (self, p))

    def _compare(self, other, op):
        reads = (self.name, other.name) if isinstance(other, Traced) else (self.name,)
        return _Condition(self.trace, (None, "{} %s {}" % op,
                                       (self.name, self.trace.name(other)), reads, ()))

    def __lt__(self, other):
        return self._compare(other, "<")

    def __le__(self, other):
        return self._compare(other, "<=")

    def __gt__(self, other):
        return self._compare(other, ">")

    def __ge__(self, other):
        return self._compare(other, ">=")

    def __bool__(self):
        raise TraceError("branch on a traced value")

    def __repr__(self):
        return f"Traced({self.name})"


def trace_kernel(f, *sizes):
    """``f`` traced once and compiled into straight-line float code.

    ``f`` is called once, on lists of ``Traced`` scalars of the given sizes,
    and must return a list of scalars built from them and plain numbers.  The
    result, ``kernel(*lists)``, takes lists of floats of those sizes and gives
    ``f(*lists)`` for every input, equal under ``==`` and in the sign of every
    zero, or raises what ``f`` raises: it returns its compiled result where it
    can vouch for it, and otherwise calls ``f`` on the same lists.

    The trace folds ``x + 0``, ``x - 0``, ``x * 1``, ``x / 1`` -> ``x``;
    ``x * -1``, ``x / -1``, ``0 - x`` -> ``-x``; ``x * 0`` -> ``0``.  All are
    exact up to the sign of a zero, so once a trace folded any, a zero output
    goes to ``f``; a trace that folded none runs exactly ``f``'s IEEE
    operations and answers its zeros itself.  ``x * 0`` is exact for finite
    ``x`` only, so one finiteness test of the sum of the outputs and of the
    *witness* (the folded ``x`` whose non-finite value would reach no output)
    sends every non-finite case to ``f``.  So does a call on which the float
    arithmetic raises, or a list of the wrong length.  ``np.any`` of a traced
    comparison is a guard: the trace takes it as false and the call goes to
    ``f`` when it holds, so an error branch such as
    ``if np.any(singular): raise ...`` raises on plain floats.

    Any other branch on a traced value, or an operand that is not a plain
    number, makes the trace raise ``TraceError``.  Whatever the trace raises,
    the result is ``f`` itself.
    """
    trace = Trace()
    inputs = [[trace.scalar("x") for _ in range(n)] for n in sizes]
    try:
        return trace.compile(f, inputs, list(f(*inputs)))
    except Exception:   # f, on plain floats, reports whatever made the trace fail
        return f
