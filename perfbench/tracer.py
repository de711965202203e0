"""In-memory spans and counters around the calls into each dghlab layer.

The tracer lives entirely in the benchmark: it replaces the public names
that one layer calls in another with timing wrappers for the length of
one traced operation and puts the originals back afterwards, so untraced
operations run the program exactly as shipped.

Two bindings need care:

* ``dghlab.cli`` imports ``simulate``, ``advect``, the criteria, the gap
  functions and the grid/operator/preset constructors by name, so those
  names are replaced on the ``cli`` module, not on their home modules.
* ``simulate`` imports ``energy_E``/``energy_F`` lazily from
  ``dghlab.analysis``, so those are replaced on the ``analysis`` module.

Kernel calls (``numpy.fft.rfft``/``irfft``) and trigonometric evaluations
(``numpy.cos``, one per interpolation point set) are counted, not
spanned, and attributed to the innermost open span of the calling thread.
Spans opened in worker threads (the sweep pool) take the operation's root
span as parent, so every span of one operation shares its ``op`` id.
"""
from __future__ import annotations

import itertools
import math
import threading
import time
from contextlib import contextmanager

# attribute -> span name, per module or class the attribute is replaced on
CLI_NAMES = {
    "simulate": "evolution.simulate",
    "advect": "characteristics.advect",
    "check_criterion_dgh": "analysis.criterion",
    "check_criterion_dgh2": "analysis.criterion",
    "one_sided_gaps": "analysis.gaps",
    "full_kernel_gap": "analysis.gaps",
    "sobolev_gap": "analysis.gaps",
    "make_operator": "helmholtz.make_operator",
    "make_grid": "core.grid",
    "ic_preset": "core.preset",
}
ANALYSIS_NAMES = {
    "energy_E": "analysis.energy",
    "energy_F": "analysis.energy",
}
OPERATOR_METHODS = {
    "one_sided_convolutions": "helmholtz.convolution",
    "apply_q_values": "helmholtz.convolution",
}


class Span:
    __slots__ = ("sid", "parent", "op", "name", "thread", "t0", "t1",
                 "fft_calls", "fft_s", "fft_flops", "fft_bytes", "cos_calls")

    def __init__(self, sid, parent, op, name, thread):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.thread = thread
        self.t0 = time.perf_counter()
        self.t1 = None
        self.fft_calls = 0
        self.fft_s = 0.0
        self.fft_flops = 0.0
        self.fft_bytes = 0
        self.cos_calls = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def row(self) -> list:
        return [self.sid, self.parent, self.op, self.name, self.thread,
                self.t0, self.t1, self.fft_calls, self.fft_s, self.fft_flops,
                self.fft_bytes, self.cos_calls]


ROW_FIELDS = ["id", "parent", "op", "name", "thread", "t0", "t1", "fft_calls",
              "fft_s", "fft_flops", "fft_bytes", "cos_calls"]


def _fft_cost(n: int) -> float:
    """Computed operation count of one real transform of length n."""
    return 2.5 * n * math.log2(n) if n > 1 else 0.0


class Tracer:
    """Spans and counters of the traced operations of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unattributed = Span(0, None, 0, "unattributed", "none")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = 0
        self._root: Span | None = None
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self) -> Span:
        """The span a count goes to: the innermost open span of this thread,
        else the unattributed bucket (counts are updated under the lock)."""
        stack = self._stack()
        return stack[-1] if stack else self.unattributed

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            parent = self._root.sid if self._root is not None else None
        sp = Span(next(self._ids), parent, self._op, name, threading.current_thread().name)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation (one ``dgh-lab`` command)."""
        self._op += 1
        with self.span(name) as root:
            self._root = root
            try:
                yield root
            finally:
                self._root = None

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn, out_len):
        tracer = self

        def counted(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            dt = time.perf_counter() - t0
            sp = tracer._innermost()
            with tracer._lock:
                tracer._count_fft(sp, dt, out_len(a, out), a, out)
            return out

        counted.__wrapped__ = fn
        return counted

    @staticmethod
    def _count_fft(sp: Span, dt: float, n: int, a, out) -> None:
        rows = out.size // out.shape[-1]
        sp.fft_calls += 1
        sp.fft_s += dt
        sp.fft_flops += rows * _fft_cost(n)
        sp.fft_bytes += getattr(a, "nbytes", 0) + out.nbytes

    def _wrap_cos(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            sp = tracer._innermost()
            with tracer._lock:
                sp.cos_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Replace the traced names; ``uninstall`` restores them."""
        import numpy
        from dghlab import analysis, cli, helmholtz

        for attr, name in CLI_NAMES.items():
            self._replace(cli, attr, self._wrap(name, getattr(cli, attr)))
        for attr, name in ANALYSIS_NAMES.items():
            self._replace(analysis, attr, self._wrap(name, getattr(analysis, attr)))
        op_cls = helmholtz.NonlocalOperator
        for attr, name in OPERATOR_METHODS.items():
            self._replace(op_cls, attr, self._wrap(name, getattr(op_cls, attr)))
        self._replace(numpy.fft, "rfft", self._wrap_fft(
            numpy.fft.rfft, lambda a, out: a.shape[-1]))
        self._replace(numpy.fft, "irfft", self._wrap_fft(
            numpy.fft.irfft, lambda a, out: out.shape[-1]))
        self._replace(numpy, "cos", self._wrap_cos(numpy.cos))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
