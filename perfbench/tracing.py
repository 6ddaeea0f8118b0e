"""In-memory spans around the msflow layers, installed from outside the package.

A `Tracer` replaces chosen layer functions and methods by wrappers that
record a span (name, start, end, parent) for every call.  A function is
replaced in every loaded msflow module that binds it, so the package
namespace and the `from`-import bindings in `preconditioner`,
`two_phase` and `coarse_space` are traced as well as the defining
module.  `uninstall` puts every original back.

The benchmark opens its own spans around the calls it makes
(`Tracer.span`), so end-to-end timings and layer timings come from one
record.
"""

import sys
import time
from contextlib import contextmanager
from functools import wraps


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def within(self, name):
        """True when some ancestor span is called `name`."""
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


# (module, attribute, span name) of every traced function
FUNCTIONS = [
    ("mesh", "velocity_dofs_interior_to", "mesh.velocity_dofs_interior_to"),
    ("mesh", "coarse_faces", "mesh.coarse_faces"),
    ("mixed_fem", "assemble_operators", "mixed_fem.assemble_operators"),
    ("mixed_fem", "block_solvers", "mixed_fem.block_solvers"),
    ("coarse_space", "build_space", "coarse_space.build_space"),
    ("coarse_space", "snapshot_face", "coarse_space.snapshot_face"),
    ("coarse_space", "face_eigenpairs", "coarse_space.face_eigenpairs"),
    ("coarse_space", "face_bilinear_s", "coarse_space.face_bilinear_s"),
    ("coarse_space", "coarse_operator", "coarse_space.coarse_operator"),
    ("sparse_linalg", "factor", "sparse_linalg.factor"),
    ("sparse_linalg", "pcg", "sparse_linalg.pcg"),
    ("preconditioner", "build_preconditioner",
     "preconditioner.build_preconditioner"),
    ("preconditioner", "preprocess", "preconditioner.preprocess"),
    ("preconditioner", "solve", "preconditioner.solve"),
    ("preconditioner", "recover_pressure", "preconditioner.recover_pressure"),
    ("two_phase", "pressure_step", "two_phase.pressure_step"),
    ("two_phase", "transport_step", "two_phase.transport_step"),
    # private, but its calls and failures are the Newton retries
    ("two_phase", "_newton_transport", "two_phase.newton"),
]

# (module, class, method, span name) of every traced method
METHODS = [
    ("mixed_fem", "BlockSolver", "solve", "mixed_fem.BlockSolver.solve"),
    ("preconditioner", "TwoGridPreconditioner", "smooth",
     "preconditioner.smooth"),
    ("preconditioner", "TwoGridPreconditioner", "coarse_correct",
     "preconditioner.coarse_correct"),
    ("preconditioner", "TwoGridPreconditioner", "apply",
     "preconditioner.apply"),
]


def _annotate_block_solvers(span, args, kwargs, result):
    overlap = kwargs.get("overlap", args[2] if len(args) > 2 else 0)
    span.attrs = {"overlap": int(overlap),
                  "unique_factors": len({id(bs.factor) for bs in result})}


def _annotate_factor(span, args, kwargs, result):
    span.attrs = {"lu_nnz": int(result.lu.nnz)}


def _annotate_pcg(span, args, kwargs, result):
    report = result[1]
    span.attrs = {"iterations": report.iterations,
                  "condition_estimate": report.condition_estimate}


def _annotate_build_space(span, args, kwargs, result):
    span.attrs = {"basis_dim": result.dim}


ANNOTATE = {
    "mixed_fem.block_solvers": _annotate_block_solvers,
    "sparse_linalg.factor": _annotate_factor,
    "sparse_linalg.pcg": _annotate_pcg,
    "coarse_space.build_space": _annotate_build_space,
}


class Tracer:
    """Span recorder; `names` limits which layers get wrapped (None: all)."""

    def __init__(self, names=None):
        self.names = names
        self.spans = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            self._close(record)

    def _open(self, name):
        record = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(record)
        record.start = time.perf_counter()
        return record

    def _close(self, record):
        record.end = time.perf_counter()
        self._stack.pop()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record.error = type(exc).__name__
                raise
            finally:
                tracer._close(record)
            if annotate is not None:
                annotate(record, args, kwargs, result)
            return result
        return traced

    def _wanted(self, name):
        return self.names is None or name in self.names

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "msflow" or
                                         key.startswith("msflow."))]
        for module, attr, name in FUNCTIONS:
            if not self._wanted(name):
                continue
            original = getattr(sys.modules["msflow." + module], attr)
            wrapper = self._wrap(name, original)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            if not self._wanted(name):
                continue
            cls = getattr(sys.modules["msflow." + module], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_time(span, spans):
    """Duration of `span` minus the time its direct children cover."""
    children = sum(s.duration for s in spans if s.parent is span)
    return span.duration - children
