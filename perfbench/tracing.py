"""Layer spans for the traced benchmark run.

The benchmark attributes time to the library's layers without touching
``src/``: :func:`layer_patches` lists wrappers that replace a public
function or method *where its caller looks it up* (a module attribute
or a class attribute), and :func:`installed` swaps them in for the
duration of a ``with`` block and restores the originals afterwards.

Every wrapper records one span (name, start, end, parent span, op
index) in memory.  A layer's self time is its span's duration minus
the time of the spans nested inside it, so the self times of all
layers add up to the time spent inside the outermost spans.  Wrappers
only time and count: arguments and results pass through untouched, so
traced runs produce bit-identical outputs (the harness checks this).
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: The span names of the workloads' op entry points (``BatchRunner.run``,
#: ``LocalSearchSequencer.sequence``, ``certify_opt`` and
#: ``SchedulingService.submit``).  Each op is one call of one of these,
#: so their spans cover op time by construction; ``trace.coverage``
#: counts only the layers below them.
ENTRY_LAYERS = frozenset(
    {"backends.batch.run", "sequencing", "analysis.certify", "service.engine"}
)


class Tracer:
    """In-memory span store with per-layer self time, calls and counters.

    Attributes:
        self_s: layer name -> summed self seconds.
        calls: layer name -> number of spans.
        counts: counter name -> summed value (work counts reported by
            the layers' results, e.g. branch-and-bound nodes).
        last: gauge name -> last value seen (e.g. checkpoint size).
        op: index of the op in flight, or -1 between ops.
        inner_in_op: self seconds of the layers below the workloads'
            entry points (:data:`ENTRY_LAYERS`) while an op was in
            flight: the part of op time a named inner layer accounts
            for.  Time no inner span covers stays in the entry point's
            self time and lowers it.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, object] = {}
        self.op = -1
        self.inner_in_op = 0.0
        self._stack: list[list] = []
        self._names: dict[str, int] = {}
        self._id = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._op = array("q")
        self._t0 = array("d")
        self._t1 = array("d")

    def wrap(self, name: str, fn, after=None):
        """Return *fn* wrapped in a span called *name*.

        *after*, if given, is called as ``after(result, *args,
        **kwargs)`` once the span has closed, to read work counts off
        the result without timing them.
        """
        code = self._names.setdefault(name, len(self._names))
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        inner = name not in ENTRY_LAYERS

        def traced(*args, **kwargs):
            sid = len(self._t0) + len(stack)
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if inner and self.op >= 0:
                    self.inner_in_op += duration - frame[1]
                self._id.append(sid)
                self._parent.append(parent)
                self._name.append(code)
                self._op.append(self.op)
                self._t0.append(t0)
                self._t1.append(t1)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span to a compressed ``.npz`` file at *path*.

        Spans are stored in the order they closed.  ``id`` numbers
        spans in the order they opened; ``parent`` holds the id of the
        enclosing span (-1 for an outermost one), ``name`` an index into
        ``names``, ``op`` the op index (-1 outside ops), and ``t0``/``t1``
        perf-counter seconds.
        """
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(sorted(self._names, key=self._names.get)),
            id=np.asarray(self._id, dtype=np.int64),
            parent=np.asarray(self._parent, dtype=np.int64),
            name=np.asarray(self._name, dtype=np.int32),
            op=np.asarray(self._op, dtype=np.int64),
            t0=np.asarray(self._t0),
            t1=np.asarray(self._t1),
        )


class ObserverProxy:
    """A kernel step observer whose callbacks are timed by a :class:`Tracer`."""

    def __init__(self, observer, tracer: Tracer) -> None:
        self.wrapped = observer
        self.on_step = tracer.wrap("core.kernel.observers", observer.on_step)
        self.on_complete = tracer.wrap(
            "core.kernel.observers", observer.on_complete
        )
        self.on_finish = tracer.wrap("core.kernel.observers", observer.on_finish)

    def __getattr__(self, name):
        return getattr(self.wrapped, name)


def layer_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every traced layer boundary.

    Owners are the modules or classes the library's callers read the
    attribute from at call time, so one patch covers every call made
    through that site.
    """
    import repro.algorithms as algorithms
    import repro.algorithms.opt_order as opt_order
    import repro.analysis.certify as certify
    import repro.backends.batch as batch
    import repro.backends.batched as batched
    import repro.backends.exact as exact
    import repro.backends.vector as vector
    import repro.core.kernel as kernel
    import repro.core.simulator as simulator
    import repro.sequencing.local_search as local_search
    import repro.service.admission as admission
    import repro.service.engine as engine

    wrap = tracer.wrap
    patches: list[tuple[object, str, object]] = []

    # Share methods are timed on the concrete policy classes, so every
    # engine sees the policy's own type (the compiled tier dispatches on
    # it) and every caller, however it resolved the policy, is covered.
    for cls in _subclasses(algorithms.Policy):
        for method in ("shares", "shares_array", "shares_batch"):
            if method in vars(cls):
                patches.append(
                    (cls, method, wrap(f"algorithms.{method}", vars(cls)[method]))
                )

    def count_step(*_):
        tracer.counts["core.kernel.steps"] += 1

    rt = vector.VectorRuntime
    patches += [
        (rt, "__init__", wrap("backends.vector.runtime_init", rt.__init__)),
        (rt, "check", wrap("backends.vector.check", rt.check)),
        (rt, "apply", wrap("backends.vector.apply", rt.apply, count_step)),
        (
            vector.VectorBackend,
            "run",
            wrap("backends.vector.run", vector.VectorBackend.run),
        ),
        (
            kernel.ExactRuntime,
            "apply",
            wrap("core.kernel.exact_apply", kernel.ExactRuntime.apply, count_step),
        ),
    ]

    run_kernel = kernel.run_kernel

    def run_kernel_traced(runtime, policy, observers=(), **kwargs):
        observers = tuple(ObserverProxy(obs, tracer) for obs in observers)
        return run_kernel(runtime, policy, observers, **kwargs)

    run_kernel_span = wrap("core.kernel.run_kernel", run_kernel_traced)
    for module in (vector, exact, simulator, engine, local_search):
        patches.append((module, "run_kernel", run_kernel_span))

    step_limit = wrap(
        "core.simulator.default_step_limit", simulator.default_step_limit
    )
    patches += [
        (simulator, "default_step_limit", step_limit),
        (engine, "default_step_limit", step_limit),
        (
            simulator,
            "run_policy",
            wrap("core.simulator.run_policy", simulator.run_policy),
        ),
    ]

    def keep_checkpoint(ckpt, *_args, **_kwargs):
        tracer.last["core.checkpoint.last"] = ckpt

    checkpoint_run = wrap(
        "core.checkpoint.checkpoint_run", engine.checkpoint_run, keep_checkpoint
    )
    patches += [
        (engine, "checkpoint_run", checkpoint_run),
        (local_search, "checkpoint_run", checkpoint_run),
        (
            engine,
            "restore_runtime",
            wrap("core.checkpoint.restore_runtime", engine.restore_runtime),
        ),
    ]

    def live_jobs(instance, *_args, **_kwargs):
        tracer.last["service.instance_jobs"] = instance.total_jobs

    # The service is the only caller that builds instances per event;
    # generators and the sequencer build theirs elsewhere on purpose.
    patches.append(
        (engine, "Instance", wrap("core.instance.init", engine.Instance, live_jobs))
    )

    def batch_counts(result, *_args, **_kwargs):
        tracer.counts["backends.batched.lanes_x_steps"] += result.lanes * result.steps
        tracer.counts["backends.batched.lane_steps"] += result.lane_steps
        tracer.counts["backends.batched.compactions"] += result.compactions

    patches.append(
        (
            batched,
            "run_batch",
            wrap("backends.batched.run_batch", batched.run_batch, batch_counts),
        )
    )

    def search_counts(_result, sequencer, *_args, **_kwargs):
        stats = sequencer.last_stats
        for key in ("evaluations", "cache_hits", "accepted", "rejected"):
            tracer.counts[f"sequencing.{key}"] += stats[key]

    seq_cls = local_search.LocalSearchSequencer
    patches.append(
        (seq_cls, "sequence", wrap("sequencing", seq_cls.sequence, search_counts))
    )

    def certify_counts(cert, *_args, **_kwargs):
        for key in ("nodes", "pruned", "leaf_evaluations", "bound_calls"):
            tracer.counts[f"analysis.certify.{key}"] += getattr(cert, key)

    patches += [
        (
            certify,
            "certify_opt",
            wrap("analysis.certify", certify.certify_opt, certify_counts),
        ),
        (
            opt_order,
            "exact_order_makespan",
            wrap("algorithms.exact_order_makespan", opt_order.exact_order_makespan),
        ),
    ]

    submit = engine.SchedulingService.submit

    def submit_counted(service, event):
        before = tracer.counts["core.kernel.steps"]
        decision = submit(service, event)
        tracer.counts["service.steps_advanced"] += (
            tracer.counts["core.kernel.steps"] - before
        )
        return decision

    patches.append(
        (engine.SchedulingService, "submit", wrap("service.engine", submit_counted))
    )
    for cls in _subclasses(admission.AdmissionPolicy):
        if "admit" in vars(cls):
            patches.append(
                (cls, "admit", wrap("service.admission.admit", cls.admit))
            )

    patches.append(
        (batch.BatchRunner, "run", wrap("backends.batch.run", batch.BatchRunner.run))
    )
    return patches


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


@contextlib.contextmanager
def installed(patches):
    """Apply ``(owner, attribute, replacement)`` patches within the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
