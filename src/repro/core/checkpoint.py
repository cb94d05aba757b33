"""Snapshot / resume for kernel runs (the checkpoint layer).

A :class:`KernelCheckpoint` freezes a run at a clean step boundary:
the remaining work of every active job, the per-resource spent
ledgers, the step counter, and the state of any stateful observers
(:meth:`repro.core.kernel.StepObserver.capture_state`).  Restoring it
yields a runtime that continues **bit-identically** to the
uninterrupted run on both backends -- the round-trip suite in
``tests/core/test_checkpoint.py`` pins this across every policy,
``k``, arrivals, weights and deadlines.

Checkpoints serialize to JSON (rationals as exact ``"p/q"`` strings,
floats via ``repr`` round-tripping) with a format/version tag and a
SHA-256 digest; corrupted or version-skewed documents raise the typed
:class:`~repro.exceptions.CheckpointError` instead of restoring
garbage.

Suspend-and-resume composes with :func:`~repro.core.kernel.run_kernel`
through its ``stop`` predicate:

    >>> from repro.core import ExactRuntime, Instance, run_kernel
    >>> from repro.algorithms import GreedyBalance
    >>> inst = Instance.from_percent([[50, 50], [50, 50]])
    >>> live = ExactRuntime(inst)
    >>> run_kernel(live, GreedyBalance(), stop=lambda rt: rt.t >= 1)
    >>> ckpt = checkpoint_run(live)          # suspended after one step
    >>> doc = ckpt.to_json()                 # fully serializable
    >>> resumed = restore_runtime(KernelCheckpoint.from_json(doc))
    >>> run_kernel(resumed, GreedyBalance()) # continues to the end
    2

Beyond plain resume, a checkpoint may be restored into an **extended**
instance -- one whose queues grew at the tail and/or gained whole new
processors (with their own release times).  The runtimes' in-place
``extend`` (used per arrival by :mod:`repro.service`) reaches exactly
the state such a restore yields, without rebuilding it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

from ..exceptions import CheckpointError, InvalidInstanceError
from .instance import Instance

if TYPE_CHECKING:  # pragma: no cover - types only
    from .kernel import KernelRuntime, StepObserver

__all__ = [
    "KernelCheckpoint",
    "checkpoint_run",
    "restore_runtime",
    "restore_observers",
]

_FORMAT = "crsharing-checkpoint"
_VERSION = 1
#: Runtime kinds with a checkpoint implementation.
_KINDS = ("exact", "vector")


def _canonical(body: dict[str, Any]) -> str:
    """Canonical JSON of *body* minus the digest key (digest input)."""
    trimmed = {k: v for k, v in body.items() if k != "digest"}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))


def _digest(body: dict[str, Any]) -> str:
    """SHA-256 integrity digest over the canonical document."""
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class KernelCheckpoint:
    """A suspended kernel run, serializable and bit-identically resumable.

    Attributes:
        kind: the runtime family that produced the snapshot --
            ``"exact"`` (:class:`~repro.core.kernel.ExactRuntime`) or
            ``"vector"``
            (:class:`~repro.backends.vector.VectorRuntime`).  A
            checkpoint only restores into the same kind; the two
            arithmetics are deliberately not interchangeable mid-run.
        instance: the instance the run was executing.
        state: the runtime-native mutable state (remaining work,
            resource ledgers, release masks, step counter) as produced
            by the runtime's ``capture()``.
        observers: one captured payload per observer handed to
            :func:`checkpoint_run`, ``None`` for stateless observers.
    """

    kind: str
    instance: Instance
    state: dict[str, Any]
    observers: tuple[dict[str, Any] | None, ...] = ()

    @property
    def t(self) -> int:
        """The step counter at which the run was suspended."""
        return int(self.state["t"])

    def at_step(self, t: int) -> "KernelCheckpoint":
        """A copy fast-forwarded to step *t* (idle time skip).

        Only meaningful while the checkpointed workload is fully
        drained (or every described processor is idle): no work happens
        in the skipped steps, so the service's event engine jumps the
        clock to the next arrival instead of simulating empty steps.

        Raises:
            CheckpointError: if *t* would move the clock backwards.
        """
        if t < self.t:
            raise CheckpointError(
                f"cannot move the step counter backwards ({self.t} -> {t})"
            )
        state = dict(self.state)
        state["t"] = int(t)
        return replace(self, state=state)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Lossless, digest-protected dict form of the checkpoint."""
        from ..io.serialization import instance_to_dict  # io builds on core

        body: dict[str, Any] = {
            "format": _FORMAT,
            "version": _VERSION,
            "kind": self.kind,
            "instance": instance_to_dict(self.instance),
            "state": self.state,
            "observers": list(self.observers),
        }
        body["digest"] = _digest(body)
        return body

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KernelCheckpoint":
        """Inverse of :meth:`to_dict`, with integrity validation.

        Raises:
            CheckpointError: wrong format tag, unsupported version,
                digest mismatch (corruption), unknown runtime kind, or
                a malformed embedded instance document.
        """
        from ..io.serialization import instance_from_dict  # io builds on core

        if not isinstance(data, dict):
            raise CheckpointError(
                f"checkpoint document must be a dict, got {type(data).__name__}"
            )
        if data.get("format") != _FORMAT:
            raise CheckpointError(
                f"not a kernel checkpoint document: {data.get('format')!r}"
            )
        if data.get("version") != _VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {data.get('version')!r} "
                f"(this build reads version {_VERSION})"
            )
        digest = data.get("digest")
        if digest != _digest(data):
            raise CheckpointError(
                "checkpoint digest mismatch: the document was corrupted "
                "or edited after it was written"
            )
        kind = data.get("kind")
        if kind not in _KINDS:
            raise CheckpointError(
                f"unknown runtime kind {kind!r} (expected one of {_KINDS})"
            )
        try:
            instance = instance_from_dict(data["instance"])
        except InvalidInstanceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint carries a malformed instance: {exc}"
            ) from exc
        state = data.get("state")
        if not isinstance(state, dict) or "t" not in state:
            raise CheckpointError("checkpoint state payload is malformed")
        observers = data.get("observers", [])
        if not isinstance(observers, list):
            raise CheckpointError("checkpoint observer payload is malformed")
        return cls(
            kind=kind,
            instance=instance,
            state=state,
            observers=tuple(observers),
        )

    def to_json(self) -> str:
        """The checkpoint as a JSON string (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "KernelCheckpoint":
        """Parse and validate a :meth:`to_json` document.

        Raises:
            CheckpointError: on unparseable JSON or any
                :meth:`from_dict` validation failure.
        """
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise CheckpointError(f"unparseable checkpoint JSON: {exc}") from exc
        return cls.from_dict(data)


def checkpoint_run(
    runtime: "KernelRuntime",
    observers: Sequence["StepObserver"] = (),
) -> KernelCheckpoint:
    """Snapshot a (suspended or finished) kernel run.

    Call only at a step boundary -- after :func:`~repro.core.kernel.run_kernel`
    returned, normally or through its ``stop`` predicate.  *observers*
    are the observers the caller will also attach on resume, in the
    same order; stateless ones contribute ``None``.

    Raises:
        CheckpointError: if the runtime has no checkpoint support
            (no ``kind``/``capture`` contract).
    """
    kind = getattr(runtime, "kind", None)
    capture = getattr(runtime, "capture", None)
    if kind not in _KINDS or capture is None:
        raise CheckpointError(
            f"runtime {type(runtime).__name__} does not support "
            "checkpointing (expected an ExactRuntime or VectorRuntime)"
        )
    return KernelCheckpoint(
        kind=kind,
        instance=runtime.instance,
        state=capture(),
        observers=tuple(obs.capture_state() for obs in observers),
    )


def _require_extension(old: Instance, new: Instance) -> None:
    """Validate that *new* extends *old* without rewriting history.

    Every old queue must be a *prefix* of the corresponding new queue
    with an unchanged release time (appending at the tail is the only
    legal growth), and new processors may only be added after the old
    ones.  Anything else would make the checkpointed progress counters
    meaningless.

    Raises:
        CheckpointError: when *new* is not a valid extension.
    """
    if new.num_processors < old.num_processors:
        raise CheckpointError(
            f"extension dropped processors ({old.num_processors} -> "
            f"{new.num_processors})"
        )
    for i, queue in enumerate(old.queues):
        grown = new.queues[i]
        if len(grown) < len(queue) or grown[: len(queue)] != queue:
            raise CheckpointError(
                f"queue {i} of the extension does not keep the "
                "checkpointed jobs as a prefix"
            )
        if new.releases[i] != old.releases[i]:
            raise CheckpointError(
                f"extension changed the release time of processor {i} "
                f"({old.releases[i]} -> {new.releases[i]})"
            )


def restore_runtime(
    checkpoint: KernelCheckpoint,
    *,
    instance: Instance | None = None,
    observers: Sequence["StepObserver"] = (),
) -> "KernelRuntime":
    """Rebuild a runtime (and observer states) from a checkpoint.

    Args:
        checkpoint: the snapshot to restore.
        instance: optional **extension** of the checkpointed instance
            (old queues as prefixes, tail-appended jobs, optionally new
            processors with their own release times); ``None`` resumes
            the checkpointed instance itself.
        observers: fresh observers to restore captured state into, in
            :func:`checkpoint_run` order.  May be empty to resume
            without observers; otherwise the count must match.

    Returns:
        An :class:`~repro.core.kernel.ExactRuntime` or
        :class:`~repro.backends.vector.VectorRuntime` positioned exactly
        where the checkpointed run stopped; pass it straight back into
        :func:`~repro.core.kernel.run_kernel`.

    Raises:
        CheckpointError: unknown kind, invalid extension, or a state /
            observer payload that does not fit.
    """
    target = checkpoint.instance if instance is None else instance
    if target is not checkpoint.instance and target != checkpoint.instance:
        _require_extension(checkpoint.instance, target)
    if checkpoint.kind == "exact":
        from .kernel import ExactRuntime  # lazy: kernel imports nothing from here

        runtime: "KernelRuntime" = ExactRuntime(target)
    elif checkpoint.kind == "vector":
        from ..backends.vector import VectorRuntime  # lazy: avoid core->backends cycle

        runtime = VectorRuntime(
            target, tol=float(checkpoint.state.get("tol", 1e-9))
        )
    else:  # pragma: no cover - from_dict already rejects unknown kinds
        raise CheckpointError(f"unknown runtime kind {checkpoint.kind!r}")
    runtime.restore(checkpoint.state)
    restore_observers(checkpoint, observers)
    return runtime


def restore_observers(
    checkpoint: KernelCheckpoint, observers: Sequence["StepObserver"]
) -> None:
    """Restore captured observer states into fresh observer objects.

    A no-op for an empty *observers* sequence (resuming without
    observers is legal); otherwise the count must match the
    checkpoint's and each stateful payload is handed to the matching
    observer's ``restore_state``.

    Raises:
        CheckpointError: on an observer-count mismatch or a payload a
            stateless observer cannot accept.
    """
    observers = tuple(observers)
    if not observers:
        return
    if len(observers) != len(checkpoint.observers):
        raise CheckpointError(
            f"checkpoint captured {len(checkpoint.observers)} observer "
            f"state(s) but {len(observers)} observer(s) were supplied"
        )
    for obs, state in zip(observers, checkpoint.observers):
        if state is None:
            continue
        try:
            obs.restore_state(state)
        except NotImplementedError as exc:
            raise CheckpointError(str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"observer {type(obs).__name__} rejected its captured "
                f"state: {exc}"
            ) from exc
