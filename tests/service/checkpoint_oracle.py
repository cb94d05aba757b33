"""Reference oracle for the service: grow the run by checkpoint restore.

:class:`CheckpointRestoreService` is :class:`SchedulingService` with the
earlier per-event algorithm swapped back in.  On every admitted arrival
it copies every queue into a new :class:`Instance`, checkpoints the live
runtime, and restores the checkpoint into the grown instance; idle gaps
are skipped through :meth:`KernelCheckpoint.at_step`; the step limit is
recomputed with :func:`default_step_limit`; and new completions are
found by rescanning the whole completion table.  Each event therefore
costs time proportional to the history, which is why it lives here as a
test oracle and not in the library.  The in-place engine must match it
bit for bit.
"""

from repro.core import Instance, checkpoint_run, restore_runtime, run_kernel
from repro.core.simulator import default_step_limit
from repro.service import SchedulingService


class CheckpointRestoreService(SchedulingService):
    """The service, advanced and extended through checkpoint restores."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._logged: set[tuple[int, int]] = set()

    def _advance(self, target: int) -> None:
        if self._runtime is not None:
            finished = run_kernel(
                self._runtime,
                self._policy,
                (self._recorder,),
                max_steps=default_step_limit(self._runtime.instance) + target + 16,
                stop=lambda rt: rt.t >= target,
            )
            if finished is not None and finished < target:
                ckpt = checkpoint_run(self._runtime).at_step(target)
                self._runtime = restore_runtime(ckpt)
        self._clock = target
        self._log_new_completions()

    def _log_new_completions(self) -> None:
        fresh = [
            (t, i, j)
            for (i, j), t in self._recorder.completion_steps.items()
            if (i, j) not in self._logged
        ]
        for t, i, j in sorted(fresh):
            self._logged.add((i, j))
            self._records.append(
                {"type": "completion", "t": t, "queue": i, "index": j}
            )

    def _extend(self, job, queue_index: int, at: int) -> None:
        if self._runtime is None:
            instance = Instance([[job]], releases=[at])
            ckpt = checkpoint_run(self._new_runtime(instance))
            self._runtime = restore_runtime(ckpt.at_step(at))
            return
        old = self._runtime.instance
        queues = [list(queue) for queue in old.queues]
        releases = list(old.releases)
        if queue_index == len(queues):
            queues.append([job])
            releases.append(at)
        else:
            queues[queue_index].append(job)
        grown = Instance(queues, releases=releases)
        ckpt = checkpoint_run(self._runtime)
        self._runtime = restore_runtime(ckpt, instance=grown)
