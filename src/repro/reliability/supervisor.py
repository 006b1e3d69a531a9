"""Supervised process-pool execution.

``ProcessPoolExecutor`` has a brutal failure mode: one worker dying
(OOM kill, segfault in a native extension, ``os._exit``) breaks the
*whole* pool -- every outstanding future raises ``BrokenProcessPool``
and the work is lost.  :class:`SupervisedPool` wraps the executor with
the supervision policy the engine wants instead:

* results stream back as they complete (unordered, tagged with the
  payload index);
* on a broken pool the executor is rebuilt and only the *unfinished*
  payloads are resubmitted -- completed results are never recomputed,
  so side effects (stats, yields) stay exactly-once;
* a per-task wall-clock watchdog treats "no completion within
  ``task_timeout`` seconds" as a hang and restarts the pool the same
  way;
* both are bounded by ``max_restarts``; past the budget
  :class:`~repro.reliability.errors.WorkerCrash` is raised and the
  caller picks its terminal degradation (the engine falls back to the
  serial path and counts it).

Exceptions *raised by the task itself* are not supervision events: they
propagate to the caller unchanged, exactly as with a bare executor.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from .errors import WorkerCrash


class _WatchdogTimeout(Exception):
    """Internal: no task completed within the watchdog window."""


#: Seconds an abandoned worker gets to exit after ``terminate`` before
#: it is killed.
_TERMINATE_GRACE = 1.0


def _shutdown(executor: ProcessPoolExecutor, abandon: bool) -> None:
    """Shut ``executor`` down; with ``abandon``, end its workers too.

    ``shutdown(wait=False)`` alone leaves a hung worker running, and
    interpreter exit then blocks joining it.  An abandoned executor's
    workers are terminated, and killed if still alive after a short
    join, so no worker outlives :meth:`SupervisedPool.run`.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # Python < 3.9 signature
        executor.shutdown(wait=False)
    if not abandon:
        return
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(_TERMINATE_GRACE)
        if process.is_alive():
            process.kill()
            process.join()


class SupervisedPool:
    """Run payloads through a worker function under supervision.

    Attributes:
        crashes: Worker-death events observed (``BrokenProcessPool``).
        hangs: Watchdog expirations observed.
        restarts: Executor rebuilds performed (``crashes + hangs``).
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        *,
        max_workers: int,
        max_restarts: int = 2,
        task_timeout: Optional[float] = None,
        on_crash: Optional[Callable[[str], None]] = None,
        executor_factory: Callable[..., ProcessPoolExecutor] = ProcessPoolExecutor,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive when given")
        self._worker = worker
        self._max_workers = max_workers
        self._max_restarts = max_restarts
        self._task_timeout = task_timeout
        self._on_crash = on_crash
        self._factory = executor_factory
        self.crashes = 0
        self.hangs = 0
        self.restarts = 0

    def run(self, payloads: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` pairs, unordered, exactly once each.

        Raises :class:`WorkerCrash` once crashes/hangs exceed
        ``max_restarts``; task-level exceptions propagate unchanged.
        """
        pending = dict(enumerate(payloads))
        while pending:
            executor = self._factory(
                max_workers=min(self._max_workers, len(pending))
            )
            kind: Optional[str] = None
            finished = False
            try:
                try:
                    futures = {
                        executor.submit(self._worker, payload): index
                        for index, payload in pending.items()
                    }
                    not_done = set(futures)
                    while not_done:
                        done, not_done = wait(
                            not_done,
                            timeout=self._task_timeout,
                            return_when=FIRST_COMPLETED,
                        )
                        if not done:
                            raise _WatchdogTimeout()
                        for future in done:
                            index = futures[future]
                            result = future.result()
                            del pending[index]
                            yield index, result
                    finished = True
                    return
                except BrokenProcessPool:
                    kind = "crash"
                    self.crashes += 1
                except _WatchdogTimeout:
                    kind = "hang"
                    self.hangs += 1
            finally:
                _shutdown(executor, abandon=not finished)
            self.restarts += 1
            if self._on_crash is not None:
                self._on_crash(kind or "crash")
            if self.restarts > self._max_restarts:
                raise WorkerCrash(
                    f"pool exceeded restart budget ({self._max_restarts}) "
                    f"after {self.crashes} crash(es) and {self.hangs} hang(s); "
                    f"{len(pending)} task(s) unfinished"
                )


__all__ = ["SupervisedPool"]
