"""Deterministic process-parallel execution of independent experiment cells.

Every sweep in the experiment layer — the static (workload × SLA × scheme)
grid, the offline profiling load sweep, the interference provisioner
search, the δ sweep — evaluates *independent* simulation cells: each cell
carries its own seed and shares no state with its neighbours.  That makes
them embarrassingly parallel, and — because a cell's result is a pure
function of its payload plus the sweep's shared context — exactly
reproducible: a ``workers=N`` run returns the same values as
``workers=1``, cell for cell.

Two primitives:

* :class:`WorkerPool` — a persistent process pool with a *shared
  read-only context*.  The context (application object, specs, profiles,
  allocation tables — everything constant across a sweep) is shipped to
  each worker exactly **once**, through the fork initializer; per-cell
  payloads then shrink to index-plus-scalar dicts.  One pool is reused
  across every ``run_cells`` call of a ``compare``/``trace-sim`` run;
  the executor is only re-forked when the context actually changes.
* :func:`run_cells` — maps a *top-level, picklable* function over a list
  of cell payloads, preserving input order.  It runs serially when
  parallelism is not worth it (one worker, one cell) and falls back to
  the serial path only when the *pool infrastructure* is unavailable
  (sandboxes without ``fork``/semaphores, unpicklable payloads, a broken
  pool).  An exception raised by the cell function itself is a real
  error: it re-raises immediately, exactly as the serial path would —
  it does NOT trigger a silent serial re-run of every cell.

Cell functions read the shared context via :func:`get_context`; the
serial path installs the same context in-process, so a cell function is
written once and behaves identically everywhere.
"""

from __future__ import annotations

import functools
import os
import pickle
import traceback
from typing import Any, Callable, List, Optional, Sequence, TypeVar

Cell = TypeVar("Cell")
Result = TypeVar("Result")

__all__ = ["WorkerPool", "default_workers", "get_context", "run_cells"]


def default_workers() -> int:
    """Worker count used for ``workers=0``: one per CPU."""
    return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Shared read-only context
# ----------------------------------------------------------------------
#: The per-process shared context.  In a pool worker it is installed once
#: by the fork initializer; on the serial path it is installed around the
#: map call.  Treat it as read-only: it is *copied* into workers, so
#: mutations would silently diverge between processes.
_CONTEXT: Any = None


def get_context() -> Any:
    """The sweep-wide shared context visible to the running cell function."""
    return _CONTEXT


def _install_context(context: Any) -> None:
    global _CONTEXT
    _CONTEXT = context


def _init_worker(context: Any) -> None:
    """Fork initializer: receives the shared context once per worker."""
    _install_context(context)


# ----------------------------------------------------------------------
# Cell-error transport
# ----------------------------------------------------------------------
class _CellFailure:
    """An exception raised by the cell function inside a worker.

    Wrapped so it travels back as an ordinary *result*: the parent then
    re-raises the original exception immediately, and pool-infrastructure
    errors (which surface as exceptions from ``executor.map`` itself)
    remain distinguishable from cell errors.
    """

    __slots__ = ("error", "worker_traceback")

    def __init__(self, error: BaseException, worker_traceback: str) -> None:
        self.error = error
        self.worker_traceback = worker_traceback


def _guarded(fn: Callable[[Cell], Result], cell: Cell):
    """Run one cell, converting cell exceptions into :class:`_CellFailure`."""
    try:
        return fn(cell)
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        return _CellFailure(exc, traceback.format_exc())


def _raise_cell_failure(failure: _CellFailure) -> None:
    error = failure.error
    if hasattr(error, "add_note"):  # 3.11+
        error.add_note(
            "raised inside a pool worker; worker traceback:\n"
            + failure.worker_traceback
        )
    raise error


def _pool_errors() -> tuple:
    """Exception classes that mean *the pool* failed, not the cell."""
    from concurrent.futures import BrokenExecutor

    return (
        OSError,  # no fork / no POSIX semaphores (restricted sandboxes)
        PermissionError,
        BrokenExecutor,  # includes BrokenProcessPool
        pickle.PicklingError,
        AttributeError,  # fn not importable from the worker (not top-level)
        TypeError,  # unpicklable payload objects
        RuntimeError,  # e.g. missing __main__ guard on some start methods
    )


def _run_serial(
    fn: Callable[[Cell], Result], cells: Sequence[Cell], context: Any
) -> List[Result]:
    """In-process reference path; installs the same context the pool would."""
    previous = _CONTEXT
    _install_context(context)
    try:
        return [fn(cell) for cell in cells]
    finally:
        _install_context(previous)


# ----------------------------------------------------------------------
# Persistent pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A persistent process pool with a shared read-only context.

    The pool survives across ``map`` calls (and across whole sweeps), so
    worker start-up and context shipping amortize over an entire
    ``compare``/``trace-sim`` run.  The executor is created lazily and
    re-forked only when :meth:`set_context` installs a *different*
    context object — identical context objects are free.

    Args:
        workers: Process count (``0`` = one per CPU).
        measure: Record per-map dispatch statistics (payload bytes) in
            :attr:`last_map_stats`; costs one extra pickle per payload,
            so it is off by default and only used by benchmarks.
    """

    def __init__(self, workers: int = 0, measure: bool = False) -> None:
        self.workers = workers if workers > 0 else default_workers()
        self.measure = measure
        #: Statistics of the most recent parallel map (measure=True only):
        #: ``{"cells": int, "payload_bytes": int, "chunksize": int}``.
        self.last_map_stats: Optional[dict] = None
        self._context: Any = None
        self._executor = None
        self._broken = False

    # -- context ----------------------------------------------------
    def set_context(self, context: Any) -> None:
        """Install the shared context, re-forking workers only on change."""
        if context is self._context:
            return
        self._context = context
        self._shutdown_executor()

    @property
    def context(self) -> Any:
        return self._context

    # -- lifecycle --------------------------------------------------
    def _shutdown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _ensure_executor(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self._context,),
            )
        return self._executor

    def close(self) -> None:
        """Shut the workers down; the pool can be mapped again (re-forks)."""
        self._shutdown_executor()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- mapping ----------------------------------------------------
    def map(
        self,
        fn: Callable[[Cell], Result],
        cells: Sequence[Cell],
    ) -> List[Result]:
        """``[fn(cell) for cell in cells]``, order-preserving.

        Cells are dispatched in chunks (enough for ~4 per worker) so tiny
        payloads do not drown in per-task IPC overhead.  An exception
        raised *by the cell function* re-raises immediately (no serial
        re-run); only pool-infrastructure failures fall back to the
        serial path.
        """
        cells = list(cells)
        if not cells:
            return []
        if self.workers <= 1 or len(cells) <= 1 or self._broken:
            return _run_serial(fn, cells, self._context)

        chunksize = max(1, -(-len(cells) // (self.workers * 4)))
        # Pre-flight: everything about to be enqueued must pickle.  An
        # unpicklable function or payload dies inside the executor's
        # queue-feeder thread, after which ``shutdown(wait=True)`` can
        # deadlock joining the manager thread — so verify up front and
        # run serially instead.  The pool itself stays healthy for later
        # maps; the pickle pass doubles as the payload measurement.
        try:
            pickle.dumps(functools.partial(_guarded, fn))
            payload_bytes = sum(len(pickle.dumps(cell)) for cell in cells)
        except Exception:
            if self.measure:
                self.last_map_stats = {
                    "cells": len(cells),
                    "payload_bytes": -1,
                    "chunksize": chunksize,
                }
            return _run_serial(fn, cells, self._context)
        if self.measure:
            self.last_map_stats = {
                "cells": len(cells),
                "payload_bytes": payload_bytes,
                "chunksize": chunksize,
            }
        try:
            executor = self._ensure_executor()
            results = list(
                executor.map(
                    functools.partial(_guarded, fn), cells, chunksize=chunksize
                )
            )
        except _pool_errors():
            # The pool could not run this workload; the serial path always
            # can.  Mark the pool broken so later maps skip straight to it.
            self._broken = True
            try:
                self._shutdown_executor()
            except Exception:  # pragma: no cover - best-effort cleanup
                self._executor = None
            return _run_serial(fn, cells, self._context)

        for result in results:
            if isinstance(result, _CellFailure):
                _raise_cell_failure(result)
        return results


# ----------------------------------------------------------------------
# One-shot helper
# ----------------------------------------------------------------------
def run_cells(
    fn: Callable[[Cell], Result],
    cells: Sequence[Cell],
    workers: int = 1,
    *,
    context: Any = None,
    pool: Optional[WorkerPool] = None,
) -> List[Result]:
    """Evaluate ``fn`` over ``cells``, order-preserving, optionally parallel.

    Args:
        fn: A **module-level** function (it must pickle) taking one cell
            payload.  For determinism the payload (plus the shared
            context) must carry everything the cell needs, including its
            RNG seed.  Inside ``fn``, :func:`get_context` returns the
            shared context on both the serial and the parallel path.
        cells: Cell payloads; results come back in the same order.
        workers: Process count.  ``<= 1`` runs serially in-process;
            ``0`` means "one per CPU" (:func:`default_workers`).
            Ignored when ``pool`` is given.
        context: Shared read-only context for this map.  ``None`` keeps
            the pool's current context (or no context).
        pool: A persistent :class:`WorkerPool` to reuse; worker start-up
            and context shipping then amortize across calls.

    Returns:
        ``[fn(cell) for cell in cells]`` — by construction the parallel
        path returns exactly this, so serial and parallel runs are
        interchangeable.

    Raises:
        Whatever ``fn`` raises, immediately, on both paths.  Only pool-
        infrastructure failures are absorbed by the serial fallback.
    """
    cells = list(cells)
    if pool is not None:
        if context is not None:
            pool.set_context(context)
        return pool.map(fn, cells)
    if workers == 0:
        workers = default_workers()
    if workers <= 1 or len(cells) <= 1:
        return _run_serial(fn, cells, context)
    with WorkerPool(min(workers, len(cells))) as ephemeral:
        ephemeral.set_context(context)
        return ephemeral.map(fn, cells)
