"""Tests for the persistent worker pool and run_cells exception semantics.

Covers the contract documented in :mod:`repro.experiments.parallel`:

* a cell-function exception re-raises immediately — it does NOT trigger
  the blanket serial fallback (which would silently re-run every cell);
* only pool-infrastructure failures (unpicklable function, broken pool)
  fall back to the serial path;
* the shared context is visible identically on the serial and the
  parallel path, so ``workers=N`` returns exactly the ``workers=1`` rows;
* a persistent pool keeps its forked workers across maps with the same
  context object and only re-forks when the context changes.
"""

import pytest

from repro.experiments.parallel import WorkerPool, get_context, run_cells


def _record_and_square(cell):
    """Appends one byte per invocation, then squares (or explodes)."""
    with open(get_context()["log"], "a") as fh:
        fh.write("x")
    if cell.get("boom"):
        raise ValueError(f"cell {cell['i']} exploded")
    return cell["i"] ** 2


def _ctx_plus(cell):
    return get_context()["base"] + cell["x"]


def _ident(cell):
    return cell["i"]


def _payload_value(cell):
    value = cell["value"]
    return value() if callable(value) else value


class TestCellErrors:
    def test_cell_error_reraises_with_original_type(self, tmp_path):
        log = tmp_path / "calls.log"
        log.touch()
        cells = [{"i": i, "boom": i == 3} for i in range(6)]
        with pytest.raises(ValueError, match="cell 3 exploded"):
            run_cells(
                _record_and_square,
                cells,
                workers=2,
                context={"log": str(log)},
            )

    def test_cell_error_does_not_rerun_cells_serially(self, tmp_path):
        """The old behavior re-ran every cell in-process before re-raising.

        Each invocation appends one byte to the log (O_APPEND writes are
        atomic across the forked workers); a serial re-run would leave
        close to twice ``len(cells)`` bytes.
        """
        log = tmp_path / "calls.log"
        log.touch()
        cells = [{"i": i, "boom": i == 2} for i in range(8)]
        with pytest.raises(ValueError):
            run_cells(
                _record_and_square,
                cells,
                workers=2,
                context={"log": str(log)},
            )
        assert len(log.read_text()) <= len(cells)

    def test_cell_error_raises_on_serial_path_too(self, tmp_path):
        log = tmp_path / "calls.log"
        log.touch()
        cells = [{"i": i, "boom": i == 1} for i in range(4)]
        with pytest.raises(ValueError, match="cell 1 exploded"):
            run_cells(
                _record_and_square,
                cells,
                workers=1,
                context={"log": str(log)},
            )


class TestInfrastructureFallback:
    def test_unpicklable_fn_falls_back_to_serial(self):
        """A lambda cannot ship to a worker; the serial path still runs it."""
        results = run_cells(
            lambda cell: cell["i"] + 1,
            [{"i": i} for i in range(4)],
            workers=2,
        )
        assert results == [1, 2, 3, 4]

    def test_unpicklable_payload_falls_back_to_serial(self):
        cells = [{"value": (lambda i=i: i)} for i in range(3)]
        assert run_cells(_payload_value, cells, workers=2) == [0, 1, 2]

    def test_unpicklable_map_keeps_pool_healthy(self):
        """The pre-flight check runs serially without touching the workers.

        An unpicklable function must not poison the executor (feeding it
        to the pool would deadlock the queue-feeder thread); subsequent
        picklable maps still run through the pool.
        """
        with WorkerPool(2) as pool:
            pool.set_context({"base": 1})
            first = pool.map(lambda cell: cell["x"] * 10, [{"x": 1}, {"x": 2}])
            assert first == [10, 20]
            assert not pool._broken
            assert pool.map(_ctx_plus, [{"x": 1}, {"x": 2}]) == [2, 3]


class TestSharedContext:
    def test_serial_and_parallel_rows_identical(self):
        cells = [{"x": i} for i in range(8)]
        serial = run_cells(_ctx_plus, cells, workers=1, context={"base": 10})
        parallel = run_cells(_ctx_plus, cells, workers=2, context={"base": 10})
        assert serial == parallel == [10 + i for i in range(8)]

    def test_serial_path_restores_previous_context(self):
        assert get_context() is None
        run_cells(_ctx_plus, [{"x": 0}], workers=1, context={"base": 0})
        assert get_context() is None


class TestPersistentPool:
    def test_same_context_object_keeps_forked_workers(self):
        context = {"base": 5}
        with WorkerPool(2) as pool:
            first = run_cells(
                _ctx_plus, [{"x": 1}, {"x": 2}], context=context, pool=pool
            )
            executor = pool._executor
            second = run_cells(
                _ctx_plus, [{"x": 3}, {"x": 4}], context=context, pool=pool
            )
            # Same context object: the pool must not have re-forked.
            assert pool._executor is executor
        assert first == [6, 7]
        assert second == [8, 9]

    def test_context_change_reships_to_workers(self):
        with WorkerPool(2) as pool:
            low = run_cells(
                _ctx_plus, [{"x": 1}, {"x": 2}], context={"base": 0}, pool=pool
            )
            high = run_cells(
                _ctx_plus,
                [{"x": 1}, {"x": 2}],
                context={"base": 100},
                pool=pool,
            )
        assert low == [1, 2]
        assert high == [101, 102]

    def test_order_preserved_across_chunks(self):
        cells = [{"i": i} for i in range(23)]
        assert run_cells(_ident, cells, workers=3) == list(range(23))

    @pytest.mark.parametrize("start", [
        lambda: WorkerPool(-3),
        lambda: run_cells(_ident, [{"i": 0}, {"i": 1}], workers=-3),
    ], ids=["WorkerPool", "run_cells"])
    def test_negative_worker_count_is_rejected(self, start):
        """0 means one worker per CPU; below that is no count at all."""
        with pytest.raises(ValueError, match="workers must be non-negative, got -3"):
            start()
