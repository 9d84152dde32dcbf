"""Tests for the terminal plotting helpers."""

import pytest

from repro.experiments import cdf_table, sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1.0, 2.0, 3.0])) == 3

    def test_resamples_to_width(self):
        assert len(sparkline(range(100), width=10)) == 10

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(set(line)) == 1

    def test_extremes_use_extreme_blocks(self):
        line = sparkline([0.0, 10.0])
        assert line[0] < line[1]

    def test_empty(self):
        assert sparkline([]) == ""


class TestCdfTable:
    def test_has_header_and_rows(self):
        table = cdf_table({"x": [1, 2, 3]}, points=3)
        lines = table.splitlines()
        assert "pctl" in lines[0]
        assert len(lines) == 2 + 3

    def test_percentiles_monotone(self):
        table = cdf_table({"x": list(range(100))}, points=5)
        values = [
            float(line.split()[-1]) for line in table.splitlines()[2:]
        ]
        assert values == sorted(values)

    def test_empty(self):
        assert cdf_table({}) == "(no data)"
