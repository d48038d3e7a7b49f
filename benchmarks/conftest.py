"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures from
the paper-scale world, asserts its shape matches the paper's reported
numbers, and writes a paper-vs-measured comparison table under
``benchmarks/results/`` (the source for ``EXPERIMENTS.md``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.simulation import World, paper_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def world() -> World:
    """The paper-scale world, shared across all benchmarks."""
    return World(paper_scenario())


@pytest.fixture(scope="session")
def record_result():
    """Write a named result file and echo it to stdout."""

    def _record(name: str, text: str) -> str:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to {path}]")
        return str(path)

    return _record
