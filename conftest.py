"""Fixtures shared by the test suite (``tests/``) and the benchmarks."""

from __future__ import annotations

import pytest


@pytest.fixture
def every_job_on_the_crew(monkeypatch):
    """Send every process job to the worker crew, however small.

    Below :data:`repro.engine.backend.CREW_BREAK_EVEN_FLOPS` of TTMc work
    per sweep, ``decompose(execution="process")`` and the service run a
    job inline.  Modules that exist to exercise the crew — spawn, arena,
    crew reuse, crash retry, breaker — do so on small tensors, so they set
    the break-even to 0 and keep every process job on real workers.
    """
    from repro.engine import backend

    monkeypatch.setattr(backend, "CREW_BREAK_EVEN_FLOPS", 0)
