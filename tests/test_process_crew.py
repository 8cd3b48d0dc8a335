"""One worker crew per process: what ``hooi(execution="process")`` runs borrow.

Without a caller's crew, a process run that pays for a crew borrows the
process's :data:`~repro.parallel.process_pool.PROCESS_CREW` of its width,
spawned by the first such run.  The slot replaces a crew that died, has
another width or was made before a fork; a run that finds the crew lent to
another run spawns a private one; the crew is closed at interpreter exit.
Every run here matches the sequential run to 1e-10, and none leaves a
``/dev/shm`` segment behind.  ``tests/conftest.py`` closes the crew after
every test.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import decompose
from repro.data import random_sparse_tensor
from repro.engine import backend
from repro.parallel.process_pool import PROCESS_CREW, PersistentWorkerCrew
from repro.parallel.shm import SHM_PREFIX

#: The crew's real break-even, read before ``every_job_on_the_crew`` pins it.
REAL_BREAK_EVEN_FLOPS = backend.CREW_BREAK_EVEN_FLOPS

pytestmark = [
    pytest.mark.skipif(os.name != "posix", reason="the worker crew requires POSIX"),
    # These tensors are below the crew's break-even; keep them on workers.
    pytest.mark.usefixtures("every_job_on_the_crew"),
]

RANK = 4
OPTIONS = dict(max_iterations=3, seed=0, trsvd_method="gram")
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def tensor():
    return random_sparse_tensor((40, 30, 20), 1500, seed=5)


def _segments():
    base = Path("/dev/shm")
    if not base.exists():
        return set()
    return {
        p.name for p in base.iterdir() if p.name.startswith(("psm_", f"{SHM_PREFIX}-"))
    }


def _process_run(tensor, num_workers=2, **kwargs):
    return decompose(
        tensor, RANK, execution="process", num_workers=num_workers, **OPTIONS, **kwargs
    )


def _assert_matches(result, reference):
    np.testing.assert_allclose(
        result.fit_history, reference.fit_history, rtol=0, atol=1e-10
    )
    for ours, ref in zip(result.decomposition.factors, reference.decomposition.factors):
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10)


def _crew_pids():
    return [w.pid for w in PROCESS_CREW.current().workers]


def _count_crews(monkeypatch) -> list:
    spawned = []
    original = PersistentWorkerCrew.__init__

    def counting(self, *args, **kwargs):
        spawned.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PersistentWorkerCrew, "__init__", counting)
    return spawned


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def test_runs_reuse_the_workers(tensor, monkeypatch):
    reference = decompose(tensor, RANK, **OPTIONS)
    spawned = _count_crews(monkeypatch)
    before = _segments()
    first = _process_run(tensor)
    pids = _crew_pids()
    second = _process_run(tensor)
    assert _crew_pids() == pids
    assert len(spawned) == 1 and PROCESS_CREW.current().generations == 2
    _assert_matches(first, reference)
    _assert_matches(second, reference)
    assert _segments() <= before


def test_killed_worker_crew_is_replaced_by_the_next_run(tensor):
    reference = decompose(tensor, RANK, **OPTIONS)
    before = _segments()
    _process_run(tensor)
    old = PROCESS_CREW.current()
    os.kill(old.workers[0].pid, signal.SIGKILL)
    old.workers[0].join(timeout=10)
    assert PROCESS_CREW.current() is None
    result = _process_run(tensor)
    assert set(_crew_pids()).isdisjoint(w.pid for w in old.workers)
    assert not any(w.is_alive() for w in old.workers)  # the dead crew is closed
    _assert_matches(result, reference)
    assert _segments() <= before


def test_run_of_another_width_gets_a_crew_of_that_width(tensor):
    reference = decompose(tensor, RANK, **OPTIONS)
    _process_run(tensor, num_workers=2)
    old = PROCESS_CREW.current()
    result = _process_run(tensor, num_workers=3)
    crew = PROCESS_CREW.current()
    assert crew.num_workers == 3 and len(crew.workers) == 3
    assert not any(w.is_alive() for w in old.workers)
    _assert_matches(result, reference)


def test_run_that_finds_the_crew_lent_spawns_a_private_one(tensor, monkeypatch):
    reference = decompose(tensor, RANK, **OPTIONS)
    spawned = _count_crews(monkeypatch)
    before = _segments()
    attached, other_done = threading.Event(), threading.Event()
    results = {}

    def hold_the_crew(iteration, fit):
        if iteration == 0:
            attached.set()
            assert other_done.wait(timeout=60)

    def first():
        try:
            results["first"] = _process_run(tensor, callback=hold_the_crew)
        except BaseException as exc:  # pragma: no cover - reported below
            results["first"] = exc
            attached.set()

    thread = threading.Thread(target=first)
    thread.start()
    try:
        assert attached.wait(timeout=60)
        pids = _crew_pids()
        results["second"] = _process_run(tensor)
    finally:
        other_done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(spawned) == 2  # the process crew, then the private one
    private = spawned[1]
    assert not any(w.is_alive() for w in private.workers)
    assert _crew_pids() == pids
    _assert_matches(results["first"], reference)
    _assert_matches(results["second"], reference)
    assert _segments() <= before


def _child_run(tensor, queue):
    result = _process_run(tensor)
    queue.put((_crew_pids(), result.fit_history))
    PROCESS_CREW.retire()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_forked_child_builds_its_own_crew(tensor):
    reference = decompose(tensor, RANK, **OPTIONS)
    _process_run(tensor)
    pids = _crew_pids()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_run, args=(tensor, queue))
    child.start()
    child_pids, fit_history = queue.get(timeout=120)
    child.join(timeout=60)
    assert child.exitcode == 0
    assert set(child_pids).isdisjoint(pids)
    assert _crew_pids() == pids  # the parent's crew is untouched
    np.testing.assert_allclose(fit_history, reference.fit_history, rtol=0, atol=1e-10)


def test_run_below_the_break_even_spawns_nothing(tensor, monkeypatch):
    monkeypatch.setattr(backend, "CREW_BREAK_EVEN_FLOPS", REAL_BREAK_EVEN_FLOPS)
    spawned = _count_crews(monkeypatch)
    reference = decompose(tensor, RANK, **OPTIONS)
    result = _process_run(tensor)
    assert spawned == [] and PROCESS_CREW.current() is None
    assert result.fit_history == reference.fit_history


EXIT_SCRIPT = """
import atexit

if __name__ == "__main__":
    crews = []
    # Registered before repro is imported, so it runs after the crew's own
    # exit hook: a clean stop leaves every worker with exit code 0.
    atexit.register(
        lambda: print("exit codes", *[w.exitcode for c in crews for w in c.workers])
    )
    from repro import decompose
    from repro.data import random_sparse_tensor
    from repro.engine import backend
    from repro.parallel.process_pool import PROCESS_CREW

    backend.CREW_BREAK_EVEN_FLOPS = 0
    tensor = random_sparse_tensor((40, 30, 20), 1500, seed=5)
    for _ in range(2):
        decompose(tensor, 4, execution="process", num_workers=2, max_iterations=2)
    crews.append(PROCESS_CREW.current())
    print("pids", *[w.pid for w in crews[0].workers])
"""


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_process_exits_with_no_child_and_no_tracker_output(tmp_path, start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} is not available")
    script = tmp_path / "run_twice.py"
    script.write_text(EXIT_SCRIPT)
    env = dict(os.environ, REPRO_PROCESS_START_METHOD=start_method)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    before = _segments()
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = dict(line.split(" ", 1) for line in done.stdout.splitlines())
    pids = [int(p) for p in lines["pids"].split()]
    assert len(pids) == 2
    assert lines["exit"] == "codes 0 0"
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(pid) for pid in pids)
    assert "resource_tracker" not in done.stderr
    assert "leaked" not in done.stderr
    assert _segments() <= before
