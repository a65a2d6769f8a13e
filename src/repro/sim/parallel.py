"""Fleet-scale parallel simulation driver.

The evaluation layers run large numbers of *independent* tasks: one
seeded simulation per scenario (:func:`parallel_map` directly).  Each
task is self-contained and carries its own seed, so the fan-out is
embarrassingly parallel — this module spreads it across worker
processes.  Population-scale fleets go through :func:`fleet_soa_rounds`,
which shards the network axis of a struct-of-arrays
:class:`~repro.sim.fleetsoa.FleetSpec` with :func:`shard_map` and ships
the shared read-only columns once per worker.  Any fan-out passes its
read-only invariants as ``parallel_map(..., shared=...)``.

Determinism contract
--------------------

Parallel execution is **bit-identical** to serial execution:

- no task ever shares RNG state — every stochastic task derives its own
  generator from an explicit seed (campaigns re-arm from ``campaign.seed``
  inside :meth:`~repro.sim.faults.FaultCampaign.run`; fan-outs of seeded
  replicas use :func:`derive_seeds`, which spawns independent
  ``SeedSequence`` children from one master seed);
- results are returned in task-submission order, never completion order;
- worker count and backend choice affect wall-clock only, never values.

One comparison caveat: results carrying NaN sentinels (e.g. the
``latency_s`` of a dropped event) are bit-identical across backends but
compare unequal under naive ``==`` because ``nan != nan`` — compare field
reprs (round-trip exact for floats) when asserting cross-backend identity.

The ``"serial"`` backend runs the identical task list in-process, which is
both the reference for the bit-identity tests and the fallback for
environments where process pools are unavailable.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import count
from multiprocessing.util import Finalize
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError

logger = logging.getLogger(__name__)

#: Supported execution backends.
BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class ParallelConfig:
    """How a task fan-out executes.

    Attributes:
        backend: ``"process"`` fans tasks across worker processes;
            ``"serial"`` runs them in-process (reference semantics).
        max_workers: Worker-process count; ``None`` uses the CPU count.
            It is also the shard count of :func:`shard_map`.
    """

    backend: str = "process"
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when given")

    def resolved_workers(self) -> int:
        """The actual worker count this configuration resolves to."""
        return self.max_workers or max(1, os.cpu_count() or 1)


#: In-process reference configuration (bit-identity baseline).
SERIAL = ParallelConfig(backend="serial")


#: ``SeedSequence`` hash and mix constants (``numpy/random/bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def derive_seeds(master_seed: int, n_tasks: int) -> List[int]:
    """Independent per-task seeds from one master seed.

    Returns, for every child ``k`` of ``SeedSequence(master_seed).spawn(
    n_tasks)``, ``child.generate_state(1, np.uint64)[0]`` as an ``int``.
    The derivation depends only on ``(master_seed, task_index)`` — never
    on worker assignment or completion order — so per-task RNG streams
    are identical however the tasks are scheduled.

    The children are computed in one vectorized pass rather than as
    ``n_tasks`` ``SeedSequence`` objects.  Child ``k``'s entropy is the
    root's (zero-padded to the four-word pool) followed by its spawn key
    ``k``, and the hash constants advance independently of the data, so
    every child shares the root's mixed pool and differs only in the last
    word mixed into it: a ``uint32`` column per child.
    """
    if n_tasks < 0:
        raise ConfigurationError("n_tasks must be >= 0")
    root = np.random.SeedSequence(int(master_seed))
    entropy_words = max(1, (int(master_seed).bit_length() + 31) // 32)
    # hashmix calls before the spawn key: 4 to fill the pool, 12 to mix
    # it, 4 per entropy word past the pool.
    calls = 16 + 4 * (max(entropy_words, root.pool_size) - root.pool_size)
    h = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    keys = np.arange(n_tasks, dtype=np.uint32)
    pool = []
    for word in root.pool:
        hashed = keys ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        hashed *= np.uint32(h)
        hashed ^= hashed >> 16
        mixed = np.uint32(_MIX_L * int(word) & _MASK32) - np.uint32(_MIX_R) * hashed
        mixed ^= mixed >> 16
        pool.append(mixed)
    # generate_state(1, np.uint64): two output words, low word first.
    h = _INIT_B
    halves = []
    for word in pool[:2]:
        out = word ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        out *= np.uint32(h)
        out ^= out >> 16
        halves.append(out.astype(np.uint64))
    return (halves[0] | halves[1] << np.uint64(32)).tolist()


#: Default of ``parallel_map(shared=)``: tasks take the item alone.
_UNSHARED: Any = object()

#: Seconds between a worker's checks that its parent is still alive.
_PARENT_POLL_S = 0.25

#: This process's live worker pool (created lazily, see :func:`_live_pool`).
_POOL: Optional[ProcessPoolExecutor] = None

#: Multiprocessing exit finalizer that shuts ``_POOL`` down in this process.
_POOL_EXIT: Optional[Finalize] = None

#: Worker-side cache of the latest fan-out's shared state as
#: ``(token, value)``.  Only :func:`_run_item` writes it, so it is
#: only ever set inside pool workers: the serial backend and the
#: worker-death retry hand ``shared`` to the task directly and the parent
#: process never holds fan-out state.
_WORKER_SHARED_STATE: Optional[Tuple[int, Any]] = None

#: Per-process call counter behind the shared-state tokens.
_SHARED_TOKENS = count()


def _forget_pool_in_child() -> None:
    """After fork: the parent's pool and shared state are not this process's."""
    global _POOL, _POOL_EXIT, _WORKER_SHARED_STATE
    _POOL = _POOL_EXIT = _WORKER_SHARED_STATE = None


os.register_at_fork(after_in_child=_forget_pool_in_child)


def _close_pool() -> None:
    """Shut this process's live pool down (no-op without one)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=True)


def _exit_with_parent(parent: int) -> None:
    """Worker thread: end the worker once its parent process is gone."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _watch_parent() -> None:
    """Pool initializer: a worker never outlives the process that made it."""
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()


def _pool_is_stale(pool: ProcessPoolExecutor) -> bool:
    """Whether a worker of ``pool`` died or the pool marked itself broken.

    Reads the executor's private ``_processes``/``_broken``: a worker
    killed between calls must not cost the next call a serial retry.
    """
    workers = list((pool._processes or {}).values())
    return any(not p.is_alive() for p in workers) or bool(pool._broken)


def _live_pool(workers: int) -> ProcessPoolExecutor:
    """This process's worker pool of ``workers`` processes.

    Created on first use and reused by every later call; replaced when
    the worker count changes or a worker has died.  The pool is shut
    down when the process exits.
    """
    global _POOL, _POOL_EXIT
    if _POOL is not None and (_POOL._max_workers != workers or _pool_is_stale(_POOL)):
        _close_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers, initializer=_watch_parent)
    if _POOL_EXIT is None:
        # At exit, multiprocessing runs finalizers by descending priority
        # and then joins the process's children, which would wait forever
        # on a live pool's idle workers.  Priority 100 runs this before
        # the pool's own queues close theirs (priority 10).
        _POOL_EXIT = Finalize(None, _close_pool, exitpriority=100)
    return _POOL


def parallel_map(
    func: Callable[..., Any],
    items: Sequence[Any],
    config: Optional[ParallelConfig] = None,
    shared: Any = _UNSHARED,
) -> List[Any]:
    """Apply ``func`` to every item, preserving item order in the result.

    Args:
        func: A module-level callable (worker processes import it by
            qualified name, so lambdas and closures are rejected by the
            pickle layer).
        items: Task inputs; each must be picklable under the process
            backend.
        config: Execution configuration; defaults to the process backend
            with one worker per CPU.
        shared: Optional read-only state common to every task.  When
            given (even as ``None``), tasks run as ``func(shared, item)``
            and the process backend pickles ``shared`` (so it must be
            picklable) once per call, tags it with a fresh token and
            unpickles it at most once per worker rather than once per
            task — use it for heavy invariants such as a fleet spec.  A
            worker keeps only the latest call's state, so no call ever
            sees an earlier call's ``shared``.

    The process backend runs on one worker pool per process, created on
    first use and reused by every later call with the same worker count
    (``min(config.resolved_workers(), len(items))``); a changed count or
    a pool with a dead worker is replaced, and the pool is shut down at
    exit.  Workers end on their own if the parent process dies.

    Worker-death recovery: a worker process that dies mid-task (OOM
    kill, segfault, ``os._exit``) no longer poisons the whole fan-out
    with an opaque ``BrokenProcessPool``.  Because every task is
    self-contained and carries its own derived seed, the tasks lost with
    the dead worker are simply re-executed serially in-process — with
    bit-identical results.  Each retried task logs a warning on this
    module's logger with ``task`` and ``workers`` extras.  A task that
    then fails *again* raises a :class:`~repro.errors.SimulationError`
    naming its index.  Ordinary exceptions raised by ``func`` inside a
    healthy worker propagate unchanged.

    Returns:
        ``[func(item) for item in items]`` (or ``func(shared, item)``) —
        same values, any backend.
    """
    config = config or ParallelConfig()
    items = list(items)
    bound: Tuple[Any, ...] = () if shared is _UNSHARED else (shared,)
    if not items:
        return []
    if config.backend == "serial":
        return [func(*bound, item) for item in items]
    workers = min(config.resolved_workers(), len(items))
    shipped = (
        (next(_SHARED_TOKENS), pickle.dumps(shared, pickle.HIGHEST_PROTOCOL))
        if bound
        else None
    )
    pool = _live_pool(workers)
    futures = []
    for item in items:
        try:
            futures.append(pool.submit(_run_item, (func, item, shipped)))
        except BrokenProcessPool:
            break
    results: List[Any] = [None] * len(items)
    broken: List[int] = []
    try:
        for i, future in enumerate(futures):
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                broken.append(i)
    except BaseException:
        # A task raised: drop the tasks that have not started so the
        # live pool does not run them for nobody.
        for future in futures:
            future.cancel()
        raise
    # Tasks never submitted because the pool broke mid-submission.
    broken.extend(range(len(futures), len(items)))
    for i in broken:
        logger.warning(
            "worker process died; retrying task %d serially",
            i,
            extra={"task": i, "workers": workers},
        )
        try:
            results[i] = func(*bound, items[i])
        except Exception as exc:
            raise SimulationError(
                f"task {i} failed in a worker process "
                f"and again on the serial retry: {exc}"
            ) from exc
    return results


def _run_item(
    payload: Tuple[Callable[..., Any], Any, Optional[Tuple[int, bytes]]],
) -> Any:
    """Worker: evaluate one task item."""
    global _WORKER_SHARED_STATE
    func, item, shipped = payload
    if shipped is None:
        _WORKER_SHARED_STATE = None
        return func(item)
    token, blob = shipped
    if _WORKER_SHARED_STATE is None or _WORKER_SHARED_STATE[0] != token:
        _WORKER_SHARED_STATE = None  # drop the previous call's state first
        _WORKER_SHARED_STATE = (token, pickle.loads(blob))
    return func(_WORKER_SHARED_STATE[1], item)


def shard_map(
    worker: Callable[[Any, Tuple[int, int]], Any],
    n_items: int,
    shared: Any,
    config: Optional[ParallelConfig] = None,
) -> Tuple[List[Any], List[Tuple[int, int]]]:
    """Run ``worker(shared, (lo, hi))`` over contiguous ranges of ``[0, n_items)``.

    The item axis is split into ``min(workers, n_items)`` contiguous
    ranges (at least one, so an empty axis is one empty shard) and
    fanned through :func:`parallel_map` with ``shared`` shipped once per
    worker.  A single shard runs in-process with no pool, whatever the
    backend.

    Args:
        worker: Module-level callable taking ``(shared, (lo, hi))``.
        n_items: Length of the item axis to shard.
        shared: Read-only state every shard reads (picklable).
        config: Execution configuration; its resolved worker count is
            the shard count.

    Returns:
        ``(parts, bounds)``: one worker result per range and the
        ``(lo, hi)`` ranges themselves, both in range order.
    """
    config = config or ParallelConfig()
    n_shards = max(1, min(config.resolved_workers(), n_items))
    bounds = [
        ((s * n_items) // n_shards, ((s + 1) * n_items) // n_shards)
        for s in range(n_shards)
    ]
    if n_shards == 1:
        config = SERIAL
    return parallel_map(worker, bounds, config, shared=shared), bounds


def _fleet_soa_shard(shared: Tuple[Any, int, Any], bounds: Tuple[int, int]) -> Any:
    """Worker: simulate one contiguous network range of the shared fleet."""
    from repro.sim.fleetsoa import simulate_fleet_soa

    spec, n_rounds, policy = shared
    return simulate_fleet_soa(
        spec.slice_networks(*bounds), n_rounds, policy=policy
    )


def fleet_soa_rounds(
    spec: Any,
    n_rounds: int,
    policy: Any = None,
    config: Optional[ParallelConfig] = None,
) -> Any:
    """Process-parallel struct-of-arrays fleet simulation.

    Shards the network axis of a :class:`~repro.sim.fleetsoa.FleetSpec`
    into contiguous ranges (one per worker) with :func:`shard_map`,
    which ships the read-only spec to each worker once,
    simulates every range with :func:`~repro.sim.fleetsoa.
    simulate_fleet_soa` and stitches the shards back into fleet order.

    Every network owns an independent seeded stream
    (:func:`derive_seeds`), every supervised device an independent health
    machine, so the sharded result is **bit-identical** to the unsharded
    one — and the serial backend to the process backend — by
    construction.

    Args:
        spec: The fleet layout (:class:`~repro.sim.fleetsoa.FleetSpec`).
        n_rounds: Supervision rounds to simulate.
        policy: Optional :class:`~repro.sim.supervise.HealthPolicy`.
        config: Execution configuration; its resolved worker count is
            the shard count.

    Returns:
        One stitched :class:`~repro.sim.fleetsoa.FleetResult`.
    """
    from repro.sim.fleetsoa import concat_fleet_results

    if n_rounds < 1:
        raise ConfigurationError("n_rounds must be >= 1")
    parts, _ = shard_map(
        _fleet_soa_shard, spec.n_networks, (spec, n_rounds, policy), config
    )
    return concat_fleet_results(parts)

