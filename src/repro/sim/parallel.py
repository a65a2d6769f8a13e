"""Fleet-scale parallel simulation driver.

The evaluation layers run large numbers of *independent* tasks: one
subspace draw per ensemble member (:func:`subspace_draws`), one partition
evaluation per design-space point (:func:`sweep`), one seeded simulation
per scenario (:func:`parallel_map` directly).  Each task is
self-contained and carries its own seed, so the sweep is embarrassingly
parallel — this module fans it across worker processes.  Population-scale
fleets go through :func:`fleet_soa_rounds`, which shards the network axis
of a struct-of-arrays :class:`~repro.sim.fleetsoa.FleetSpec` with
:func:`shard_map` and ships the shared read-only columns once per worker;
live stream populations go through :func:`stream_soa_windows`, which
shards the stream axis of a :class:`~repro.stream.engine.StreamSpec` the
same way.  Any fan-out passes its read-only invariants as
``parallel_map(..., shared=...)``.

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
from itertools import count, product
from multiprocessing.util import Finalize
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, SimulationError
from repro.sim.checkpoint import (
    Checkpointer,
    canonical_json,
    decode_float,
    encode_float,
    stable_digest,
)
from repro.sim.faults import ResilienceReport, decode_report, encode_report

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
        chunksize: Tasks handed to a worker per dispatch; raise it for
            many cheap tasks to amortise pickling overhead.
    """

    backend: str = "process"
    max_workers: Optional[int] = None
    chunksize: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when given")
        if self.chunksize < 1:
            raise ConfigurationError("chunksize must be >= 1")

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
#: ``(token, value)``.  Only :func:`_run_item_chunk` writes it, so it is
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
            task — use it for heavy invariants such as a fleet spec, a
            sample matrix or a Gram precompute.  A worker keeps only the
            latest call's state, so no call ever sees an earlier call's
            ``shared``.

    The process backend runs on one worker pool per process, created on
    first use and reused by every later call with the same worker count
    (``min(config.resolved_workers(), len(items))``); a changed count or
    a pool with a dead worker is replaced, and the pool is shut down at
    exit.  Workers end on their own if the parent process dies.

    Worker-death recovery: a worker process that dies mid-task (OOM
    kill, segfault, ``os._exit``) no longer poisons the whole fan-out
    with an opaque ``BrokenProcessPool``.  Because every task is
    self-contained and carries its own derived seed, the chunks lost with
    the dead worker are simply re-executed serially in-process — with
    bit-identical results.  Each retried chunk logs a warning on this
    module's logger with ``chunk``, ``tasks`` and ``workers`` extras.
    A task that then fails *again* raises a
    :class:`~repro.errors.SimulationError` naming its index.  Ordinary
    exceptions raised by ``func`` inside a healthy worker propagate
    unchanged.

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
    chunks = [
        items[i : i + config.chunksize]
        for i in range(0, len(items), config.chunksize)
    ]
    shipped = (
        (next(_SHARED_TOKENS), pickle.dumps(shared, pickle.HIGHEST_PROTOCOL))
        if bound
        else None
    )
    pool = _live_pool(workers)
    futures = []
    for chunk in chunks:
        try:
            futures.append(pool.submit(_run_item_chunk, (func, chunk, shipped)))
        except BrokenProcessPool:
            break
    chunk_results: List[Optional[List[Any]]] = [None] * len(chunks)
    broken: List[int] = []
    try:
        for ci, future in enumerate(futures):
            try:
                chunk_results[ci] = future.result()
            except BrokenProcessPool:
                broken.append(ci)
    except BaseException:
        # A task raised: drop the chunks that have not started so the
        # live pool does not run them for nobody.
        for future in futures:
            future.cancel()
        raise
    # Chunks never submitted because the pool broke mid-submission.
    broken.extend(range(len(futures), len(chunks)))
    for ci in broken:
        base = ci * config.chunksize
        logger.warning(
            "worker process died; retrying chunk %d (%d tasks) serially",
            ci,
            len(chunks[ci]),
            extra={"chunk": ci, "tasks": len(chunks[ci]), "workers": workers},
        )
        retried: List[Any] = []
        for offset, item in enumerate(chunks[ci]):
            try:
                retried.append(func(*bound, item))
            except Exception as exc:
                raise SimulationError(
                    f"task {base + offset} failed in a worker process "
                    f"and again on the serial retry: {exc}"
                ) from exc
        chunk_results[ci] = retried
    return [value for chunk in chunk_results for value in chunk]


def _run_item_chunk(
    payload: Tuple[Callable[..., Any], List[Any], Optional[Tuple[int, bytes]]],
) -> List[Any]:
    """Worker: evaluate one contiguous chunk of task items in order."""
    global _WORKER_SHARED_STATE
    func, chunk, shipped = payload
    if shipped is None:
        _WORKER_SHARED_STATE = None
        return [func(item) for item in chunk]
    token, blob = shipped
    if _WORKER_SHARED_STATE is None or _WORKER_SHARED_STATE[0] != token:
        _WORKER_SHARED_STATE = None  # drop the previous call's state first
        _WORKER_SHARED_STATE = (token, pickle.loads(blob))
    shared = _WORKER_SHARED_STATE[1]
    return [func(shared, item) for item in chunk]


def shard_map(
    worker: Callable[[Any, Tuple[int, int]], Any],
    n_items: int,
    shared: Any,
    config: Optional[ParallelConfig] = None,
    shards: Optional[int] = None,
) -> Tuple[List[Any], List[Tuple[int, int]]]:
    """Run ``worker(shared, (lo, hi))`` over contiguous ranges of ``[0, n_items)``.

    The item axis is split into ``min(shards or workers, n_items)``
    contiguous ranges (at least one, so an empty axis is one empty
    shard) and fanned through :func:`parallel_map` with ``shared``
    shipped once per worker.  A single shard runs in-process with no
    pool, whatever the backend.

    Args:
        worker: Module-level callable taking ``(shared, (lo, hi))``.
        n_items: Length of the item axis to shard.
        shared: Read-only state every shard reads (picklable).
        config: Execution configuration.
        shards: Shard count override (default: resolved worker count).

    Returns:
        ``(parts, bounds)``: one worker result per range and the
        ``(lo, hi)`` ranges themselves, both in range order.
    """
    if shards is not None and shards < 1:
        raise ConfigurationError("shards must be >= 1 when given")
    config = config or ParallelConfig()
    n_shards = max(1, min(shards or config.resolved_workers(), n_items))
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
    shards: Optional[int] = None,
) -> Any:
    """Process-parallel struct-of-arrays fleet simulation.

    Shards the network axis of a :class:`~repro.sim.fleetsoa.FleetSpec`
    into contiguous ranges (one per worker by default) with
    :func:`shard_map`, which ships the read-only spec to each worker once,
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
        config: Execution configuration.
        shards: Shard count override (default: resolved worker count).

    Returns:
        One stitched :class:`~repro.sim.fleetsoa.FleetResult`.
    """
    from repro.sim.fleetsoa import concat_fleet_results

    if n_rounds < 1:
        raise ConfigurationError("n_rounds must be >= 1")
    parts, _ = shard_map(
        _fleet_soa_shard, spec.n_networks, (spec, n_rounds, policy), config, shards
    )
    return concat_fleet_results(parts)


def _stream_soa_shard(shared: Tuple[Any, ...], bounds: Tuple[int, int]) -> Any:
    """Worker: run one contiguous stream range of the shared pool."""
    from repro.stream.engine import run_stream_pool

    spec, backend, samples, tick_samples, policy = shared
    lo, hi = bounds
    return run_stream_pool(
        spec.slice_streams(lo, hi),
        backend,
        samples[lo:hi],
        tick_samples,
        policy=policy,
    )


def stream_soa_windows(
    spec: Any,
    backend: Any,
    samples: Any,
    tick_samples: int,
    policy: str = "skip_stale",
    config: Optional[ParallelConfig] = None,
    shards: Optional[int] = None,
) -> Any:
    """Process-parallel struct-of-arrays multi-stream window scoring.

    Shards the stream axis of a :class:`~repro.stream.engine.StreamSpec`
    into contiguous ranges (one per worker by default) with
    :func:`shard_map`, which ships the read-only spec, backend and sample
    matrix to each worker once, runs every range with
    :func:`~repro.stream.engine.run_stream_pool` and stitches the shards
    back into canonical stream order.

    Streams are mutually independent — each consumes only its own sample
    row and ring buffer — so the sharded result is **bit-identical** to
    the unsharded one (and the serial backend to the process backend)
    under :func:`~repro.stream.engine.stream_results_identical`.

    Args:
        spec: The stream population (:class:`~repro.stream.engine.
            StreamSpec`).
        backend: Picklable window scorer (e.g. :class:`~repro.stream.
            engine.MomentsBackend`).
        samples: ``(n_streams, T)`` sample matrix.
        tick_samples: Samples ingested between scoring ticks.
        policy: Backpressure policy (see :class:`~repro.stream.engine.
            StreamPool`).
        config: Execution configuration.
        shards: Shard count override (default: resolved worker count).

    Returns:
        One stitched :class:`~repro.stream.engine.StreamRunResult`.
    """
    from repro.stream.engine import concat_stream_results

    if tick_samples < 1:
        raise ConfigurationError("tick_samples must be >= 1")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != spec.n_streams:
        raise ConfigurationError(
            f"samples must be ({spec.n_streams}, T), got {x.shape}"
        )
    parts, bounds = shard_map(
        _stream_soa_shard,
        spec.n_streams,
        (spec, backend, x, tick_samples, policy),
        config,
        shards,
    )
    return concat_stream_results(parts, [lo for lo, _ in bounds])


def _subspace_draw_task(shared: Dict[str, Any], task: Tuple[Any, int, int]) -> Any:
    """Worker: train and score one subspace draw on the shared state."""
    from repro.ml.subspace import fit_subspace_draw

    subset, member_seed, fold_seed = task
    return fit_subspace_draw(
        subset=subset, member_seed=member_seed, fold_seed=fold_seed, **shared
    )


def subspace_draws(
    X: Any,
    y: Any,
    subsets: Sequence[Any],
    seeds: Sequence[Tuple[int, int]],
    kernel: Any,
    C: float,
    cv_folds: Optional[int],
    fit_idx: Any,
    val_idx: Any,
    config: Optional[ParallelConfig] = None,
) -> List[Any]:
    """Process-parallel training of the random-subspace draws.

    Ships ``(X, y, kernel, split indices)`` and the kernel's shared
    per-column Gram precompute to each worker once (``shared=`` of
    :func:`parallel_map`), then fans one
    :func:`~repro.ml.subspace.fit_subspace_draw` task per draw.  Every
    draw carries its own ``(member_seed, fold_seed)`` pair and never
    touches shared RNG state, so the member list is **bit-identical** to
    the serial path — results come back in draw order, never completion
    order.

    Args:
        X: Full ``(n, d)`` normalised feature matrix.
        y: Binary {0, 1} labels.
        subsets: Pre-drawn feature-index tuples, one per draw.
        seeds: Per-draw ``(member_seed, fold_seed)`` pairs.
        kernel: Kernel instance shared by every draw (picklable).
        C: Soft-margin penalty.
        cv_folds: ``None`` for the holdout protocol, else the CV fold count.
        fit_idx: Holdout training rows.
        val_idx: Holdout validation rows.
        config: Execution configuration.

    Returns:
        One :class:`~repro.ml.subspace.SubspaceMember` (or ``None`` for an
        untrainable draw) per subset, in draw order.
    """
    if len(subsets) != len(seeds):
        raise ConfigurationError("subsets and seeds must pair up one per draw")
    shared = {
        "X": X,
        "y": y,
        "kernel": kernel,
        "C": C,
        "cv_folds": cv_folds,
        "fit_idx": fit_idx,
        "val_idx": val_idx,
        "pre": kernel.gram_precompute(X),
    }
    tasks = [(subset, ms, fs) for subset, (ms, fs) in zip(subsets, seeds)]
    return parallel_map(_subspace_draw_task, tasks, config, shared=shared)


def _call_with_params(
    shared: Tuple[Callable[..., Any], Dict[str, Any]],
    params: Tuple[Tuple[str, Any], ...],
) -> Any:
    """Worker: evaluate one design-space point."""
    func, kwargs = shared
    return func(**kwargs, **dict(params))


def _encode_sweep_value(value: Any) -> Dict[str, Any]:
    """Sweep-value codec: reports, floats (``float.hex``), JSON scalars."""
    if isinstance(value, ResilienceReport):
        return {"kind": "report", "data": encode_report(value)}
    if isinstance(value, float):
        return {"kind": "float", "data": encode_float(value)}
    try:
        canonical_json(value)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"sweep value of type {type(value).__name__} is not "
            "checkpoint-safe (reports, floats and JSON values are)"
        ) from exc
    return {"kind": "json", "data": value}


def _decode_sweep_value(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`_encode_sweep_value`."""
    kind = data["kind"]
    if kind == "report":
        return decode_report(data["data"])
    if kind == "float":
        return decode_float(data["data"])
    if kind == "json":
        return data["data"]
    raise CheckpointError(f"unknown sweep value kind {kind!r} in checkpoint")


def sweep(
    func: Callable[..., Any],
    grid: Mapping[str, Sequence[Any]],
    config: Optional[ParallelConfig] = None,
    shared: Optional[Mapping[str, Any]] = None,
    checkpoint: Optional[Checkpointer] = None,
    resume: bool = False,
) -> List[Tuple[Dict[str, Any], Any]]:
    """Evaluate ``func`` over the cartesian product of a parameter grid.

    The design-space sweep primitive: ``grid`` maps parameter names to the
    values each may take; every combination is evaluated as one task.

    Args:
        func: Module-level callable accepting the grid's keys as keyword
            arguments.
        grid: Parameter name -> candidate values.  Iteration order of the
            mapping fixes the product order (first key varies slowest).
        config: Execution configuration.
        shared: Extra keyword arguments passed to *every* point, shipped
            once per worker (``shared=`` of :func:`parallel_map`) instead
            of once per task.  Use it for heavyweight sweep-invariant
            state — e.g. an
            :class:`~repro.graph.stgraph.STGraphTemplate` or a
            :class:`~repro.sim.evaluate.PartitionEvaluationCache` when the
            topology does not vary across the grid.  Names must not
            collide with grid keys.  Each worker operates on its own copy, so
            mutations (accumulated warm states, memo entries) speed up
            that worker without feeding back to the caller — results stay
            bit-identical to the serial backend either way.
        checkpoint: Optional :class:`~repro.sim.checkpoint.Checkpointer`;
            the grid is evaluated in batches of ``checkpoint.every``
            points and the completed ``index -> value`` map is snapshot
            as a ``"sweep"`` checkpoint after each batch (crash-safe
            atomic writes).  Values must be reports, floats or JSON
            values.  The config key pins the function identity, the grid
            (names and value reprs) and the shared-kwarg names.  Without
            a checkpoint, every point runs in a single batch.
        resume: Skip the points recorded in ``checkpoint``'s last
            snapshot and evaluate only the remainder.  Every point is an
            independent seeded task, so the stitched result is
            bit-identical to an uninterrupted sweep.

    Returns:
        ``(params, value)`` pairs in deterministic product order, where
        ``params`` is the keyword dictionary of that point.
    """
    if not grid:
        raise ConfigurationError("sweep grid must name at least one parameter")
    if resume and checkpoint is None:
        raise ConfigurationError("resume=True requires a checkpoint")
    names = list(grid.keys())
    overlap = set(names) & set(shared or {})
    if overlap:
        raise ConfigurationError(
            f"sweep grid and shared kwargs overlap: {sorted(overlap)}"
        )
    combos = [
        tuple(zip(names, values)) for values in product(*(grid[n] for n in names))
    ]
    key = None
    if checkpoint is not None:
        key = stable_digest({
            "func": f"{func.__module__}.{func.__qualname__}",
            "grid": {name: [repr(v) for v in values] for name, values in grid.items()},
            "grid_order": names,
            "shared": sorted(shared or {}),
        })
    done: Dict[int, Any] = {}
    if resume:
        done = checkpoint.load(
            "sweep",
            key,
            lambda state: {
                int(i): _decode_sweep_value(v) for i, v in state["done"].items()
            },
        )
    pending = [i for i in range(len(combos)) if i not in done]
    every = checkpoint.every if checkpoint is not None else max(1, len(pending))
    for lo in range(0, len(pending), every):
        batch = pending[lo : lo + every]
        values = parallel_map(
            _call_with_params,
            [combos[i] for i in batch],
            config,
            shared=(func, dict(shared or {})),
        )
        done.update(zip(batch, values))
        if checkpoint is not None:
            checkpoint.save("sweep", key, {
                "done": {str(i): _encode_sweep_value(v) for i, v in done.items()}
            })
    return [(dict(combos[i]), done[i]) for i in range(len(combos))]
