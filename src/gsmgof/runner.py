"""The process runner of the Monte Carlo harness: each job's replications
cut into chunks, run in this process and in forked ones, and gathered in job
and chunk order.  It owns every process and draw-table policy."""

from __future__ import annotations

import os
import pickle
import signal
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple

from .errors import WorkerError
from .gsm import _ChunkDraws
from .sequences import _count

__all__ = []  # every name is private to the package


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else os.cpu_count() (1 when that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_ranges(n_reps: int, workers: int) -> list[tuple[int, int]]:
    """Split range(n_reps) into at most `workers` contiguous pieces."""
    k = min(workers, n_reps)
    base, extra = divmod(n_reps, k)
    ranges = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class _Job(NamedTuple):
    """fn(*args, lo, hi) over the chunk ranges of range(n_reps); finish makes
    the job's result of the chunk results, given in chunk order.  work: the
    rows of draws its replications make at least, and 1 per 16 coordinates.
    draws: (seed, width) where fn reads the Gaussian rows of master seed
    `seed`, most of them within columns [0, width), and takes a draw source
    as one more argument, fn(*args, lo, hi, draws) (see _share); else None."""

    fn: Callable
    args: tuple
    n_reps: int
    work: float
    finish: Callable[[list], Any]
    draws: tuple[int, int] | None = None


_FORK_WORK = 8192  # work (see _Job) per process past the first; less pays no fork (README)
_TABLE_CAP = 2 ** 18  # elements of a chunk's draw table per stream; a larger chunk has none


def _sums(parts: list) -> tuple:
    """Chunk results of tuple[int, ...], summed positionally."""
    return tuple(int(sum(col)) for col in zip(*parts))


def _tables(built: list, p: int, procs: int) -> dict:
    """A draw table (gsm._ChunkDraws) for each (seed, lo, hi) that two or
    more jobs of the share run: columns [0, W) of the rows of reps [lo, hi),
    W the widest of those jobs' widths (see _Job), and none where
    (hi - lo) * W exceeds _TABLE_CAP."""
    widths = {}
    for job, ranges in built:
        if job.draws is not None:
            seed, width = job.draws
            for lo, hi in ranges[p::procs]:
                widths.setdefault((seed, lo, hi), []).append(width)
    tables = {}
    for (seed, lo, hi), listed in widths.items():
        width = max(listed)
        if len(listed) > 1 and (hi - lo) * width <= _TABLE_CAP:
            tables[seed, lo, hi] = _ChunkDraws(seed, lo, hi, width)
    return tables


def _share(built: list, p: int, procs: int) -> tuple[list, Exception | None]:
    """Chunks p, p + procs, p + 2 procs, ... of every built (job, ranges), run
    in job and chunk order up to the first that raises: their results, and
    that error or None.  The jobs that run one chunk read its rows from one
    draw table (see _tables), dropped when this returns."""
    parts, tables = [], _tables(built, p, procs)
    try:
        for job, ranges in built:
            seed = None if job.draws is None else job.draws[0]
            for lo, hi in ranges[p::procs]:
                table = tables.get((seed, lo, hi))
                parts.append(job.fn(*job.args, lo, hi) if table is None else
                             job.fn(*job.args, lo, hi, table))
    except Exception as exc:
        return parts, exc
    finally:
        for table in tables.values():
            table.clear()
    return parts, None


def _sendable(error: Exception | None, p: int) -> Exception | None:
    """error, or a WorkerError carrying its repr if it does not survive pickling."""
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception as exc:
            return WorkerError(f"worker {p} raised {error!r}, which cannot be sent back "
                               f"({type(exc).__name__}: {exc})")
    return error


class _Child:
    """A forked process that runs one share of the chunks and sends its
    pickled (parts, error) down a pipe."""

    def __init__(self, p: int, share: Callable[[], tuple]):
        self.p = p
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:  # leave by os._exit: no exit handler runs, no inherited buffer is flushed
                os.close(read)
                parts, error = share()
                with open(write, "wb") as pipe:
                    pickle.dump((parts, _sendable(error, p)), pipe, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pipe = open(read, "rb")

    def outcome(self) -> tuple[list, Exception | None]:
        """The child's (parts, error), read to EOF, once the child is reaped."""
        data = self.pipe.read()
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0 or not data:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerError(f"worker {self.p} ended ({how}) before sending its results")
        return pickle.loads(data)

    def kill(self) -> None:
        """End and reap the child unless it is reaped already."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


_MISSING = object()  # a part past the end of a share


def _run_jobs(jobs: Iterable[_Job], workers: int) -> list:
    """Each job's result, in job order.

    Every job is built first.  Chunk c of every job then runs in process
    c % procs, where procs = min(workers, CPUs this process may run on,
    chunks of the largest job, 1 + the jobs' total work // _FORK_WORK) (1
    without os.fork): process 0 is this one, and the other procs - 1 are
    forked once, run their share while this process runs its own, and are
    reaped before this returns, on success or on error.  The error raised is
    the first one running the jobs one after another meets: a chunk's or a
    finish's, in job and chunk order, or that of building a job, after the
    errors of the jobs before it.
    """
    workers = _count("workers", workers)
    built, build_error = [], None
    try:
        for job in jobs:
            built.append((job, _chunk_ranges(job.n_reps, workers)))
    except Exception as exc:  # the jobs built before it may fail first
        build_error = exc
    procs = int(min(workers, _usable_cpus(), max((len(r) for _, r in built), default=1),
                    1 + sum(job.work for job, _ in built) / _FORK_WORK))  # work may be inf
    if not hasattr(os, "fork"):
        procs = 1
    children = []
    try:
        for p in range(1, procs):
            children.append(_Child(p, partial(_share, built, p, procs)))
        shares = [_share(built, 0, procs)] + [child.outcome() for child in children]
    finally:
        for child in children:
            child.kill()
    parts = [iter(share_parts) for share_parts, _ in shares]
    results = []
    for job, ranges in built:
        chunks = []
        for c in range(len(ranges)):
            part = next(parts[c % procs], _MISSING)
            if part is _MISSING:  # the share stopped at this chunk's error
                raise shares[c % procs][1]
            chunks.append(part)
        results.append(job.finish(chunks))
    if build_error is not None:
        raise build_error
    return results
