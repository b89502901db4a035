"""Forked workers: the other shares of a job run on the machine's other CPUs.

The calling process keeps the first share of a job's items (`shares`
cuts contiguous ones), and `forked` starts one worker per extra CPU for
the others. A worker talks to the caller over a pair of pipes (`Link`):
length-prefixed pickles for small messages and raw bytes for arrays,
which the caller reads into buffers it reuses.

While workers run, the OpenBLAS that numpy loaded is held to one thread
(a BLAS thread pool in each process would fight over the same CPUs), and
its old thread count comes back afterwards. Where that limit cannot be
set, `os.fork` is missing or the process may use one CPU, nothing forks
and the caller runs the whole job itself.

Workers are forked, not spawned: a fork shares the caller's models and
data copy-on-write and costs a few milliseconds, where a spawned worker
would import the package again and be sent every weight. A fork copies
only the calling thread; OpenBLAS stops its own thread pool around a
fork, and the package starts no threads of its own.

Every worker is reaped before `forked` returns or raises. An exception
in a worker is raised again in the caller with the worker's traceback
as a note: as the same type for an mtpspec error, otherwise as
`WorkerError`. A worker that dies raises `WorkerError`, and an exception
in the caller kills its workers.

Training also sets the C allocator once per process, before its first
taped step and before it forks, so that its workers inherit the setting
(`keep_freed_memory`). Where glibc's `mallopt` cannot be found, nothing
changes; a process that never trains is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import struct
import traceback
from contextlib import contextmanager
from typing import Callable

import numpy as np

from . import errors
from .errors import WorkerError

_HEADER = struct.Struct("<Q")
_PIPE_BYTES = 1 << 20


def shares(n: int, parts: int) -> list[range]:
    """`n` items cut into `parts` contiguous ranges in order; sizes differ by
    at most one, and the larger ones come last (the caller has other work)."""
    q, r = divmod(n, parts)
    bounds = [0]
    for i in range(parts):
        bounds.append(bounds[-1] + q + (i >= parts - r))
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def extra_processes(items: int) -> int:
    """Workers for a job of at most `items` items: one per extra CPU, and
    none that would get no item."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or _openblas() is None:
        return 0
    return max(0, min(len(os.sched_getaffinity(0)) - 1, items - 1))


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if line.count(" ") >= 5 and "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# glibc's mallopt parameters (malloc.h) and the values training sets.
# A tape holds every forward intermediate until the backward frees them
# all at once; at glibc's defaults a freed array above the mmap threshold
# is unmapped and the heap top is trimmed, so the next sequence faults
# the same pages in again: about 370 minor faults and 1 ms of system CPU
# per taped 80-token backbone step. Either setting alone leaves 160-690
# of them. 1 MiB holds the default model's largest temporary at its
# longest sequence (4 x 160 x 160 attention weights, 800 KiB). A single
# step needs a 2 MiB trim threshold, the reduced pipeline's pretraining
# 8 MiB: at 4 MiB its main process still faulted 9.4K pages per pass, at
# 8 MiB 3.4K, as at 32 MiB, and those are its forks' copy-on-write
# faults (without workers, under 600).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEPT_FREED = ((_M_MMAP_THRESHOLD, 1 << 20), (_M_TRIM_THRESHOLD, 8 << 20))


@functools.cache
def keep_freed_memory() -> bool:
    """Let this process keep the memory its tapes free, once: large
    temporaries come from the heap, and freed memory stays there.

    Returns whether glibc took both settings; without `mallopt`, False
    and nothing changes. No byte of any result depends on it.
    """
    mallopt = _mallopt()
    return mallopt is not None and all([mallopt(param, value) == 1
                                        for param, value in _KEPT_FREED])


def _mallopt():
    """glibc's `mallopt`, or None under another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


class Link:
    """One end of a worker's pair of pipes.

    The caller's end knows the worker's pid: there a failure the worker
    sent is raised, and end of stream or a broken pipe raises
    `WorkerError` with how the worker ended. At a worker's end, end of
    stream raises `EOFError`: the caller is done.
    """

    def __init__(self, read_fd: int, write_fd: int, pid: int | None = None, index: int = 0):
        self.read_fd, self.write_fd = read_fd, write_fd
        self.pid, self.index = pid, index
        self._size = bytearray(_HEADER.size)

    def send(self, obj) -> None:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._write(_HEADER.pack(len(data)) + data)

    def send_array(self, a: np.ndarray) -> None:
        self._write(memoryview(np.ascontiguousarray(a)).cast("B"))

    def recv(self):
        self._read_into(memoryview(self._size))
        data = bytearray(_HEADER.unpack(self._size)[0])
        self._read_into(memoryview(data))
        obj = pickle.loads(data)
        if isinstance(obj, _Failure):
            obj.throw(self.index)
        return obj

    def recv_into(self, a: np.ndarray) -> None:
        """Fill `a`, which must be C-contiguous, with the next array's bytes."""
        self._read_into(memoryview(a).cast("B"))

    def _write(self, view) -> None:
        view = memoryview(view)
        try:
            while view:
                view = view[os.write(self.write_fd, view):]
        except BrokenPipeError:
            if self.pid is None:
                raise
            self.recv()  # the worker ended: raise what it sent, or how it ended
            raise WorkerError(f"worker {self.index} closed its pipe") from None

    def _read_into(self, view: memoryview) -> None:
        while view:
            n = os.readv(self.read_fd, [view])
            if n == 0:
                if self.pid is None:
                    raise EOFError("the caller closed the pipe")
                self._reap()
            view = view[n:]

    def _reap(self):
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        how = (f"was killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
               else f"exited with status {os.waitstatus_to_exitcode(status)}")
        raise WorkerError(f"worker {self.index} {how} before sending its results")

    def close(self) -> None:
        for fd in (self.read_fd, self.write_fd):
            if fd >= 0:
                os.close(fd)
        self.read_fd = self.write_fd = -1


class _Failure:
    """An exception raised in a worker, as sent to the caller."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.typed = type(exc).__module__ == errors.__name__
        self.message = str(exc)
        self.trace = "".join(traceback.format_exception(exc))

    def throw(self, index: int):
        exc = (getattr(errors, self.kind)(self.message) if self.typed
               else WorkerError(f"{self.kind}: {self.message}"))
        exc.add_note(f"raised in worker {index}:\n{self.trace}")
        raise exc


@contextmanager
def forked(count: int, serve: Callable[[int, Link], None]):
    """Run ``serve(i, link)`` in `count` forked workers, i = 1..count; yields
    the caller's links in that order.

    A worker exits when `serve` returns. A worker that serves several
    jobs reads them from its link until `EOFError`, which it gets once
    the caller leaves the block.
    """
    if count == 0:
        yield []
        return
    get_threads, set_threads = _openblas()
    threads = get_threads()
    set_threads(1)
    links: list[Link] = []
    try:
        for i in range(1, count + 1):
            down_r, down_w = os.pipe()
            up_r, up_w = os.pipe()
            _widen(up_w)
            try:
                pid = os.fork()
            except OSError:
                for fd in (down_r, down_w, up_r, up_w):
                    os.close(fd)
                raise
            if pid == 0:  # the other workers' pipes too: each must see its own EOF
                inherited = [down_w, up_r] + [fd for link in links
                                              for fd in (link.read_fd, link.write_fd)]
                _serve_and_exit(serve, i, down_r, up_w, inherited)
            os.close(down_r)
            os.close(up_w)
            links.append(Link(up_r, down_w, pid, i))
        yield links
    except BaseException:
        for link in links:
            if link.pid is not None:
                os.kill(link.pid, signal.SIGKILL)
        raise
    finally:
        for link in links:
            link.close()
            if link.pid is not None:
                os.waitpid(link.pid, 0)
        set_threads(threads)


def _widen(fd: int) -> None:
    """Let a pipe hold 1 MiB where the system allows it: fewer switches
    between writer and reader per transfer. Pipe pages are kernel memory,
    not the caller's RSS."""
    try:
        import fcntl
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass


def _serve_and_exit(serve, index: int, read_fd: int, write_fd: int, inherited: list[int]):
    """A worker's whole life: it never returns into the caller's code."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        link = Link(read_fd, write_fd)
        try:
            serve(index, link)
            code = 0
        except BaseException as exc:  # noqa: BLE001 - every failure goes back to the caller
            link.send(_Failure(exc))
    finally:
        os._exit(code)
