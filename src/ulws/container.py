"""The binary container shared by `.ulws` caches and `.ulwm` checkpoints.

    magic (4 bytes) | u8 version | body | u32 LE CRC-32 of version + body

Writes stream their parts through one incremental CRC into a temporary
file next to the target, then rename it over the target, so a failed or
interrupted write leaves any existing file as it was. `open_atomic` is
that temporary file and rename, which the CLI's text artefacts use too.
Within `terminating()`, where the `ulws` process and every worker call
run, SIGTERM and SIGHUP raise `Terminated`, so `open_atomic` removes the
temporary of a write that they end.
`read_verified` reads a file once, front to back, in blocks of at most
BLOCK bytes: its caller parses the body as it streams through the CRC, and
gets the open file back to read the body's bytes again from, so no reader
holds a whole-file buffer. A damaged CRC is reported before any error the
caller finds in the content it covers.

The CRC-32 is also the file's identity. `write` returns the CRC it wrote
and `read_verified` the CRC it verified, as 8 hex digits, so a manifest or
a fold worker's guard names the bytes this process wrote or read, never
those of a later open of the same path.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import multiprocessing
import os
import signal
import threading
import zlib
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import BadMagic, ChecksumMismatch, UlwsError, VersionMismatch

# from linux/prctl.h
PR_SET_PDEATHSIG = 1

# bytes a verifying read takes from the file at a time
BLOCK = 1 << 20


@contextlib.contextmanager
def open_atomic(path: str | Path, mode: str = "wb", **kwargs):
    """Open a new temporary file next to `path`; rename it over `path` when the
    `with` block ends, or remove it if the block raises.

    `mode` and `kwargs` are `open`'s, for writing ("wb", or "w" for text).
    A failed or interrupted write leaves the earlier file, or none, at `path`:
    never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Terminated(BaseException):
    """SIGTERM or SIGHUP, raised as SIGINT raises KeyboardInterrupt; a
    BaseException, so that no fold or unit takes it for its outcome."""


def _raise_terminated(signum, frame):
    raise Terminated(signum)


@contextlib.contextmanager
def terminating():
    """Raise Terminated on SIGTERM and SIGHUP within the block, then restore
    their handlers. Only the main thread can set them, and only a signal left
    at its default action is taken over, so one that is ignored (as under
    `nohup`) or handled by the caller stays so."""
    taken = [s for s in (signal.SIGTERM, signal.SIGHUP)
             if threading.current_thread() is threading.main_thread()
             and signal.getsignal(s) is signal.SIG_DFL]
    for signum in taken:
        signal.signal(signum, _raise_terminated)
    try:
        yield
    finally:
        for signum in taken:
            signal.signal(signum, signal.SIG_DFL)


def _die_with_parent() -> None:
    """Have the death of the `ulws` process, even by SIGKILL, send this worker
    SIGTERM (Linux), and end the worker now if that process is gone already.

    The signal follows the thread that forked the worker: it comes when that
    thread ends. A fork-context `ProcessPoolExecutor` forks its workers in
    the thread that submits its first call, which in the CLI is the main
    thread.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # no prctl on this platform
        return
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != multiprocessing.parent_process().pid:  # it died before the prctl
        os._exit(128 + signal.SIGTERM)


def start_worker(initializer=None) -> None:
    """A forked pool worker's start, then `initializer()` if given.

    The worker is a copy of the `ulws` process, whose `terminating()` may
    have installed handlers for SIGTERM and SIGHUP: each such handler goes
    back to the default action, as across an exec, so that an idle worker
    ends at once and silently. An ignored signal stays ignored. The worker
    then dies with the `ulws` process (`_die_with_parent`).
    """
    for signum in (signal.SIGTERM, signal.SIGHUP):
        if signal.getsignal(signum) is not signal.SIG_IGN:
            signal.signal(signum, signal.SIG_DFL)
    _die_with_parent()
    if initializer is not None:
        initializer()


def ending_when_terminated(fn, *args):
    """`fn(*args)` in a pool worker, within `terminating()`. A Terminated, once
    it has unwound `fn`'s `open_atomic` blocks, ends the worker with 128 + the
    signal's number, where the pool's worker loop would take it for the call's
    outcome. Between calls the signals keep their default action, which ends
    an idle worker at once and silently."""
    with terminating():
        try:
            return fn(*args)
        except Terminated as e:
            os._exit(128 + e.args[0])


def write(path: str | Path, magic: bytes, version: int, parts: Iterable) -> str:
    """Write magic, version, the `parts` in order, then the CRC; return the CRC.

    Each part is any C-contiguous buffer (bytes, a numpy array); it is
    checksummed and written in place, without a copy.
    """
    with open_atomic(path) as fh:
        fh.write(magic)
        crc = 0
        for part in itertools.chain([bytes([version])], parts):
            crc = zlib.crc32(part, crc)
            fh.write(part)
            del part  # before the next part is made, which may take its memory
        fh.write(crc.to_bytes(4, "little"))
    return f"{crc:08x}"


def _read_exact(fh, view) -> None:
    """Fill the writable buffer `view` from `fh`, or raise ChecksumMismatch."""
    view = memoryview(view)
    if not view.nbytes:
        return
    view = view.cast("B")
    while view:
        n = fh.readinto(view)
        if not n:
            raise ChecksumMismatch(f"{fh.name}: truncated")
        view = view[n:]


class Body:
    """The body of a container file that `read_verified` is reading: the bytes
    between the version and the CRC, in order. Every byte read, by the parser
    or by the read of the rest that follows it, goes into the CRC."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.remaining = os.fstat(fh.fileno()).st_size - fh.tell() - 4  # before the CRC
        self.crc = 0

    def readinto(self, view) -> None:
        """Fill the writable buffer `view` with the next bytes of the body."""
        view = memoryview(view).cast("B")
        if view.nbytes > self.remaining:
            raise ChecksumMismatch(f"{self.path}: truncated")
        _read_exact(self.fh, view)
        self.crc = zlib.crc32(view, self.crc)
        self.remaining -= view.nbytes

    def read(self, n: int) -> bytearray:
        buf = bytearray(n)
        self.readinto(buf)
        return buf

    def blocks(self, n: int, dtype="u1"):
        """The next `n` bytes of the body, a whole number of `dtype` items, as
        arrays of `dtype` of at most BLOCK bytes, read into one buffer that the
        next block reuses."""
        dtype = np.dtype(dtype)
        buf = np.empty(max(1, min(n, BLOCK) // dtype.itemsize), dtype)
        while n:
            block = buf[: min(n, buf.nbytes) // dtype.itemsize]
            self.readinto(block)
            n -= block.nbytes
            yield block


def read_verified(path: str | Path, magic: bytes, version: int, kind: str, parse):
    """Check magic, CRC and version of the file at `path` in one pass; return
    (what `parse` returned, the CRC, the open file).

    `parse(body)` reads the body through `body`, a Body, as far as it needs;
    the rest is then read in blocks. A UlwsError that `parse` raises is
    raised once the CRC and the version have been found good, so a damaged
    file gives ChecksumMismatch whatever its content. The open file is
    unbuffered; the caller reads from it (with positioned reads, say) and
    closes it.
    """
    fh = open(path, "rb")  # the short reads of names and sizes are buffered
    try:
        if fh.read(len(magic)) != magic:
            raise BadMagic(f"{path}: not a {kind}")
        body = Body(fh, path)
        if body.remaining < 1:
            raise ChecksumMismatch(f"{path}: truncated")
        found = body.read(1)[0]
        try:
            result, error = parse(body), None
        except UlwsError as e:
            result, error = None, e
        for _ in body.blocks(body.remaining):
            pass
        stored = bytearray(4)
        _read_exact(fh, stored)
        if body.crc != int.from_bytes(stored, "little"):
            raise ChecksumMismatch(f"{path}: CRC-32 mismatch")
        if found != version:
            raise VersionMismatch(f"{path}: {kind} version {found}, expected {version}")
        if error is not None:
            raise error
        return result, f"{body.crc:08x}", fh.detach()
    except BaseException:
        fh.close()
        raise
