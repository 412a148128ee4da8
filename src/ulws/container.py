"""The binary container shared by `.ulws` caches and `.ulwm` checkpoints.

    magic (4 bytes) | u8 version | body | u32 LE CRC-32 of version + body

Writes stream their parts through one incremental CRC into a temporary
file next to the target, then rename it over the target, so a failed or
interrupted write leaves any existing file as it was. `open_atomic` is
that temporary file and rename, which the CLI's text artefacts use too.
Within `terminating()`, where the `ulws` process and every worker call
run, SIGTERM and SIGHUP raise `Terminated`, so `open_atomic` removes the
temporary of a write that they end.
Reads fill one buffer and hand back a view of the body, so callers can
build numpy arrays on it with `np.frombuffer` and no further copy.

The CRC-32 is also the file's identity. `write` returns the CRC it wrote
and `read` the CRC it verified, as 8 hex digits, so a manifest or a fold
worker's guard names the bytes this process wrote or read, never those of
a later open of the same path.
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

from .errors import BadMagic, ChecksumMismatch, VersionMismatch

# from linux/prctl.h
PR_SET_PDEATHSIG = 1


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

    The signal comes when the thread that spawned the worker ends, and
    `ProcessPoolExecutor.submit` spawns workers from the submitting thread,
    which in the CLI is the main thread.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # no prctl on this platform
        return
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != multiprocessing.parent_process().pid:  # it died before the prctl
        os._exit(128 + signal.SIGTERM)


def ending_when_terminated(fn, *args):
    """`fn(*args)` in a pool worker, within `terminating()`. A Terminated, once
    it has unwound `fn`'s `open_atomic` blocks, ends the worker with 128 + the
    signal's number, where the pool's worker loop would take it for the call's
    outcome. Between calls the signals keep their default action, which ends
    an idle worker at once and silently."""
    _die_with_parent()
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
        fh.write(crc.to_bytes(4, "little"))
    return f"{crc:08x}"


def read_exact(fh, view) -> None:
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


def read(path: str | Path, magic: bytes, version: int, kind: str) -> tuple[memoryview, str]:
    """Check magic, CRC and version; return a writable view of the body and the CRC."""
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise BadMagic(f"{path}: not a {kind}")
        size = os.fstat(fh.fileno()).st_size - len(magic)
        if size < 5:
            raise ChecksumMismatch(f"{path}: truncated")
        buf = bytearray(size)
        read_exact(fh, buf)
    body = memoryview(buf)[:-4]
    crc = zlib.crc32(body)
    if crc != int.from_bytes(buf[-4:], "little"):
        raise ChecksumMismatch(f"{path}: CRC-32 mismatch")
    if body[0] != version:
        raise VersionMismatch(f"{path}: {kind} version {body[0]}, expected {version}")
    return body[1:], f"{crc:08x}"

