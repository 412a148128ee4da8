"""The binary container shared by `.ulws` caches and `.ulwm` checkpoints.

    magic (4 bytes) | u8 version | body | u32 LE CRC-32 of version + body

Writes stream their parts through one incremental CRC into a temporary
file next to the target, then rename it over the target, so a failed or
interrupted write leaves any existing file as it was. `open_atomic` is
that temporary file and rename, which the CLI's text artefacts use too.
A worker that runs its work through `removing_temporaries_on_sigterm`
removes its open temporaries when it is stopped with SIGTERM.
Reads fill one buffer and hand back a view of the body, so callers can
build numpy arrays on it with `np.frombuffer` and no further copy.

The CRC-32 is also the file's identity. `write` returns the CRC it wrote
and `read` the CRC it verified, as 8 hex digits, so a manifest or a fold
worker's guard names the bytes this process wrote or read, never those of
a later open of the same path.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal
import zlib
from collections.abc import Iterable
from pathlib import Path

from .errors import BadMagic, ChecksumMismatch, VersionMismatch

# the temporaries of this process's open_atomic blocks, for its SIGTERM handler
_open_temporaries: set[Path] = set()


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
    _open_temporaries.add(tmp)  # before the file exists, so the handler never misses it
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    finally:
        _open_temporaries.discard(tmp)


def _remove_temporaries_and_exit(signum, frame) -> None:
    for tmp in list(_open_temporaries):
        tmp.unlink(missing_ok=True)
    os._exit(128 + signum)


def removing_temporaries_on_sigterm(fn, *args):
    """`fn(*args)`, in a process whose SIGTERM from now on removes the temporaries
    of its open `open_atomic` blocks, which SIGTERM's default action leaves, and
    then ends the process at once, as that action does."""
    signal.signal(signal.SIGTERM, _remove_temporaries_and_exit)
    return fn(*args)


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

