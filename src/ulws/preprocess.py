"""RawRecord -> model-ready epoch tensors.

Band-pass filtering of the EEG channels, stage-text mapping, wake-period
trimming around the main sleep span, 30-second epoching with per-record
z-scoring, and a checksummed binary dataset cache.

`preprocess_record` gives a record's finite epochs or raises a UlwsError.
It reads one channel at a time from the PSG file. A record's memory is
one channel's trace, the float64 epoch buffer, and the float32 epochs of
the channels done so far, each channel's in a contiguous slab: never the
whole night of every channel, nor a float32 trace beside the band-pass
buffer, nor a second copy of the epochs. A band-passed channel is decoded
into the middle of the filter's padded float64 buffer (63 MB for 22 h at
100 Hz) and filtered there; another is read as a float32 trace (32 MB).
On the benchmark's `ingest` workload (three 22 h nights, 2 cores) the
peak RSS fell from 274 to 236 MiB with this account.

`spool_epochs` spools the epochs of one record at a time, interleaving
them into (epoch, channel, sample) order a block at a time, so the
epochs kept so far wait in a spool file, not in RAM, and `write_cache`
checks and copies them from there into the cache in one pass of blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import container
from .edf import SAMPLE_RATE_HZ, RawRecord, read_signal
from .errors import (
    AllWake,
    ChecksumMismatch,
    DegenerateSignal,
    EpochAlignmentError,
    InvalidDataset,
    MissingChannel,
    NonFiniteSignal,
    SignalTooShort,
    UlwsError,
    UnknownLabel,
)

EPOCH_SECONDS = 30.0
EPOCH_SAMPLES = int(EPOCH_SECONDS * SAMPLE_RATE_HZ)  # T = 3000

# ingest band-pass: Butterworth sections over the EEG channels
BAND_HZ = (0.3, 45.0)
FILTER_ORDER = 4
# samples per sosfilt call in filtfilt's forward and backward passes
FILTER_BLOCK = 1 << 18
# epochs per block when a dataset's x is checked or written
ROW_BLOCK = 256

# 30 minutes of surrounding wake kept on each side of the sleep span
WAKE_MARGIN_EPOCHS = 60

CACHE_MAGIC = b"ULWS"
CACHE_VERSION = 1


class StageClass(IntEnum):
    WAKE = 0
    N1 = 1
    N2 = 2
    N3 = 3
    REM = 4


N_STAGES = len(StageClass)

# R&K stages 3 and 4 merge into N3 under the five-class scheme;
# movement and unscored epochs are excluded entirely.
_STAGE_TEXT: dict[str, StageClass | None] = {
    "Sleep stage W": StageClass.WAKE,
    "Sleep stage 1": StageClass.N1,
    "Sleep stage 2": StageClass.N2,
    "Sleep stage 3": StageClass.N3,
    "Sleep stage 4": StageClass.N3,
    "Sleep stage R": StageClass.REM,
    "Movement time": None,
    "Sleep stage ?": None,
}


def map_stage_label(stage_text: str) -> StageClass | None:
    """Map annotation text to a stage, None for excluded epochs."""
    try:
        return _STAGE_TEXT[stage_text.strip()]
    except KeyError:
        raise UnknownLabel(f"unrecognized stage text {stage_text!r}") from None


class Bandpass(NamedTuple):
    """The ingest band-pass's (FILTER_ORDER, 6) sections, their sosfilt_zi, and
    filtfilt's edge padding in samples."""

    sos: np.ndarray
    zi: np.ndarray
    padlen: int


@functools.cache
def bandpass() -> Bandpass:
    """The ingest band-pass, designed once per process: a Butterworth filter
    of order FILTER_ORDER over BAND_HZ at SAMPLE_RATE_HZ, as scipy's
    second-order sections. The -3 dB points sit at the cutoffs.

    `padlen` is 3x the samples the slowest pole takes to decay by 99%, so
    boundary transients fall below ~1e-6 before they reach real samples,
    which keeps the forward-backward pass zero-phase and time-reversal
    symmetric to well under 1e-5. Both arrays are read-only, because every
    caller in the process shares them; scipy's `sosfilt` needs a writable
    copy of `sos`.
    """
    import scipy.signal  # ~1 s to import; only EDF ingest designs or applies filters

    sos = scipy.signal.butter(
        FILTER_ORDER, list(BAND_HZ), btype="bandpass", fs=SAMPLE_RATE_HZ, output="sos"
    )
    zi = scipy.signal.sosfilt_zi(sos)
    radius = max(np.abs(np.roots(section[3:])).max() for section in sos)
    padlen = 3 * int(np.ceil(np.log(0.01) / np.log(radius)))
    sos.flags.writeable = zi.flags.writeable = False
    return Bandpass(sos, zi, padlen)


def filtfilt(signal: np.ndarray, pad: int = 0) -> np.ndarray:
    """Zero-phase forward-backward application of the ingest band-pass.

    Bit-identical to scipy's `sosfiltfilt(sos, x, padtype="odd",
    padlen=padlen)`, with `bandpass()`'s sos and padlen, on the float64
    widening `x` of the 1-D signal, but held in one float64 buffer of
    n + 2 * padlen samples: the odd-extended signal, filtered forward and
    then backward in place, `FILTER_BLOCK` samples at a time with the
    section state carried from block to block. `sosfilt` runs sample by
    sample, so the blocks do the float operations of one call. Beyond that
    buffer the pass holds one block's copies (a few MiB), not the three
    whole-signal copies of `sosfiltfilt`. Returns the n real samples, a
    view on the buffer.

    `signal` holds the samples between `pad` samples of room on each side.
    With `pad` it must be that buffer already, float64 with `padlen`
    samples of room, as `read_signal(..., pad=bandpass().padlen)` gives
    it: the pass then runs in it and overwrites the samples. Without `pad`
    the samples are copied into a new buffer.
    """
    sos, zi, padlen = bandpass()
    n = len(signal) - 2 * pad
    if n <= padlen:
        raise SignalTooShort(f"need more than {padlen} samples, got {n}")
    if pad and (pad != padlen or signal.dtype != np.float64):
        raise ValueError(f"filtfilt runs in place on float64 with {padlen} samples of room")
    import scipy.signal

    sos = sos.copy()  # sosfilt refuses a read-only sos
    if pad:
        buf = signal
    else:
        buf = np.empty(n + 2 * padlen, dtype=np.float64)
        buf[padlen : padlen + n] = signal
    x = buf[padlen : padlen + n]
    # scipy's odd_ext, written around x instead of concatenated
    np.subtract(2 * x[0], x[padlen:0:-1], out=buf[:padlen])
    np.subtract(2 * x[-1], x[-2 : -(padlen + 2) : -1], out=buf[padlen + n :])

    state = zi * buf[0]
    for lo in range(0, len(buf), FILTER_BLOCK):
        block = buf[lo : lo + FILTER_BLOCK]
        block[:], state = scipy.signal.sosfilt(sos, block, zi=state)
    state = zi * buf[-1]
    for hi in range(len(buf), 0, -FILTER_BLOCK):
        block = buf[max(hi - FILTER_BLOCK, 0) : hi][::-1]
        block[:], state = scipy.signal.sosfilt(sos, block, zi=state)
    return x


def trim_wake(labels: list[StageClass]) -> tuple[int, int]:
    """Index range keeping the sleep span plus 30 min of wake on each side."""
    sleep = [i for i, lab in enumerate(labels) if lab != StageClass.WAKE]
    if not sleep:
        raise AllWake("record contains no sleep epochs")
    first, last = sleep[0], sleep[-1]
    return max(0, first - WAKE_MARGIN_EPOCHS), min(len(labels), last + WAKE_MARGIN_EPOCHS + 1)


def expand_events(events, record_epochs: int) -> list[StageClass | None]:
    """Per-30s-epoch stage labels from hypnogram events.

    Events must sit on the 30 s grid; gaps between events come out as None
    (excluded later, like MOVEMENT/UNKNOWN epochs).

    The list stops at `record_epochs`, the whole epochs the record's signals
    hold, however far an event reaches. A sleep stage scored past the end
    raises EpochAlignmentError. Wake scored past the end becomes one WAKE at
    index `record_epochs`: trimming keeps it exactly where it would keep the
    first of those epochs, and the signal then rejects it, so every record
    keeps the outcome an unbounded list would give it. Unscored epochs past
    the end are dropped.
    """
    end = 0
    spans = []
    for ev in events:
        start, n = ev.onset_s / EPOCH_SECONDS, ev.duration_s / EPOCH_SECONDS
        if abs(start - round(start)) > 1e-9 or abs(n - round(n)) > 1e-9:
            raise EpochAlignmentError(
                f"event ({ev.onset_s}s + {ev.duration_s}s) off the {EPOCH_SECONDS}s grid"
            )
        label = map_stage_label(ev.stage_text)
        start, n = round(start), round(n)
        spans.append((start, n, label))
        end = max(end, start + n)
    past_end: set[StageClass] = set()
    if end > record_epochs:
        past_end = {label for start, n, label in spans if start + n > record_epochs} - {None}
        if past_end - {StageClass.WAKE}:
            raise EpochAlignmentError(
                f"sleep scored past the end of the signals ({record_epochs} epochs)"
            )
        end = record_epochs
    labels: list[StageClass | None] = [None] * end
    for start, n, label in spans:
        for i in range(start, min(start + n, end)):
            labels[i] = label
    if past_end:
        labels.append(StageClass.WAKE)
    return labels


class SpooledEpochs:
    """(N, C, T) float32 epochs held in an open spool file, as `EpochDataset.x`.

    `spool_epochs` gives one, so that `write_cache` checks and writes the
    kept epochs `ROW_BLOCK` rows at a time instead of reading them all back
    into memory. It has an array's `shape`, `ndim`, `dtype` and `nbytes`;
    closing it (or leaving its `with` block) deletes the spool.
    """

    ndim = 3
    dtype = np.dtype(np.float32)

    def __init__(self, spool, shape: tuple[int, int, int]):
        self.spool = spool
        self.shape = shape

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    def blocks(self):
        """The epochs in row blocks, read into one buffer that the next block reuses."""
        n, c, t = self.shape
        buf = np.empty((min(n, ROW_BLOCK), c, t), dtype=np.float32)
        self.spool.seek(0)
        for lo in range(0, n, ROW_BLOCK):
            block = buf[: min(ROW_BLOCK, n - lo)]
            container.read_exact(self.spool, block)
            yield block

    def close(self) -> None:
        self.spool.close()

    def __enter__(self) -> "SpooledEpochs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class EpochDataset:
    """N preprocessed epochs: x is (N, C, T) float32, y holds StageClass values.

    x is an array, or the SpooledEpochs that `spool_epochs` gives for ingest.
    """

    x: np.ndarray | SpooledEpochs
    y: np.ndarray
    subject_keys: list[str]
    channel_labels: list[str]
    crc32: str | None = None  # the CRC-32 read_cache verified; None if not read from a cache

    @property
    def n_epochs(self) -> int:
        return self.x.shape[0]

    @property
    def n_channels(self) -> int:
        return self.x.shape[1]

    @property
    def epoch_samples(self) -> int:
        return self.x.shape[2]

    def validate(self) -> None:
        """Check shapes, dtype, labels and names; x's values are checked where they are read."""
        if self.x.ndim != 3 or self.x.dtype != np.float32:
            raise InvalidDataset(f"x must be (N, C, T) float32, got {self.x.dtype} {self.x.shape}")
        n = self.n_epochs
        if len(self.y) != n or len(self.subject_keys) != n:
            raise InvalidDataset(
                f"{n} epochs but {len(self.y)} labels and {len(self.subject_keys)} subject keys"
            )
        if len(self.channel_labels) != self.n_channels:
            raise InvalidDataset(
                f"{self.n_channels} channels but {len(self.channel_labels)} channel labels"
            )
        if self.y.size and (self.y.min() < 0 or self.y.max() >= N_STAGES):
            raise InvalidDataset(f"labels outside [0, {N_STAGES})")
        for name in {*self.channel_labels, *self.subject_keys}:  # the cache stores them as UTF-8
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise InvalidDataset(f"{name!r} is not UTF-8 text") from None

    def equals(self, other: "EpochDataset") -> bool:
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and self.subject_keys == other.subject_keys
            and self.channel_labels == other.channel_labels
        )


def _row_blocks(x: np.ndarray | SpooledEpochs):
    """x in blocks of ROW_BLOCK rows: views of an array, or reads of a spool."""
    if isinstance(x, SpooledEpochs):
        return x.blocks()
    return (x[i : i + ROW_BLOCK] for i in range(0, len(x), ROW_BLOCK))


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), ROW_BLOCK rows at a time, without an x-sized mask."""
    return all(np.isfinite(block).all() for block in _row_blocks(x))


def _is_eeg(label: str) -> bool:
    return label.upper().startswith("EEG")


def preprocess_record(
    record: RawRecord,
    channels: list[str],
    filter_all_channels: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One record -> (x (n, C, T) float32, y (n,) uint8), x all finite.

    Band-pass is applied to EEG channels only (the recorded signals the
    filter is specified for) unless filter_all_channels is set. Each
    channel is z-scored per record over the retained epochs. A record
    whose epochs come out NaN or infinite raises NonFiniteSignal, and no
    numpy warning is emitted on the way.

    Channels are read from `record.psg_path` one at a time: read (into
    the filter's padded float64 buffer when band-passed), filter in
    place, epoch into one float64 buffer, z-score, round into the
    channel's slab of x, then dropped. x is channel-major, a (n, C, T)
    view on (C, n, T) memory: each channel's epochs are one contiguous
    slab, and only the slabs written so far are touched. Its epochs are
    interleaved into (epoch, channel, sample) order a block at a time,
    where they are written out (`spool_epochs`, `write_cache`).

    A record's peak is one channel's trace (the padded float64 buffer of
    a band-passed channel, 63 MB for 22 h at 100 Hz, or the float32 trace
    of another, 32 MB), the float64 epoch buffer (26 MB for 1,083 kept
    epochs) and the float32 slabs done so far (13 MB a channel). The
    benchmark's `ingest` peak fell from 274 to 236 MiB with it, 106 MiB
    of which are the imports.
    """
    # NaN or infinity in a trace is reported once, by the check at the end
    with np.errstate(invalid="ignore", over="ignore"):
        header = record.header
        lengths = [header.n_data_records * header.samples_per_record[record.channels[c]]
                   for c in channels if c in record.channels]
        per_epoch = expand_events(record.events, max(lengths, default=0) // EPOCH_SAMPLES)
        entries = [(i, lab) for i, lab in enumerate(per_epoch) if lab is not None]
        if not entries:
            raise AllWake(f"{record.subject_key} night {record.night}: no scored epochs")
        start, stop = trim_wake([lab for _, lab in entries])
        retained = entries[start:stop]

        for label in channels:
            if label not in record.channels:
                raise MissingChannel(f"{label!r} absent from record {record.subject_key}")

        t = EPOCH_SAMPLES
        n = len(retained)
        # mean() and std() sum in the order numpy takes over x[:, c] of a float64
        # (n, C, T) array, the order that fixes the cache bytes: rows T + 1 apart
        # cannot be merged into one run, like those of x[:, c]; with C == 1 that
        # slice is one run.
        epochs = np.empty((n, t + (len(channels) > 1)))[:, :t]
        # allocated after epochs, which takes the heap memory an earlier record
        # freed, so x is mapped fresh and only the slabs it is given are resident
        x = np.empty((len(channels), n, t), dtype=np.float32).transpose(1, 0, 2)
        with open(record.psg_path, "rb") as fh:
            for c, label in enumerate(channels):
                filtered = filter_all_channels or _is_eeg(label)
                trace = read_signal(fh, header, record.channels[label],
                                    bandpass().padlen if filtered else 0)
                samples = filtfilt(trace.padded, trace.pad) if filtered else trace.samples
                del trace  # so that dropping samples frees the channel's buffer
                for row, (epoch_idx, _) in enumerate(retained):
                    lo = epoch_idx * t
                    if lo + t > len(samples):
                        raise EpochAlignmentError(
                            f"epoch {epoch_idx} needs samples up to {lo + t}, "
                            f"signal has {len(samples)}"
                        )
                    epochs[row] = samples[lo : lo + t]
                del samples
                mean = epochs.mean()
                std = epochs.std()
                if std == 0:
                    raise DegenerateSignal(f"channel {label!r} constant over retained epochs")
                epochs -= mean
                epochs /= std
                x[:, c] = epochs
    if not _all_finite(x):
        raise NonFiniteSignal("preprocessed epochs hold NaN or infinity")
    y = np.array([int(lab) for _, lab in retained], dtype=np.uint8)
    return x, y


def spool_epochs(
    chunks: Iterable[tuple[str, np.ndarray, np.ndarray]],
    channels: list[str],
    spool_dir: str | Path | None = None,
) -> EpochDataset:
    """Concatenate (subject_key, x, y) chunks, as `preprocess_record` gives them, on disk.

    Each chunk's epochs go to an unnamed spool file in `spool_dir` as they
    arrive, so kept epochs take no memory while later records are
    preprocessed. The dataset's x is a SpooledEpochs on that file: close it
    when done. The chunks are not checked again here; `write_cache`
    validates what it writes.
    """
    ys, subjects = [], []
    spool = tempfile.TemporaryFile(dir=spool_dir)
    try:
        for key, x, y in chunks:
            # a channel-major x is interleaved a block at a time, never whole
            spool.writelines(np.ascontiguousarray(b, dtype=np.float32) for b in _row_blocks(x))
            ys.append(y)
            subjects.extend([key] * len(y))
            del x, y
    except BaseException:
        spool.close()
        raise
    y_all = np.concatenate(ys) if ys else np.zeros(0, dtype=np.uint8)
    x = SpooledEpochs(spool, (len(y_all), len(channels), EPOCH_SAMPLES))
    return EpochDataset(x=x, y=y_all, subject_keys=subjects, channel_labels=list(channels))


# --- binary cache ---------------------------------------------------------
#
# magic "ULWS" | u8 version | u64 N, C, T | u32 sample rate, always SAMPLE_RATE_HZ
# | C x (u32 len + utf-8) channel labels | N x (u32 len + utf-8) subject keys
# | N*C*T float32 LE payload in (epoch, channel, sample) order | N x u8 labels
# | u32 CRC-32 of everything after the magic


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return len(raw).to_bytes(4, "little") + raw


def write_cache(dataset: EpochDataset, path: str | Path) -> str:
    """Atomically write `dataset`, its arrays in place, a spooled x block by block.

    An x that is not in (epoch, channel, sample) order, as the channel-major
    epochs of `preprocess_record`, is interleaved a block at a time.

    Each x block is checked for NaN and infinity as it is written, so a
    spool is read once; a non-finite block raises NonFiniteSignal and
    leaves no file. Returns the CRC-32 written.
    """
    dataset.validate()
    n, c, t = dataset.x.shape
    head = bytearray()
    head += n.to_bytes(8, "little") + c.to_bytes(8, "little") + t.to_bytes(8, "little")
    head += int(SAMPLE_RATE_HZ).to_bytes(4, "little")
    for label in dataset.channel_labels:
        head += _pack_str(label)
    for key in dataset.subject_keys:
        head += _pack_str(key)

    def finite(block: np.ndarray) -> np.ndarray:
        if not np.isfinite(block).all():
            raise NonFiniteSignal("epochs hold NaN or infinity")
        return np.ascontiguousarray(block, dtype="<f4")

    x_blocks = map(finite, _row_blocks(dataset.x))
    y = np.ascontiguousarray(dataset.y, dtype=np.uint8)
    return container.write(
        path, CACHE_MAGIC, CACHE_VERSION, itertools.chain([head], x_blocks, [y])
    )


def read_cache(path: str | Path) -> EpochDataset:
    """Read and validate a cache; x and y are views on the one buffer the file was read into."""
    body, crc = container.read(path, CACHE_MAGIC, CACHE_VERSION, "dataset cache")
    if len(body) < 28:
        raise ChecksumMismatch(f"{path}: header truncated")
    n, c, t = (int.from_bytes(body[i : i + 8], "little") for i in (0, 8, 16))
    rate = int.from_bytes(body[24:28], "little")
    if rate != SAMPLE_RATE_HZ:  # the model's time grid is SAMPLE_RATE_HZ samples a second
        raise InvalidDataset(f"{path}: epochs sampled at {rate} Hz, need {SAMPLE_RATE_HZ:g} Hz")
    pos = 28

    def unpack_str() -> str:
        nonlocal pos
        length = int.from_bytes(body[pos : pos + 4], "little")
        if pos + 4 + length > len(body):
            raise ChecksumMismatch(f"{path}: header truncated")
        try:
            s = str(body[pos + 4 : pos + 4 + length], "utf-8")
        except UnicodeDecodeError:
            raise InvalidDataset(f"{path}: a channel label or subject key is not UTF-8") from None
        pos += 4 + length
        return s

    channel_labels = [unpack_str() for _ in range(c)]
    subject_keys = [unpack_str() for _ in range(n)]
    payload = n * c * t * 4
    extra = len(body) - (pos + payload + n)
    if extra:
        raise ChecksumMismatch(f"{path}: body is {extra:+d} bytes off the size its header gives")
    x = np.frombuffer(body, dtype="<f4", count=n * c * t, offset=pos).reshape(n, c, t)
    y = np.frombuffer(body, dtype=np.uint8, count=n, offset=pos + payload)
    dataset = EpochDataset(
        x=x, y=y, subject_keys=subject_keys, channel_labels=channel_labels, crc32=crc
    )
    try:  # a CRC-valid file may still hold NaN or a label past the stages
        if not _all_finite(x):
            raise NonFiniteSignal("epochs hold NaN or infinity")
        dataset.validate()
    except UlwsError as e:
        raise type(e)(f"{path}: {e}") from None
    return dataset
