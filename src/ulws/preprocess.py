"""RawRecord -> model-ready epoch tensors.

Band-pass filtering of the EEG channels, stage-text mapping, wake-period
trimming around the main sleep span, 30-second epoching with per-record
z-scoring, and a checksummed binary dataset cache.

Records stream through `stream_epochs` one at a time, so memory holds one
raw record and the epochs kept so far wait in a spool file, not in RAM.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import container
from .edf import RawRecord
from .errors import (
    AllWake,
    ChecksumMismatch,
    DegenerateSignal,
    EpochAlignmentError,
    InvalidBand,
    InvalidDataset,
    MissingChannel,
    NonFiniteSignal,
    SignalTooShort,
    UlwsError,
    UnknownLabel,
)

EPOCH_SECONDS = 30.0
SAMPLE_RATE_HZ = 100.0
EPOCH_SAMPLES = int(EPOCH_SECONDS * SAMPLE_RATE_HZ)  # T = 3000

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


@dataclass
class FilterSpec:
    """Band-pass as cascaded biquads, a0 normalized to 1.

    sections[i] = (b0, b1, b2, a1, a2)
    """

    sections: np.ndarray
    low_hz: float
    high_hz: float
    order: int
    sample_rate_hz: float

    def as_sos(self) -> np.ndarray:
        """scipy layout: (b0, b1, b2, a0, a1, a2) with a0 == 1."""
        s = np.asarray(self.sections, dtype=np.float64)
        return np.concatenate(
            [s[:, :3], np.ones((len(s), 1)), s[:, 3:]], axis=1
        )

    def is_stable(self) -> bool:
        for _, _, _, a1, a2 in np.asarray(self.sections, dtype=np.float64):
            if np.any(np.abs(np.roots([1.0, a1, a2])) >= 1.0):
                return False
        return True


def design_bandpass(
    low_hz: float = 0.3,
    high_hz: float = 45.0,
    sample_rate_hz: float = SAMPLE_RATE_HZ,
    order: int = 4,
) -> FilterSpec:
    """Butterworth band-pass as second-order sections.

    `order` follows the usual prototype convention: butter(order, band)
    yields `order` biquad sections. The -3 dB points sit at the cutoffs.
    """
    import scipy.signal  # ~1 s to import; only EDF ingest designs or applies filters

    if not 0 < low_hz < high_hz < sample_rate_hz / 2:
        raise InvalidBand(
            f"need 0 < low < high < Nyquist, got ({low_hz}, {high_hz}) at {sample_rate_hz} Hz"
        )
    sos = scipy.signal.butter(
        order, [low_hz, high_hz], btype="bandpass", fs=sample_rate_hz, output="sos"
    )
    assert np.allclose(sos[:, 3], 1.0)
    spec = FilterSpec(
        sections=sos[:, [0, 1, 2, 4, 5]].copy(),
        low_hz=low_hz,
        high_hz=high_hz,
        order=order,
        sample_rate_hz=sample_rate_hz,
    )
    if not spec.is_stable():
        raise InvalidBand(f"unstable design for band ({low_hz}, {high_hz})")
    return spec


def _impulse_length(sos: np.ndarray) -> int:
    """Samples until the slowest pole has decayed by 99%."""
    ntaps = 2 * len(sos) + 1
    settle = ntaps
    for section in sos:
        radii = np.abs(np.roots(section[3:]))
        r = radii.max() if radii.size else 0.0
        if 0.0 < r < 1.0:
            settle = max(settle, int(np.ceil(np.log(0.01) / np.log(r))))
    return settle


def pad_length(spec: FilterSpec) -> int:
    """Reflective edge padding: 3x the impulse-length heuristic.

    Sized so boundary transients decay below ~1e-6 before reaching real
    samples, which keeps the forward-backward pass zero-phase and
    time-reversal symmetric to well under 1e-5.
    """
    return 3 * _impulse_length(spec.as_sos())


def filtfilt(signal: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Zero-phase forward-backward application of the section cascade."""
    x = np.asarray(signal, dtype=np.float64)
    padlen = pad_length(spec)
    if x.shape[-1] <= padlen:
        raise SignalTooShort(f"need more than {padlen} samples, got {x.shape[-1]}")
    import scipy.signal

    return scipy.signal.sosfiltfilt(spec.as_sos(), x, padtype="odd", padlen=padlen)


def trim_wake(labels: list[StageClass]) -> tuple[int, int]:
    """Index range keeping the sleep span plus 30 min of wake on each side."""
    sleep = [i for i, lab in enumerate(labels) if lab != StageClass.WAKE]
    if not sleep:
        raise AllWake("record contains no sleep epochs")
    first, last = sleep[0], sleep[-1]
    return max(0, first - WAKE_MARGIN_EPOCHS), min(len(labels), last + WAKE_MARGIN_EPOCHS + 1)


def expand_events(events, record_epochs: int | None = None) -> list[StageClass | None]:
    """Per-30s-epoch stage labels from hypnogram events.

    Events must sit on the 30 s grid; gaps between events come out as None
    (excluded later, like MOVEMENT/UNKNOWN epochs).

    With `record_epochs`, the whole epochs the record's signals hold, the
    list stops at the record's end however far an event reaches. A sleep
    stage scored past the end raises EpochAlignmentError. Wake scored past
    the end becomes one WAKE at index `record_epochs`: trimming keeps it
    exactly where it would keep the first of those epochs, and the signal
    then rejects it, so every record keeps the outcome it has without the
    bound. Unscored epochs past the end are dropped.
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
    if record_epochs is not None and end > record_epochs:
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


@dataclass
class EpochDataset:
    """N preprocessed epochs: x is (N, C, T) float32, y holds StageClass values."""

    x: np.ndarray
    y: np.ndarray
    subject_keys: list[str]
    channel_labels: list[str]
    sample_rate_hz: float = SAMPLE_RATE_HZ

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
        if self.x.ndim != 3 or self.x.dtype != np.float32:
            raise InvalidDataset(f"x must be (N, C, T) float32, got {self.x.dtype} {self.x.shape}")
        n = self.n_epochs
        if len(self.y) != n or len(self.subject_keys) != n:
            raise InvalidDataset(
                f"{n} epochs but {len(self.y)} labels and {len(self.subject_keys)} subject keys"
            )
        if not _all_finite(self.x):
            raise NonFiniteSignal("epochs hold NaN or infinity")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= N_STAGES):
            raise InvalidDataset(f"labels outside [0, {N_STAGES})")

    def equals(self, other: "EpochDataset") -> bool:
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and self.subject_keys == other.subject_keys
            and self.channel_labels == other.channel_labels
            and self.sample_rate_hz == other.sample_rate_hz
        )


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), 256 rows at a time, without an x-sized mask."""
    return all(np.isfinite(x[i : i + 256]).all() for i in range(0, len(x), 256))


def _is_eeg(label: str) -> bool:
    return label.upper().startswith("EEG")


def preprocess_record(
    record: RawRecord,
    channels: list[str],
    filter_spec: FilterSpec | None = None,
    filter_all_channels: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One record -> (x (n, C, T) float32, y (n,) uint8).

    Band-pass is applied to EEG channels only (the recorded signals the
    filter is specified for) unless filter_all_channels is set. Each
    channel is z-scored per record over the retained epochs.
    """
    if filter_spec is None:
        filter_spec = design_bandpass()

    lengths = [len(record.signals[c].samples) for c in channels if c in record.signals]
    per_epoch = expand_events(record.events, max(lengths, default=0) // EPOCH_SAMPLES)
    entries = [(i, lab) for i, lab in enumerate(per_epoch) if lab is not None]
    if not entries:
        raise AllWake(f"{record.subject_key} night {record.night}: no scored epochs")
    start, stop = trim_wake([lab for _, lab in entries])
    retained = entries[start:stop]

    for label in channels:
        if label not in record.signals:
            raise MissingChannel(f"{label!r} absent from record {record.subject_key}")

    t = EPOCH_SAMPLES
    n = len(retained)
    x = np.empty((n, len(channels), t), dtype=np.float64)
    # one channel's float64 trace at a time: widen, filter, epoch, z-score
    for c, label in enumerate(channels):
        samples = np.asarray(record.signals[label].samples, dtype=np.float64)
        if filter_all_channels or _is_eeg(label):
            samples = filtfilt(samples, filter_spec)
        for row, (epoch_idx, _) in enumerate(retained):
            lo = epoch_idx * t
            if lo + t > len(samples):
                raise EpochAlignmentError(
                    f"epoch {epoch_idx} needs samples up to {lo + t}, signal has {len(samples)}"
                )
            x[row, c] = samples[lo : lo + t]
        del samples
        mean = x[:, c].mean()
        std = x[:, c].std()
        if std == 0:
            raise DegenerateSignal(f"channel {label!r} constant over retained epochs")
        x[:, c] -= mean
        x[:, c] /= std

    y = np.array([int(lab) for _, lab in retained], dtype=np.uint8)
    return x.astype(np.float32), y


def stream_epochs(
    records: Iterable[RawRecord],
    channels: list[str],
    filter_spec: FilterSpec | None = None,
    filter_all_channels: bool = False,
    on_skip: Callable[[str, UlwsError], None] | None = None,
) -> Iterator[tuple[str, int, np.ndarray, np.ndarray]]:
    """Preprocess records one at a time: (subject_key, night, x, y) per kept record.

    `records` may be lazy; each raw record is dropped as soon as its epochs
    exist, before the next one is asked for. A record whose epochs are not
    all finite is rejected with NonFiniteSignal. With `on_skip` None a
    UlwsError propagates; otherwise `on_skip("<subject> night <n>", error)`
    is called and the record is skipped.
    """
    if filter_spec is None:
        filter_spec = design_bandpass()
    for record in records:
        key, night = record.subject_key, record.night
        try:
            # NaN or infinity in a trace is reported once, by the check below
            with np.errstate(invalid="ignore", over="ignore"):
                x, y = preprocess_record(record, channels, filter_spec, filter_all_channels)
            if not _all_finite(x):
                raise NonFiniteSignal("preprocessed epochs hold NaN or infinity")
        except UlwsError as e:
            if on_skip is None:
                raise
            on_skip(f"{key} night {night}", e)
            continue
        finally:
            del record
        yield key, night, x, y
        del x, y  # hold no chunk while the next record loads


def collect_epochs(
    chunks: Iterable[tuple[str, int, np.ndarray, np.ndarray]],
    channels: list[str],
    spool_dir: str | Path | None = None,
) -> EpochDataset:
    """Concatenate `stream_epochs` chunks into one validated EpochDataset.

    Each chunk's epochs go to an unnamed spool file in `spool_dir` as they
    arrive, so kept epochs take no memory while later records are
    preprocessed; x is read back into one array at the end.
    """
    ys, subjects = [], []
    with tempfile.TemporaryFile(dir=spool_dir) as spool:
        for key, _, x, y in chunks:
            spool.write(np.ascontiguousarray(x, dtype=np.float32))
            ys.append(y)
            subjects.extend([key] * len(y))
            del x, y
        y_all = np.concatenate(ys) if ys else np.zeros(0, dtype=np.uint8)
        x_all = np.empty((len(y_all), len(channels), EPOCH_SAMPLES), dtype=np.float32)
        spool.seek(0)
        container.read_exact(spool, x_all)
    dataset = EpochDataset(x=x_all, y=y_all, subject_keys=subjects, channel_labels=list(channels))
    dataset.validate()
    return dataset


def build_epoch_dataset(
    records: list[RawRecord],
    channels: list[str],
    filter_spec: FilterSpec | None = None,
    filter_all_channels: bool = False,
) -> EpochDataset:
    """Preprocess and concatenate records in deterministic (subject, night) order."""
    ordered = sorted(records, key=lambda r: (r.subject_key, r.night))
    return collect_epochs(
        stream_epochs(ordered, channels, filter_spec, filter_all_channels), channels
    )


# --- binary cache ---------------------------------------------------------
#
# magic "ULWS" | u8 version | u64 N, C, T | u32 sample_rate
# | C x (u32 len + utf-8) channel labels | N x (u32 len + utf-8) subject keys
# | N*C*T float32 LE payload in (epoch, channel, sample) order | N x u8 labels
# | u32 CRC-32 of everything after the magic


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return len(raw).to_bytes(4, "little") + raw


def write_cache(dataset: EpochDataset, path: str | Path) -> None:
    """Atomically write `dataset`; its arrays are checksummed and written in place."""
    dataset.validate()
    n, c, t = dataset.x.shape
    head = bytearray()
    head += n.to_bytes(8, "little") + c.to_bytes(8, "little") + t.to_bytes(8, "little")
    head += int(round(dataset.sample_rate_hz)).to_bytes(4, "little")
    for label in dataset.channel_labels:
        head += _pack_str(label)
    for key in dataset.subject_keys:
        head += _pack_str(key)
    container.write(
        path,
        CACHE_MAGIC,
        CACHE_VERSION,
        [
            head,
            np.ascontiguousarray(dataset.x, dtype="<f4"),
            np.ascontiguousarray(dataset.y, dtype=np.uint8),
        ],
    )


def read_cache(path: str | Path) -> EpochDataset:
    """Read a cache; x and y are views on the one buffer the file was read into."""
    body = container.read(path, CACHE_MAGIC, CACHE_VERSION, "dataset cache")
    if len(body) < 28:
        raise ChecksumMismatch(f"{path}: header truncated")
    n, c, t = (int.from_bytes(body[i : i + 8], "little") for i in (0, 8, 16))
    rate = int.from_bytes(body[24:28], "little")
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
    return EpochDataset(
        x=x, y=y, subject_keys=subject_keys, channel_labels=channel_labels,
        sample_rate_hz=float(rate),
    )
