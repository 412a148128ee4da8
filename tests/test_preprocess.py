import dataclasses
import gc
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from edf_fixtures import FixtureSignal, edf_bytes, hypnogram_bytes, psg_bytes, sine_digital
from oracles import best_lag, concatenated_dataset, preprocess_whole_record, sos_gain
from ulws import container, preprocess
from ulws.edf import HypnogramEvent, load_record, parse_hypnogram, read_signal
from ulws.errors import (
    AllWake,
    BadMagic,
    ChecksumMismatch,
    EpochAlignmentError,
    DegenerateSignal,
    InvalidDataset,
    MissingChannel,
    NonFiniteSignal,
    SignalTooShort,
    TruncatedData,
    UnknownLabel,
    VersionMismatch,
)
from ulws.model import ModelConfig, build_model, save_checkpoint
from ulws.preprocess import (
    BAND_HZ,
    CACHE_MAGIC,
    FILTER_BLOCK,
    FILTER_ORDER,
    EPOCH_SAMPLES,
    ROW_BLOCK,
    EpochDataset,
    FileEpochs,
    StageClass,
    expand_events,
    filtfilt,
    map_stage_label,
    preprocess_record,
    read_cache,
    trim_wake,
    write_cache,
)
from ulws.synthetic import sinusoid_dataset

RATE = 100.0


@pytest.fixture(scope="module")
def bandpass():
    return preprocess.bandpass().sos


# --- filter design -----------------------------------------------------------

def test_dc_gain_is_zero(bandpass):
    assert sos_gain(bandpass, 0.0, RATE) < 1e-12


def test_passband_gain_near_unity(bandpass):
    assert 0.99 <= sos_gain(bandpass, 10.0, RATE) <= 1.01


def test_cutoff_gain_is_half_power(bandpass):
    for cutoff in (0.3, 45.0):
        assert sos_gain(bandpass, cutoff, RATE) == pytest.approx(
            2 ** -0.5, rel=0.02
        )


def test_sections_are_stable(bandpass):
    for denominator in bandpass[:, 3:]:
        assert np.all(np.abs(np.roots(denominator)) < 1.0)


def test_band_pass_pads_three_decay_lengths_of_its_slowest_pole():
    assert preprocess.bandpass().padlen == 1920  # 3 x 640 samples


def test_the_shared_band_pass_is_read_only():
    sos, zi, _ = preprocess.bandpass()
    before = sos.copy(), zi.copy()
    for array in (sos, zi):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    filtfilt(np.random.default_rng(3).standard_normal(5000))
    assert preprocess.bandpass().sos is sos  # one design per process
    assert np.array_equal(sos, before[0]) and np.array_equal(zi, before[1])


def test_default_design_is_scipys_butterworth_sos():
    expected = scipy.signal.butter(
        FILTER_ORDER, list(BAND_HZ), btype="bandpass", fs=RATE, output="sos"
    )
    assert np.array_equal(preprocess.bandpass().sos, expected)


# --- zero-phase filtering ------------------------------------------------------

def test_filtfilt_zero_in_zero_out():
    out = filtfilt(np.zeros(5000))
    assert out.shape == (5000,)
    assert np.all(out == 0.0)


def test_filtfilt_preserves_passband_tone_with_zero_lag():
    t = np.arange(6000) / RATE
    x = np.sin(2 * np.pi * 10.0 * t)
    y = filtfilt(x)
    core = slice(500, 5500)  # ignore edges
    amp_ratio = np.abs(y[core]).max() / np.abs(x[core]).max()
    assert amp_ratio == pytest.approx(1.0, abs=0.02)
    assert best_lag(x[core], y[core], max_lag=20) == 0


def test_filtfilt_rejects_dc():
    x = np.full(4000, 7.5)
    y = filtfilt(x)
    interior = y[500:-500]  # discard 5 s on each edge
    assert np.abs(interior).max() < 1e-3 * 7.5


def test_filtfilt_too_short():
    with pytest.raises(SignalTooShort):
        filtfilt(np.zeros(10))
    padlen = preprocess.bandpass().padlen
    with pytest.raises(SignalTooShort):
        filtfilt(np.zeros(2 * padlen + 10), padlen)


@pytest.mark.parametrize("dtype,short", [(np.float32, 0), (np.float64, 1)])
def test_filtfilt_in_place_needs_float64_with_padlen_samples_of_room(dtype, short):
    pad = preprocess.bandpass().padlen - short
    with pytest.raises(ValueError):
        filtfilt(np.zeros(5000 + 2 * pad, dtype), pad)


def test_filtfilt_linear():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(4000), rng.standard_normal(4000)
    a, b = 2.5, -0.7
    lhs = filtfilt(a * x + b * y)
    rhs = a * filtfilt(x) + b * filtfilt(y)
    assert np.abs(lhs - rhs).max() <= 1e-5 * max(1.0, np.abs(lhs).max())


def test_filtfilt_commutes_with_time_reversal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4000)
    direct = filtfilt(x)
    reversed_path = filtfilt(x[::-1])[::-1]
    scale = max(1.0, np.abs(direct).max())
    assert np.abs(direct - reversed_path).max() <= 1e-5 * scale


_PADLEN = preprocess.bandpass().padlen


@pytest.mark.parametrize("n", [
    _PADLEN + 1,
    FILTER_BLOCK - 1, FILTER_BLOCK, FILTER_BLOCK + 1,
    # the padded buffer one short of, equal to and one past a block
    FILTER_BLOCK - 2 * _PADLEN - 1, FILTER_BLOCK - 2 * _PADLEN, FILTER_BLOCK - 2 * _PADLEN + 1,
    3 * FILTER_BLOCK + 17,
])
@pytest.mark.parametrize("layout", ["float32", "float64", "strided"])
def test_filtfilt_is_bit_identical_to_scipy(n, layout):
    sos = preprocess.bandpass().sos.copy()
    rng = np.random.default_rng(n)
    if layout == "strided":
        x = 40.0 * rng.standard_normal(2 * n)[::2]
    else:
        x = (40.0 * rng.standard_normal(n)).astype(layout)
    expected = scipy.signal.sosfiltfilt(
        sos, np.asarray(x, dtype=np.float64), padtype="odd", padlen=preprocess.bandpass().padlen
    )
    out = filtfilt(x)
    assert out.dtype == np.float64 and out.shape == (n,)
    assert np.array_equal(out, expected)


# --- stage mapping ---------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("Sleep stage W", StageClass.WAKE),
        ("Sleep stage 1", StageClass.N1),
        ("Sleep stage 2", StageClass.N2),
        ("Sleep stage 3", StageClass.N3),
        ("Sleep stage 4", StageClass.N3),
        ("Sleep stage R", StageClass.REM),
        ("Movement time", None),
        ("Sleep stage ?", None),
    ],
)
def test_stage_mapping(text, expected):
    assert map_stage_label(text) is expected


def test_unknown_stage_text():
    with pytest.raises(UnknownLabel):
        map_stage_label("Sleep stage Z")


# --- wake trimming ----------------------------------------------------------------

def test_trim_wake_hand_counted():
    labels = (
        [StageClass.WAKE] * 200 + [StageClass.N2] * 100 + [StageClass.WAKE] * 200
    )
    # first sleep at 200 -> start 140; last sleep at 299 -> stop 299 + 61 = 360,
    # keeping exactly 60 wake epochs (30 min) on each side
    assert trim_wake(labels) == (140, 360)


def test_trim_wake_clamps():
    labels = [StageClass.WAKE] * 10 + [StageClass.REM] * 5 + [StageClass.WAKE] * 10
    assert trim_wake(labels) == (0, 25)


def test_trim_wake_all_wake():
    with pytest.raises(AllWake):
        trim_wake([StageClass.WAKE] * 50)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=300))
def test_trim_wake_matches_brute_force(raw):
    labels = [StageClass(v) for v in raw]
    sleep_positions = [i for i, lab in enumerate(labels) if lab != StageClass.WAKE]
    if not sleep_positions:
        with pytest.raises(AllWake):
            trim_wake(labels)
        return
    start, stop = trim_wake(labels)
    # brute force: scan for first/last sleep, widen by 60, clamp
    first = min(sleep_positions)
    last = max(sleep_positions)
    assert start == max(0, first - 60)
    assert stop == min(len(labels), last + 61)
    assert all(start <= i < stop for i in sleep_positions)


# --- event expansion -----------------------------------------------------------------

def test_expand_events_conserves_time():
    events = [
        HypnogramEvent(0, 600, "Sleep stage W"),
        HypnogramEvent(600, 300, "Sleep stage 1"),
        HypnogramEvent(900, 900, "Sleep stage ?"),
    ]
    labels = expand_events(events, 60)
    assert len(labels) == 60  # 1800 s / 30 s
    covered = sum(ev.duration_s for ev in events)
    assert covered == 30.0 * len(labels)  # events tile the whole span here
    assert labels[:20] == [StageClass.WAKE] * 20
    assert labels[20:30] == [StageClass.N1] * 10
    assert labels[30:] == [None] * 30


def test_expand_events_gap_is_unscored():
    events = [
        HypnogramEvent(0, 30, "Sleep stage W"),
        HypnogramEvent(90, 30, "Sleep stage 2"),
    ]
    labels = expand_events(events, 4)
    assert labels == [StageClass.WAKE, None, None, StageClass.N2]


def test_expand_events_off_grid():
    with pytest.raises(EpochAlignmentError):
        expand_events([HypnogramEvent(0, 45, "Sleep stage W")], 2)
    with pytest.raises(EpochAlignmentError):
        expand_events([HypnogramEvent(15, 30, "Sleep stage W")], 2)


# --- dataset assembly ------------------------------------------------------------------

def stage_events(pattern: list[tuple[str, int]]):
    """[(stage text, n_epochs), ...] -> contiguous hypnogram events."""
    events, onset = [], 0.0
    for text, n in pattern:
        events.append((onset, 30.0 * n, text))
        onset += 30.0 * n
    return events


TOY_STAGES = [
    ("Sleep stage W", 5),
    ("Sleep stage 1", 5),
    ("Sleep stage 2", 10),
    ("Sleep stage ?", 1),
    ("Sleep stage 3", 5),
    ("Sleep stage R", 9),
    ("Sleep stage W", 5),
]
CHANNELS = ["EEG Fpz-Cz", "EEG Pz-Oz", "EOG horizontal", "EMG submental"]


@pytest.fixture(scope="module")
def toy_record(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("edf")
    psg = tmp / "SC4001E0-PSG.edf"
    hyp = tmp / "SC4001EC-Hypnogram.edf"
    psg.write_bytes(psg_bytes(n_epochs=40, seed=11))
    hyp.write_bytes(hypnogram_bytes(stage_events(TOY_STAGES)))
    return load_record(psg, hyp, CHANNELS), list(CHANNELS)


def test_build_dataset_shapes_and_labels(toy_record):
    record, channels = toy_record
    x, y = preprocess_record(record, channels)
    # 40 scored minus 1 unscored -> 39 retained (wake margins stay, < 60 epochs)
    assert x.shape == (39, 4, 3000)
    assert x.dtype == np.float32
    assert y.shape == (39,) and y.dtype == np.uint8
    counts = np.bincount(y, minlength=5)
    assert counts.tolist() == [10, 5, 10, 5, 9]


def test_unscored_epoch_reduces_count(toy_record):
    record, channels = toy_record
    x, y = preprocess_record(record, channels)
    total_scored_slots = 40
    assert len(x) == len(y) == total_scored_slots - 1


def test_standardization_per_channel(toy_record):
    record, channels = toy_record
    x, _ = preprocess_record(record, channels)
    for c in range(4):
        values = x[:, c, :].astype(np.float64)
        assert abs(values.mean()) <= 1e-4
        assert values.var() == pytest.approx(1.0, abs=1e-3)


def test_epoch_alignment_error(toy_record, monkeypatch):
    record, channels = toy_record

    def short_read(fh, header, i, pad):  # every channel 6000 samples short of its header
        trace = read_signal(fh, header, i, pad)
        return type(trace)(trace.sample_rate_hz, trace.samples[:-6000])

    monkeypatch.setattr(preprocess, "read_signal", short_read)
    with pytest.raises(EpochAlignmentError):
        preprocess_record(record, channels)


# --- cache round trip ---------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    ds = sinusoid_dataset(n_epochs=10, n_channels=3, epoch_samples=120, seed=5)
    path = tmp_path / "toy.ulws"
    write_cache(ds, path)
    again = read_cache(path)
    assert again.equals(ds)


def test_cache_round_trip_empty(tmp_path):
    ds = EpochDataset(
        x=np.zeros((0, 2, 3000), dtype=np.float32),
        y=np.zeros(0, dtype=np.uint8),
        subject_keys=[],
        channel_labels=["EEG Fpz-Cz", "EOG horizontal"],
    )
    path = tmp_path / "empty.ulws"
    write_cache(ds, path)
    assert read_cache(path).equals(ds)


def test_cache_corruption_detected(tmp_path):
    ds = sinusoid_dataset(n_epochs=4, n_channels=2, epoch_samples=60, seed=6)
    path = tmp_path / "toy.ulws"
    write_cache(ds, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        read_cache(path)


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.ulws"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        read_cache(path)


def test_cache_version_mismatch(tmp_path):
    import zlib

    ds = sinusoid_dataset(n_epochs=2, n_channels=1, epoch_samples=30, seed=7)
    path = tmp_path / "toy.ulws"
    write_cache(ds, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # version byte
    body = bytes(blob[4:-4])
    path.write_bytes(blob[:4] + body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(VersionMismatch):
        read_cache(path)


def test_read_cache_x_reads_the_rows_it_is_asked_for(tmp_path, monkeypatch):
    """x holds no epochs: each index reads its rows from the file that read_cache
    verified into a new float32 array, as numpy indexes the epochs, with one
    preadv for each run of adjacent rows. An atomic replace of the path leaves
    the rows as they were."""
    ds = sinusoid_dataset(n_epochs=6, n_channels=2, epoch_samples=50, seed=8)
    path = tmp_path / "toy.ulws"
    write_cache(ds, path)
    x = read_cache(path).x
    assert isinstance(x, FileEpochs)
    assert (x.shape, x.ndim, x.dtype, x.nbytes, len(x)) == (ds.x.shape, 3, np.float32,
                                                             ds.x.nbytes, 6)
    offsets, preadv = [], os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, at: offsets.append(at)
                        or preadv(fd, buffers, at))
    for key, runs in [(slice(1, 5), 1), (4, 1), (-1, 1), ([0, 1, 2, 5], 2),
                      (np.array([5, 4, 3]), 3), ((slice(None), 1), 1),
                      (([3, 3], 0, slice(10, 20)), 2), (np.arange(6) % 2 == 0, 3), ([], 0),
                      ((..., 0), 1), ((2, ..., 7), 1), (([0, 1], [1, 0]), 1),
                      (np.array([5, 0], np.uint8), 2)]:
        offsets.clear()
        got, want = x[key], ds.x[key]
        assert got.dtype == np.float32 and got.shape == want.shape, key
        assert np.array_equal(got, want) and len(offsets) == runs, key
    for key in ([0, 6], (None, 0), (True, 0), np.ones((6, 2), bool)):  # out of range, or not taken
        with pytest.raises(IndexError):
            x[key]
    x[0:2][...] = 0  # each read is the caller's own array
    write_cache(sinusoid_dataset(n_epochs=6, n_channels=2, epoch_samples=50, seed=9), path)
    assert np.array_equal(np.asarray(x), ds.x)


def test_a_cache_cut_short_after_it_was_read_gives_checksum_mismatch(tmp_path):
    """Cut in place into its last epoch: the rows the file still holds read as
    they were written, and the read of the last one names the file."""
    ds = sinusoid_dataset(n_epochs=6, n_channels=2, epoch_samples=50, seed=8)
    path = tmp_path / "toy.ulws"
    write_cache(ds, path)
    x = read_cache(path).x
    os.truncate(path, path.stat().st_size - 100)  # 6 labels, the CRC and 90 payload bytes
    assert np.array_equal(x[:5], ds.x[:5])
    with pytest.raises(ChecksumMismatch, match=f"^{re.escape(str(path))}: truncated"):
        x[5]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
def test_dropping_a_dataset_read_from_a_cache_closes_its_file(tmp_path):
    path = tmp_path / "toy.ulws"
    write_cache(sinusoid_dataset(n_epochs=6, n_channels=2, epoch_samples=50, seed=8), path)
    before = len(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataset = read_cache(path)
        assert len(os.listdir("/proc/self/fd")) == before + 1
        del dataset
        assert len(os.listdir("/proc/self/fd")) == before
        gc.collect()
    assert caught == []


def rewrite_body(path, edit):
    """Apply `edit` to the bytes between magic and CRC and re-seal the CRC."""
    blob = path.read_bytes()
    body = edit(bytearray(blob[4:-4]))
    path.write_bytes(blob[:4] + body + zlib.crc32(body).to_bytes(4, "little"))


@pytest.mark.parametrize(
    "edit",
    [
        lambda b: b[:-1],  # one label short
        lambda b: b + b"\x00",  # a trailing byte
        lambda b: b[:1] + (10**6).to_bytes(8, "little") + b[9:],  # N far beyond the body
        lambda b: b[:20],  # header cut inside the dimensions
    ],
)
def test_cache_body_disagreeing_with_header_is_typed(tmp_path, edit):
    ds = sinusoid_dataset(n_epochs=3, n_channels=2, epoch_samples=40, seed=9)
    path = tmp_path / "toy.ulws"
    write_cache(ds, path)
    rewrite_body(path, edit)
    with pytest.raises(ChecksumMismatch):
        read_cache(path)


@pytest.mark.parametrize("label, key", [(b"EEG \xff", b"S0"), (b"EEG", b"S\xff")])
def test_cache_string_not_utf8_is_typed(tmp_path, label, key):
    """A CRC-valid cache whose channel label or subject key is not UTF-8."""
    head = b"".join(v.to_bytes(8, "little") for v in (1, 1, 2)) + (100).to_bytes(4, "little")
    for s in (label, key):
        head += len(s).to_bytes(4, "little") + s
    path = tmp_path / "bad.ulws"
    container.write(path, CACHE_MAGIC, 1, [head, np.zeros(2, "<f4"), np.zeros(1, np.uint8)])
    with pytest.raises(InvalidDataset, match="not UTF-8"):
        read_cache(path)


# --- typed validation -----------------------------------------------------------------

def toy_dataset(**changes):
    ds = sinusoid_dataset(n_epochs=4, n_channels=2, epoch_samples=30, seed=10)
    for name, value in changes.items():
        setattr(ds, name, value)
    return ds


@pytest.mark.parametrize(
    "changes, error",
    [
        ({}, None),
        ({"x": np.zeros((4, 2, 30), np.float64)}, InvalidDataset),
        ({"x": np.zeros((4, 60), np.float32)}, InvalidDataset),
        ({"y": np.zeros(3, np.uint8)}, InvalidDataset),
        ({"subject_keys": ["S"] * 5}, InvalidDataset),
        ({"y": np.array([0, 1, 2, 5], np.uint8)}, InvalidDataset),
        ({"y": np.array([0, -1, 2, 3])}, InvalidDataset),
    ],
)
def test_validate_raises_typed_errors(changes, error):
    ds = toy_dataset(**changes)
    if error is None:
        ds.validate()
    else:
        with pytest.raises(error):
            ds.validate()


@pytest.mark.parametrize("changes", [
    {"channel_labels": ["EEG"]},
    {"channel_labels": ["EEG", "EOG", "EMG"]},
    {"channel_labels": ["EEG", "EOG\udcff"]},
    {"subject_keys": ["S0", "S0", "S1", "SC40\udcff"]},
], ids=["too-few-labels", "too-many-labels", "label-not-utf8", "key-not-utf8"])
def test_a_dataset_read_cache_would_refuse_is_never_written(tmp_path, changes):
    with pytest.raises(InvalidDataset):
        write_cache(toy_dataset(**changes), tmp_path / "toy.ulws")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_dataset_is_never_written(tmp_path, bad):
    ds = toy_dataset()
    ds.x[3, 1, 29] = bad
    path = tmp_path / "toy.ulws"
    with pytest.raises(NonFiniteSignal):
        write_cache(ds, path)
    assert list(tmp_path.iterdir()) == []


# --- ingest against the whole-record oracle ---------------------------------------------

def one_second_records_psg():
    """1 s data records (many per read block) behind an unwanted 1 Hz channel.

    EMG has a physical range of its own, on a large DC offset.
    """
    signals = [FixtureSignal("Resp oro-nasal", 1, digital=sine_digital(1200, 0.1, 1.0, seed=7))]
    for i, label in enumerate(CHANNELS):
        signals.append(FixtureSignal(label, 100, digital=sine_digital(120_000, 1.0 + 3 * i, RATE,
                                                                      seed=20 + i)))
    signals[-1].physical_min, signals[-1].physical_max = 10000.0, 10000.4
    return edf_bytes(signals, n_data_records=1200, record_duration_s=1.0)


INGEST_PAIRS = {  # PSG bytes and stage pattern of each ingest fixture
    "toy": (lambda: psg_bytes(n_epochs=40, seed=11), TOY_STAGES),
    "cli": (lambda: psg_bytes(n_epochs=24, seed=1),
            [("Sleep stage W", 4), ("Sleep stage 1", 4), ("Sleep stage 2", 8),
             ("Sleep stage R", 4), ("Sleep stage W", 4)]),
    "one-second records": (one_second_records_psg, TOY_STAGES),
}


@pytest.fixture(scope="module")
def ingest_pairs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pairs")
    pairs = {}
    for i, (name, (psg_blob, pattern)) in enumerate(INGEST_PAIRS.items()):
        psg, hyp = tmp / f"SC40{i}1E0-PSG.edf", tmp / f"SC40{i}1EC-Hypnogram.edf"
        psg.write_bytes(psg_blob())
        hyp.write_bytes(hypnogram_bytes(stage_events(pattern)))
        pairs[name] = psg, hyp
    return pairs


@pytest.mark.parametrize("filter_all", [False, True], ids=["eeg-filtered", "all-filtered"])
@pytest.mark.parametrize("channels", [CHANNELS, ["EMG submental"], ["EMG submental", "EEG Fpz-Cz"]],
                         ids=["4ch", "1ch", "2ch"])
@pytest.mark.parametrize("pair", list(INGEST_PAIRS))
def test_channel_at_a_time_ingest_matches_the_whole_record_oracle(ingest_pairs, pair, channels,
                                                                  filter_all):
    psg, hyp = ingest_pairs[pair]
    x, y = preprocess_record(load_record(psg, hyp, channels), channels, filter_all)
    want_x, want_y = preprocess_whole_record(psg, hyp, channels, filter_all)
    assert x.dtype == np.float32 and x.shape == want_x.shape
    assert np.array_equal(x, want_x)
    assert np.array_equal(y, want_y)


# --- non-finite records and collecting ---------------------------------------------------

def renamed(record, key):
    return dataclasses.replace(record, subject_key=key)


@pytest.mark.parametrize("channel", ["EEG Fpz-Cz", "EMG submental"])  # filtered, unfiltered
def test_non_finite_record_raises_without_a_numpy_warning(toy_record, monkeypatch, channel):
    record, channels = toy_record

    def read_with_inf(fh, header, i, pad):  # an EDF word cannot decode to inf
        trace = read_signal(fh, header, i, pad)
        if header.labels[i] == channel:
            trace.samples[100] = np.inf
        return trace

    monkeypatch.setattr(preprocess, "read_signal", read_with_inf)
    broken = renamed(record, "SC401")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteSignal):
            preprocess_record(broken, channels)


def write_parts(chunks, directory):
    """Each chunk's epochs written to a part file of its own, in the cache's
    (epoch, channel, sample) order, as `ulws preprocess` places them; returns
    each file's path and epoch count."""
    parts = []
    for key, x, y in chunks:
        path = directory / f"{key}.part"
        path.write_bytes(np.ascontiguousarray(x, dtype="<f4"))
        parts.append((path, len(y)))
    return parts


def test_part_files_read_back_as_the_concatenated_epochs(toy_record, tmp_path):
    record, channels = toy_record
    records = [renamed(record, "SC398"), renamed(record, "SC399")]
    chunks = [(r.subject_key, *preprocess_record(r, channels)) for r in records]
    x = FileEpochs.of_parts(write_parts(chunks, tmp_path), len(channels))
    assert x.shape == (78, 4, 3000) and x.ndim == 3 and x.dtype == np.float32
    assert x.nbytes == 78 * 4 * 3000 * 4
    assert np.array_equal(np.asarray(x), np.concatenate([x for _, x, _ in chunks]))
    empty = FileEpochs.of_parts([], len(channels))
    assert empty.shape == (0, 4, 3000) and np.asarray(empty).shape == (0, 4, 3000)


def random_chunks(sizes, n_channels=2, seed=0):
    """(subject_key, x, y) chunks of `sizes` epochs each, as preprocess_record gives them."""
    rng = np.random.default_rng(seed)
    return [(f"SC4{i:02d}", rng.standard_normal((n, n_channels, EPOCH_SAMPLES)).astype(np.float32),
             rng.integers(0, 5, n).astype(np.uint8)) for i, n in enumerate(sizes)]


def part_dataset(chunks, parts, channels):
    """The EpochDataset of `chunks` whose x is the FileEpochs of their part files."""
    collected = concatenated_dataset(chunks, channels)
    return dataclasses.replace(collected, x=FileEpochs.of_parts(parts, len(channels)))


def test_a_dataset_of_part_files_writes_the_bytes_of_the_collected_one(tmp_path, monkeypatch):
    chunks = random_chunks([120, 300, 7])  # a full and a partial ROW_BLOCK in the middle part
    collected = tmp_path / "collected.ulws"
    want = write_cache(concatenated_dataset(chunks, ["A", "B"]), collected)
    dataset = part_dataset(chunks, write_parts(chunks, tmp_path), ["A", "B"])
    preadv, reads = os.preadv, []

    def counted_preadv(fd, buffers, at):
        reads.append(sum(memoryview(b).nbytes for b in buffers))
        return preadv(fd, buffers, at)

    monkeypatch.setattr(os, "preadv", counted_preadv)
    assert dataset.n_epochs == 427
    assert write_cache(dataset, tmp_path / "parts.ulws") == want
    # each part is read once, ROW_BLOCK rows at a time, one read for the rows of
    # a block inside one file, to be checked and written
    row = 2 * EPOCH_SAMPLES * 4
    assert reads == [n * row for n in (120, ROW_BLOCK - 120, 300 - (ROW_BLOCK - 120), 7)]
    assert (tmp_path / "parts.ulws").read_bytes() == collected.read_bytes()


def test_a_part_file_of_the_wrong_size_is_refused(tmp_path):
    chunks = random_chunks([120, 180, 7])
    parts = write_parts(chunks, tmp_path)
    parts[1] = (parts[1][0], 179)  # one epoch fewer than the file holds
    with pytest.raises(InvalidDataset, match="bytes for 179 epochs"):
        dataset = EpochDataset(FileEpochs.of_parts(parts, 2), np.zeros(306, np.uint8),
                               ["SC400"] * 306, ["A", "B"])
        write_cache(dataset, tmp_path / "bad.ulws")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["SC400.part", "SC401.part", "SC402.part"]


def test_a_dataset_of_part_files_holding_nan_is_never_written(tmp_path):
    chunks = random_chunks([200, 100])
    chunks[1][1][80, 1, 7] = np.nan  # in the second part
    dataset = part_dataset(chunks, write_parts(chunks, tmp_path), ["A", "B"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteSignal):
            write_cache(dataset, tmp_path / "bad.ulws")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]  # parts closed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["SC400.part", "SC401.part"]


# --- container: atomic writes and memory ------------------------------------------------

def test_failed_write_leaves_old_file_and_no_temp(tmp_path):
    path = tmp_path / "toy.ulws"
    write_cache(toy_dataset(), path)
    before = path.read_bytes()

    def parts():
        yield b"\x01" * 1000
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        container.write(path, CACHE_MAGIC, 1, parts())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["toy.ulws"]


@pytest.mark.parametrize("which", ["cache", "checkpoint"])
def test_write_interrupted_before_rename_keeps_old_file(tmp_path, monkeypatch, which):
    if which == "cache":
        path, write = tmp_path / "toy.ulws", lambda: write_cache(toy_dataset(), path)
    else:
        params = build_model(ModelConfig(n_blocks=1, filters=(2,), input_length=64), seed=0)
        path, write = tmp_path / "toy.ulwm", lambda: save_checkpoint(params, path)
    path.write_bytes(b"previous contents")

    def crash(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(container.os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        write()
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


GROWTH_PROBE = """
import json, sys
from ulws.preprocess import read_cache, write_cache
from ulws.synthetic import sinusoid_dataset

def status_kib(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

op, path = sys.argv[1], sys.argv[2]
if op == "write":
    dataset = sinusoid_dataset(n_epochs=600, n_channels=4, seed=3)
    before = status_kib("VmRSS")
    write_cache(dataset, path)
else:
    before = status_kib("VmRSS")
    dataset = read_cache(path)
print(json.dumps((status_kib("VmHWM") - before) * 1024 / dataset.x.nbytes))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_cache_io_memory_growth(tmp_path):
    """Peak RSS growth of one write and one read of a 29 MB payload, in fresh processes.

    The peak is VmHWM, which belongs to the process's own address space;
    ru_maxrss would also count the pytest process that spawned it.
    """
    path = tmp_path / "big.ulws"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def growth(op):
        run = subprocess.run([sys.executable, "-c", GROWTH_PROBE, op, str(path)], env=env,
                             capture_output=True, text=True, check=True)
        return float(run.stdout)

    assert growth("write") <= 0.5  # the payload is written in place, not copied
    assert growth("read") <= 0.1  # blocks of container.BLOCK bytes; x reads rows when asked


FILTER_PROBE = """
import json
import numpy as np
from ulws.preprocess import filtfilt

def status_kib(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

filtfilt(np.ones(5000, np.float32))  # scipy imported, first-call costs paid
trace = np.arange(7_920_000, dtype=np.float32)  # one 22 h channel at 100 Hz
trace *= 0.05
np.sin(trace, out=trace)  # in place: no temporary raises VmHWM before the call
before = status_kib("VmRSS")
out = filtfilt(trace)
print(json.dumps((status_kib("VmHWM") - before) * 1024 / out.nbytes))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_filtfilt_memory_growth():
    """Peak RSS growth of one band-pass of a 22 h float32 trace, in a fresh process.

    The pass holds its padded float64 buffer and one block's copies;
    scipy's sosfiltfilt on the widened trace reaches ~4x its output.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", FILTER_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert float(run.stdout) <= 1.2


NIGHT_PROBE = """
import json, sys
import numpy as np
from ulws.edf import load_record
from ulws.preprocess import EPOCH_SAMPLES, bandpass, filtfilt, preprocess_record

def status_kib(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

psg, hyp, n, channels = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
filtfilt(np.ones(5000, np.float32))  # scipy imported, first-call costs paid
before = status_kib("VmRSS")
x, y = preprocess_record(load_record(psg, hyp, channels), channels)
growth = (status_kib("VmHWM") - before) * 1024
design = x.nbytes + 8 * (n + 2 * bandpass().padlen) + 8 * len(y) * (EPOCH_SAMPLES + 1)
print(json.dumps(growth / design))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_one_night_ingest_memory_growth(tmp_path):
    """Peak RSS growth of load_record + preprocess_record over one 6 h night, in a fresh process.

    Ingest holds its output x, one channel's trace (a band-passed one
    decoded straight into the filter's padded float64 buffer) and one
    (n, T + 1) float64 epoch buffer, and no whole-record copy: neither the
    file's bytes, nor every channel's trace, nor a float64 (n, C, T) array.
    Holding those reaches ~2x the design; a float32 trace beside the
    filter's buffer reaches 1.15x.
    """
    psg, hyp = tmp_path / "SC4001E0-PSG.edf", tmp_path / "SC4001EC-Hypnogram.edf"
    n_epochs = 720
    psg.write_bytes(psg_bytes(n_epochs=n_epochs, seed=2))
    hyp.write_bytes(hypnogram_bytes(stage_events(
        [("Sleep stage W", 20), ("Sleep stage 2", 680), ("Sleep stage W", 20)])))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", NIGHT_PROBE, str(psg), str(hyp),
                          str(n_epochs * EPOCH_SAMPLES), *CHANNELS],
                         env=env, capture_output=True, text=True, check=True)
    assert float(run.stdout) <= 1.1


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc saw allocated during the call.

    numpy reports its buffers to tracemalloc, so the peak is the live set,
    whatever the C allocator keeps mapped.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("filter_all", [False, True], ids=["eeg-filtered", "all-filtered"])
def test_a_record_peaks_at_one_padded_trace_the_epoch_buffer_and_its_output(tmp_path,
                                                                            filter_all):
    """The traced peak of preprocess_record over a 6 h, 4-channel record.

    It holds one band-passed channel's padded float64 trace, the float64
    epoch buffer and the record's float32 epochs, plus two filter blocks'
    copies. A float32 trace beside the padded one, 4 bytes a sample
    (8.4 MiB here), or a second copy of the epochs breaks it.
    """
    n_epochs = 720
    psg, hyp = tmp_path / "SC4001E0-PSG.edf", tmp_path / "SC4001EC-Hypnogram.edf"
    psg.write_bytes(psg_bytes(n_epochs=n_epochs, seed=2))
    hyp.write_bytes(hypnogram_bytes(stage_events(
        [("Sleep stage W", 20), ("Sleep stage 2", n_epochs - 40), ("Sleep stage W", 20)])))
    record = load_record(psg, hyp, CHANNELS)
    padlen = preprocess.bandpass().padlen  # designed before the trace starts
    (x, y), peak = traced_peak(preprocess_record, record, CHANNELS, filter_all)
    padded_trace = 8 * (n_epochs * EPOCH_SAMPLES + 2 * padlen)
    epoch_buffer = 8 * len(y) * (EPOCH_SAMPLES + 1)
    assert peak <= padded_trace + epoch_buffer + x.nbytes + 2 * 8 * FILTER_BLOCK
    # each channel's epochs are one contiguous slab, written whole and alone
    assert all(x[:, c].flags.c_contiguous for c in range(len(CHANNELS)))


def test_a_channel_major_record_goes_to_its_part_file_and_back_a_block_at_a_time(tmp_path):
    n, c = 3 * ROW_BLOCK + 5, 4
    slabs = np.random.default_rng(0).standard_normal((c, n, EPOCH_SAMPLES)).astype(np.float32)
    x = slabs.transpose(1, 0, 2)  # (n, C, T), as preprocess_record gives it
    part = tmp_path / "SC401.part"
    part.touch()

    def write():  # as each channel's unit of `ulws preprocess` writes its rows
        for channel in range(c):
            with open(part, "r+b") as fh:
                for i, row in enumerate(slabs[channel]):
                    fh.seek((i * c + channel) * row.nbytes)
                    fh.write(row)

    # one block at a time, never the whole record
    assert traced_peak(write)[1] < x.nbytes / 2
    epochs = FileEpochs.of_parts([(part, n)], c)
    assert [len(block) for block in preprocess._row_blocks(epochs)] == [ROW_BLOCK] * 3 + [5]
    dataset = EpochDataset(epochs, np.zeros(n, np.uint8), ["SC401"] * n, ["A", "B", "C", "D"])
    assert traced_peak(write_cache, dataset, tmp_path / "SC401.ulws")[1] < x.nbytes / 2
    assert np.array_equal(np.asarray(read_cache(tmp_path / "SC401.ulws").x), x)


@pytest.mark.parametrize("filter_all", [False, True], ids=["eeg-filtered", "all-filtered"])
def test_a_unit_peaks_at_one_trace_the_epoch_buffer_and_one_channels_epochs(tmp_path, filter_all):
    """The traced peak of one `ulws preprocess` unit (preprocess.ingest_unit: load the
    pair, preprocess one channel, write its rows) over a 6 h, 4-channel record.

    It holds one padded float64 trace, the float64 epoch buffer and that
    channel's float32 epochs, plus two filter blocks' copies: not the slabs
    of the record's other channels (8.2 MiB each here). A channel that is
    not band-passed holds its float32 trace, and then `std`'s float64
    temporary over the epochs, in the padded trace's place.
    """
    n_epochs = 720
    psg, hyp = tmp_path / "SC4001E0-PSG.edf", tmp_path / "SC4001EC-Hypnogram.edf"
    psg.write_bytes(psg_bytes(n_epochs=n_epochs, seed=2))
    hyp.write_bytes(hypnogram_bytes(stage_events(
        [("Sleep stage W", 20), ("Sleep stage 2", n_epochs - 40), ("Sleep stage W", 20)])))
    part = tmp_path / "SC4001.part"
    part.touch()
    padlen = preprocess.bandpass().padlen  # designed before the trace starts
    whole, _ = preprocess_record(load_record(psg, hyp, CHANNELS), CHANNELS, filter_all)
    padded_trace = 8 * (n_epochs * EPOCH_SAMPLES + 2 * padlen)
    for c, label in enumerate(CHANNELS):
        (what, (key, y)), peak = traced_peak(preprocess.ingest_unit, psg, hyp, CHANNELS, c,
                                             filter_all, part)
        epoch_buffer = 8 * len(y) * (EPOCH_SAMPLES + 1)
        slab = 4 * len(y) * EPOCH_SAMPLES
        assert peak <= padded_trace + epoch_buffer + slab + 2 * 8 * FILTER_BLOCK, label
    # the part file holds the whole record's epochs, bit for bit
    read = np.asarray(FileEpochs.of_parts([(part, len(y))], 4))
    assert (what, key) == ("SC400 night 1", "SC400") and np.array_equal(read, whole)


def _pair(*outcomes, what="SC400 night 1", key="SC400"):
    """A pair's units, in channel order: each outcome an error, or None for kept epochs."""
    y = np.zeros(24, dtype=np.uint8)
    return [(what, (key, y) if outcome is None else outcome) for outcome in outcomes]


NON_UTF8 = os.fsdecode(b"SC40\xff")  # the key of a PSG file name that is not UTF-8
PAIR_OUTCOMES = {
    # load_record's errors are every unit's, and the record never loaded
    "load-error": (_pair(*[TruncatedData("data ends early")] * 4, what="SC4001E0-PSG.edf"),
                   ("SC4001E0-PSG.edf", "TruncatedData: data ends early")),
    "missing-channel": (_pair(*[MissingChannel("no EMG")] * 4, what="SC4001E0-PSG.edf"),
                        ("SC4001E0-PSG.edf", "MissingChannel: no EMG")),
    # a channel's own error beats NaN in an earlier channel, whose check comes last
    "constant-after-nan": (_pair(None, NonFiniteSignal("NaN"), None, DegenerateSignal("flat")),
                           ("SC400 night 1", "DegenerateSignal: flat")),
    "nan": (_pair(None, NonFiniteSignal("NaN in 1"), NonFiniteSignal("NaN in 2"), None),
            ("SC400 night 1", "NonFiniteSignal: NaN in 1")),
    "non-utf8-key": (_pair(None, None, None, None, what="SC40\udcff night 1", key=NON_UTF8),
                     ("SC40\udcff night 1", "InvalidDataset: 'SC40\\udcff' is not UTF-8 text")),
    # the key is checked last, once every channel has its epochs
    "non-utf8-key-and-nan": (_pair(None, NonFiniteSignal("NaN"), None, None, key=NON_UTF8),
                             ("SC400 night 1", "NonFiniteSignal: NaN")),
    "kept": (_pair(None, None, None, None), ("SC400 night 1", ("SC400", 24))),
}


@pytest.mark.parametrize("units, reported", PAIR_OUTCOMES.values(), ids=PAIR_OUTCOMES.keys())
def test_a_pairs_outcome_from_its_units_is_that_of_its_whole_record(units, reported):
    """pair_outcome gives the error that preprocess_record raises for the whole
    record, else the kept epochs if the cache can store the key; here as
    `ulws preprocess` reports it."""
    what, outcome = preprocess.pair_outcome(units)
    if isinstance(outcome, Exception):
        assert (what, f"{type(outcome).__name__}: {outcome}") == reported
    else:
        key, y = outcome
        assert (what, (key, len(y))) == reported
