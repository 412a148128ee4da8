import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edf_fixtures import FixtureSignal, edf_bytes, hypnogram_bytes, psg_bytes, tal
from ulws.edf import (
    load_record,
    parse_edf_header,
    parse_hypnogram,
    read_digital,
    read_signal,
    subject_key_and_night,
)
from ulws.errors import (
    InvariantViolation,
    MalformedField,
    MalformedTal,
    MissingChannel,
    NonMonotonicOnsets,
    TruncatedData,
    TruncatedHeader,
    WrongSampleRate,
)


def two_signal_fixture(n_records=2):
    sigs = [
        FixtureSignal("EEG Fpz-Cz", 3000, digital=np.arange(3000 * n_records) % 4000 - 2000),
        FixtureSignal("EOG horizontal", 3000, digital=np.zeros(3000 * n_records, np.int16)),
    ]
    return sigs, edf_bytes(sigs, n_data_records=n_records)


def test_header_bytes_for_two_signals():
    _, data = two_signal_fixture()
    header = parse_edf_header(data)
    assert header.header_bytes == 768  # 256 * (2 + 1)
    assert header.n_signals == 2


def test_header_ranges_stored_exactly():
    _, data = two_signal_fixture()
    header = parse_edf_header(data)
    assert header.digital_min == [-2048, -2048]
    assert header.digital_max == [2047, 2047]
    assert header.physical_min == [-204.8, -204.8]
    assert header.physical_max == [204.7, 204.7]
    assert header.labels == ["EEG Fpz-Cz", "EOG horizontal"]
    assert header.samples_per_record == [3000, 3000]
    assert header.record_duration_s == 30.0


def test_degenerate_physical_range_rejected():
    sig = FixtureSignal("X", 10, physical_min=1.0, physical_max=1.0,
                        digital=np.zeros(10, np.int16))
    with pytest.raises(InvariantViolation):
        parse_edf_header(edf_bytes([sig], n_data_records=1))


def test_inverted_digital_range_rejected():
    sig = FixtureSignal("X", 10, digital_min=5, digital_max=5,
                        digital=np.zeros(10, np.int16))
    with pytest.raises(InvariantViolation):
        parse_edf_header(edf_bytes([sig], n_data_records=1))


def test_truncated_header():
    _, data = two_signal_fixture()
    with pytest.raises(TruncatedHeader):
        parse_edf_header(data[:100])
    with pytest.raises(TruncatedHeader):
        parse_edf_header(data[:500])  # fixed part ok, per-signal part missing


def test_malformed_numeric_field():
    _, data = two_signal_fixture()
    corrupted = data[:236] + b"oops    " + data[244:]  # n_data_records slot
    with pytest.raises(MalformedField):
        parse_edf_header(corrupted)


@pytest.mark.parametrize("field", ["physical_min", "physical_max"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_header_number_rejected(field, value):
    sigs, _ = two_signal_fixture()
    setattr(sigs[0], field, value)
    with pytest.raises(MalformedField, match="finite"):
        parse_edf_header(edf_bytes(sigs, n_data_records=2))


def test_non_finite_record_duration_rejected():
    sigs, _ = two_signal_fixture()
    with pytest.raises(MalformedField, match="finite"):
        parse_edf_header(edf_bytes(sigs, n_data_records=2, record_duration_s=float("inf")))


def test_streaming_record_count_rejected():
    sig = FixtureSignal("X", 10, digital=np.zeros(10, np.int16))
    data = edf_bytes([sig], n_data_records=0)
    streaming = data[:236] + b"-1      " + data[244:]
    with pytest.raises(InvariantViolation):
        parse_edf_header(streaming)


def test_wrong_declared_header_bytes():
    sig = FixtureSignal("X", 10, digital=np.zeros(10, np.int16))
    with pytest.raises(InvariantViolation):
        parse_edf_header(edf_bytes([sig], n_data_records=1, header_bytes=256))


# --- digital -> physical conversion ---------------------------------------

def test_affine_conversion_hand_values():
    # (0 + 2048) * 409.5 / 4095 - 204.8 == 0.0
    sig = FixtureSignal("X", 4, digital=np.array([0, -2048, 2047, 1], np.int16))
    data = edf_bytes([sig], n_data_records=1)
    trace = read_signal(io.BytesIO(data), parse_edf_header(data), 0)
    assert trace.samples[0] == np.float32(0.0)
    assert trace.samples[1] == np.float32(-204.8)  # d = digital_min
    assert trace.samples[2] == np.float32(204.7)  # d = digital_max
    assert trace.samples[3] == pytest.approx(0.1, abs=1e-6)


def test_physical_range_overflowing_float32_rejected():
    """Every int16 word, not only those in the digital range, must land inside float32."""

    def one_signal(physical_min, physical_max, digital_min, digital_max):
        sig = FixtureSignal("X", 3, physical_min=physical_min, physical_max=physical_max,
                            digital_min=digital_min, digital_max=digital_max,
                            digital=np.array([-32768, 0, 32767], np.int16))
        return edf_bytes([sig], n_data_records=1)

    for physical_min, physical_max in [(-1e300, 1e300), (-1e38, 1e38)]:
        with pytest.raises(InvariantViolation, match="outside float32"):
            parse_edf_header(one_signal(physical_min, physical_max, -2048, 2047))
    widest = one_signal(-3e38, 3e38, -32768, 32767)
    with np.errstate(all="raise"):
        trace = read_signal(io.BytesIO(widest), parse_edf_header(widest), 0)
    assert trace.samples[0] == np.float32(-3e38) and trace.samples[2] == np.float32(3e38)


def test_truncated_data():
    _, data = two_signal_fixture()
    header = parse_edf_header(data)
    with pytest.raises(TruncatedData):
        read_signal(io.BytesIO(data[:-10]), header, 0)


class CutAfterTheCheck(io.BytesIO):
    """A file that reports its full length but ends `cut` bytes early."""

    def __init__(self, data, cut):
        super().__init__(data[:-cut])
        self.full = len(data)

    def seek(self, pos, whence=io.SEEK_SET):
        return self.full if whence == io.SEEK_END else super().seek(pos, whence)


@pytest.mark.parametrize("read", [read_signal, read_digital])
def test_short_read_is_truncated_data(read):
    _, data = two_signal_fixture(n_records=3)
    header = parse_edf_header(data)
    with pytest.raises(TruncatedData, match=f"need {len(data)} bytes, got {len(data) - 10}$"):
        read(CutAfterTheCheck(data, 10), header, 1)


@settings(max_examples=50)
@given(
    d1=st.integers(min_value=-2048, max_value=2046),
    step=st.integers(min_value=1, max_value=100),
    pmin=st.floats(min_value=-500, max_value=0, allow_nan=False),
    width=st.floats(min_value=1, max_value=1000, allow_nan=False),
)
def test_affine_conversion_monotonic(d1, step, pmin, width):
    d2 = min(d1 + step, 2047)
    scale = (width) / (2047 - (-2048))
    p = lambda d: (d - (-2048)) * scale + pmin
    assert p(d1) < p(d2)


def test_parse_deterministic():
    _, data = two_signal_fixture()
    h1, h2 = parse_edf_header(data), parse_edf_header(data)
    assert h1 == h2
    assert np.array_equal(read_digital(io.BytesIO(data), h1, 0),
                          read_digital(io.BytesIO(data), h2, 0))


def test_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    sigs = [
        FixtureSignal("EEG Fpz-Cz", 120,
                      digital=rng.integers(-2048, 2048, size=360).astype(np.int16)),
        FixtureSignal("EMG submental", 30, physical_min=-1.0, physical_max=1.0,
                      digital=rng.integers(-2048, 2048, size=90).astype(np.int16)),
    ]
    data = edf_bytes(sigs, n_data_records=3, record_duration_s=30.0)
    header = parse_edf_header(data)
    assert header.labels == [s.label for s in sigs]
    assert header.samples_per_record == [s.samples_per_record for s in sigs]
    assert header.physical_min == [s.physical_min for s in sigs]
    assert header.physical_max == [s.physical_max for s in sigs]
    assert header.digital_min == [s.digital_min for s in sigs]
    assert header.digital_max == [s.digital_max for s in sigs]
    for i, s in enumerate(sigs):
        assert np.array_equal(read_digital(io.BytesIO(data), header, i), s.digital)
        trace = read_signal(io.BytesIO(data), header, i)
        step = (s.physical_max - s.physical_min) / (s.digital_max - s.digital_min)
        assert trace.samples.min() >= s.physical_min - step
        assert trace.samples.max() <= s.physical_max + step


# --- hypnogram TALs ---------------------------------------------------------

def test_single_event_tal():
    data = hypnogram_bytes([(0, 1800, "Sleep stage W")])
    events = parse_hypnogram(data)
    assert len(events) == 1
    assert (events[0].onset_s, events[0].duration_s) == (0.0, 1800.0)
    assert events[0].stage_text == "Sleep stage W"


def test_timestamp_only_tal_dropped():
    data = hypnogram_bytes([])
    assert parse_hypnogram(data) == []


def test_adjacent_events_ok():
    data = hypnogram_bytes([(0, 1800, "Sleep stage W"), (1800, 1800, "Sleep stage 1")])
    events = parse_hypnogram(data)
    assert [e.onset_s for e in events] == [0.0, 1800.0]


def test_missing_text_terminator():
    bad = b"+0" + b"\x15" + b"30" + b"Sleep stage W"  # no 0x14 at all
    data = hypnogram_bytes([], extra_tal_bytes=bad + b"\x00")
    with pytest.raises(MalformedTal):
        parse_hypnogram(data)


@pytest.mark.parametrize(
    "onset, duration",
    [(float("nan"), 30.0), (float("inf"), 30.0), (0.0, float("nan")), (0.0, float("inf"))],
)
def test_non_finite_tal_numbers_rejected(onset, duration):
    data = hypnogram_bytes([(onset, duration, "Sleep stage W")])
    with pytest.raises(MalformedTal, match="non-finite"):
        parse_hypnogram(data)


def test_non_monotonic_onsets():
    data = hypnogram_bytes([(1800, 30, "Sleep stage 1"), (0, 30, "Sleep stage W")])
    with pytest.raises(NonMonotonicOnsets):
        parse_hypnogram(data)


def test_overlapping_events_rejected():
    data = hypnogram_bytes([(0, 3600, "Sleep stage W"), (1800, 30, "Sleep stage 1")])
    with pytest.raises(NonMonotonicOnsets):
        parse_hypnogram(data)


def test_multiple_texts_in_one_tal():
    # simultaneous zero-duration markers are legal; each text becomes an event
    extra = tal(3600, 0, ["Recording ends", "Lights on"])
    data = hypnogram_bytes([(0, 3600, "Sleep stage W")], extra_tal_bytes=extra)
    events = parse_hypnogram(data)
    assert len(events) == 3
    assert events[1].duration_s == 0.0 and events[2].onset_s == 3600.0


# --- record loading -----------------------------------------------------------

def test_subject_key_and_night():
    assert subject_key_and_night("SC4001E0-PSG.edf") == ("SC400", 1)
    assert subject_key_and_night("/data/SC4031E0-PSG.edf") == ("SC403", 1)
    assert subject_key_and_night("SC4012E0-PSG.edf") == ("SC401", 2)
    assert subject_key_and_night("weird.edf") == ("weird", 1)


def test_load_record_happy_path(tmp_path):
    psg = tmp_path / "SC4001E0-PSG.edf"
    hyp = tmp_path / "SC4001EC-Hypnogram.edf"
    psg.write_bytes(psg_bytes(n_epochs=4))
    hyp.write_bytes(hypnogram_bytes([(0, 120, "Sleep stage W")]))
    wanted = ["EEG Fpz-Cz", "EEG Pz-Oz", "EOG horizontal", "EMG submental"]
    record = load_record(psg, hyp, wanted)
    assert sorted(record.channels) == sorted(wanted)
    assert record.subject_key == "SC400" and record.night == 1
    with open(psg, "rb") as fh:
        traces = [read_signal(fh, record.header, i) for i in record.channels.values()]
    assert all(len(t.samples) == 4 * 3000 for t in traces)
    assert len(record.events) == 1


def test_load_record_missing_channel(tmp_path):
    psg = tmp_path / "SC4001E0-PSG.edf"
    hyp = tmp_path / "SC4001EC-Hypnogram.edf"
    psg.write_bytes(psg_bytes(n_epochs=2, channel_specs=[("EEG Fpz-Cz", 100.0)]))
    hyp.write_bytes(hypnogram_bytes([(0, 60, "Sleep stage W")]))
    with pytest.raises(MissingChannel):
        load_record(psg, hyp, ["EEG Fpz-Cz", "EMG submental"])


def test_load_record_rejects_low_rate_channel(tmp_path):
    psg = tmp_path / "SC4001E0-PSG.edf"
    hyp = tmp_path / "SC4001EC-Hypnogram.edf"
    psg.write_bytes(
        psg_bytes(n_epochs=2, channel_specs=[("EEG Fpz-Cz", 100.0), ("EMG submental", 1.0)])
    )
    hyp.write_bytes(hypnogram_bytes([(0, 60, "Sleep stage W")]))
    with pytest.raises(WrongSampleRate):
        load_record(psg, hyp, ["EEG Fpz-Cz", "EMG submental"])


def test_load_record_checks_each_wanted_channel_from_the_header(tmp_path):
    """Label by label: MissingChannel, then TruncatedData, then WrongSampleRate."""
    psg = tmp_path / "SC4001E0-PSG.edf"
    hyp = tmp_path / "SC4001EC-Hypnogram.edf"
    full = psg_bytes(n_epochs=2, channel_specs=[("EEG Fpz-Cz", 100.0), ("EMG submental", 1.0)])
    hyp.write_bytes(hypnogram_bytes([(0, 60, "Sleep stage W")]))
    psg.write_bytes(full[:-10])
    with pytest.raises(MissingChannel):
        load_record(psg, hyp, ["EOG horizontal", "EEG Fpz-Cz"])
    with pytest.raises(TruncatedData, match=f"need {len(full)} bytes, got {len(full) - 10}$"):
        load_record(psg, hyp, ["EMG submental"])
    psg.write_bytes(full)
    with pytest.raises(WrongSampleRate):
        load_record(psg, hyp, ["EEG Fpz-Cz", "EMG submental"])
