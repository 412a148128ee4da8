"""Properties of ingest's in-place decode and band-pass, under Hypothesis.

- `read_signal(..., pad)` decodes into the middle of a float64 buffer the
  float32 trace that `read_signal` gives without room, widened, bit for bit.
- `filtfilt` run in place in such a buffer is bit-identical to scipy's
  `sosfiltfilt(sos, x, padtype="odd", padlen=padlen)`.

Tier-1 runs them with the "default" profile; CI's fuzz step runs them with
the "ci" profile, 2,000 examples each:

    python -m pytest tests/test_ingest_properties.py --hypothesis-profile=ci
"""

import io

import numpy as np
import scipy.signal
from hypothesis import assume, example, given
from hypothesis import strategies as st

from edf_fixtures import FixtureSignal, edf_bytes
from ulws.edf import READ_BLOCK_BYTES, parse_edf_header, read_signal
from ulws.errors import InvariantViolation
from ulws.preprocess import FILTER_BLOCK, bandpass, filtfilt

PADLEN = bandpass().padlen

# a physical range end as an EDF header holds it: at most 8 characters,
# from -9.9e+37 to 9.9e+37 and down to 1e-4 in magnitude
physical_ends = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-99, 99), st.integers(-4, 36))
digital_ranges = st.integers(-32768, 32766).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 32767)))


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 values of `a` as integers, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@given(
    pmin=physical_ends, pmax=physical_ends, digital_range=digital_ranges,
    spr=st.integers(200, 3000), other_spr=st.integers(1, 100),
    blocks=st.integers(0, 2), off_block=st.integers(-1, 1),
    pad=st.one_of(st.just(PADLEN), st.integers(1, 2 * PADLEN)),
    seed=st.integers(0, 2**32 - 1),
)
# the widest range the header check accepts: every int16 word just inside float32
@example(pmin=-3e38, pmax=3e38, digital_range=(-32768, 32767), spr=3000, other_spr=1, blocks=1,
         off_block=1, pad=PADLEN, seed=0)
@example(pmin=-204.8, pmax=204.7, digital_range=(-2048, 2047), spr=3000, other_spr=30, blocks=2,
         off_block=-1, pad=PADLEN, seed=1)
def test_a_padded_decode_is_the_float32_trace_widened(pmin, pmax, digital_range, spr, other_spr,
                                                      blocks, off_block, pad, seed):
    dmin, dmax = digital_range
    per_block = READ_BLOCK_BYTES // (2 * (spr + other_spr))  # data records a read holds
    n_records = max(blocks * per_block + off_block, 1)
    rng = np.random.default_rng(seed)
    signal = FixtureSignal("EEG", spr, physical_min=pmin, physical_max=pmax, digital_min=dmin,
                           digital_max=dmax, digital=rng.integers(-32768, 32768, spr * n_records))
    other = FixtureSignal("Resp", other_spr, digital=np.zeros(other_spr * n_records, np.int16))
    data = edf_bytes([other, signal], n_data_records=n_records)
    try:
        header = parse_edf_header(data)
    except InvariantViolation:  # equal physical ends, or int16 words outside float32
        assume(False)
    trace = read_signal(io.BytesIO(data), header, 1)
    padded = read_signal(io.BytesIO(data), header, 1, pad)
    assert trace.samples.dtype == np.float32 and trace.pad == 0
    assert padded.padded.dtype == np.float64 and padded.padded.size == spr * n_records + 2 * pad
    assert np.array_equal(bits(padded.samples), bits(trace.samples))


# a length just above the padding, or within 8 samples of where the padded
# buffer or the signal itself crosses a FILTER_BLOCK boundary
lengths = st.one_of(
    st.integers(PADLEN + 1, PADLEN + 64),
    st.builds(lambda k, shift, d: k * FILTER_BLOCK - shift + d, st.integers(1, 2),
              st.sampled_from([0, 2 * PADLEN]), st.integers(-8, 8)),
)


@given(n=lengths, seed=st.integers(0, 2**32 - 1), widened=st.booleans())
def test_filtfilt_in_place_is_scipys_sosfiltfilt(n, seed, widened):
    x = 40.0 * np.random.default_rng(seed).standard_normal(n)
    if widened:  # float32 values, as read_signal decodes them
        x = x.astype(np.float32).astype(np.float64)
    expected = scipy.signal.sosfiltfilt(bandpass().sos.copy(), x, padtype="odd", padlen=PADLEN)
    buf = np.empty(n + 2 * PADLEN)
    buf[PADLEN : PADLEN + n] = x
    out = filtfilt(buf, PADLEN)
    assert out.shape == (n,) and np.shares_memory(out, buf)  # filtered in place
    assert np.array_equal(bits(out), bits(expected))
