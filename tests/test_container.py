"""The `.ulws`/`.ulwm` readers name each file by the CRC-32 they verified.

Damaged files either read back as an object whose `crc32` is the CRC the
file stores, or fail with a typed UlwsError; no other exception escapes.
"""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ulws import container
from ulws.errors import UlwsError
from ulws.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from ulws.preprocess import read_cache, write_cache
from ulws.synthetic import sinusoid_dataset

TINY_MODEL = ModelConfig.from_dict({
    "n_blocks": 2,
    "filters": [2, 3],
    "kernel_size": 3,
    "n_input_channels": 2,
    "input_length": 200,
    "head_hidden": 4,
})


def small_dataset(seed=3):
    return sinusoid_dataset(n_epochs=6, n_channels=2, epoch_samples=200, n_subjects=2, seed=seed)


def stored_crc(blob):
    """The CRC-32 in the last 4 bytes (little-endian), as 8 hex digits."""
    return f"{int.from_bytes(blob[-4:], 'little'):08x}"


def test_writers_return_the_crc_that_the_readers_verify(tmp_path):
    dataset, cache = small_dataset(), tmp_path / "small.ulws"
    written = write_cache(dataset, cache)
    back = read_cache(cache)
    raw = cache.read_bytes()
    assert written == back.crc32 == f"{zlib.crc32(raw[4:-4]):08x}" == stored_crc(raw)
    assert dataset.crc32 is None and back.equals(dataset)  # equals ignores where x came from

    params, checkpoint = build_model(TINY_MODEL, seed=0), tmp_path / "tiny.ulwm"
    save_checkpoint(params, checkpoint)
    raw = checkpoint.read_bytes()
    assert params.crc32 is None
    assert load_checkpoint(checkpoint).crc32 == f"{zlib.crc32(raw[4:-4]):08x}" == stored_crc(raw)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of one small valid cache and one small valid checkpoint, and a scratch dir."""
    directory = tmp_path_factory.mktemp("valid")
    write_cache(small_dataset(), directory / "valid.ulws")
    save_checkpoint(build_model(TINY_MODEL, seed=0), directory / "valid.ulwm")
    blobs = {
        read_cache: (directory / "valid.ulws").read_bytes(),
        load_checkpoint: (directory / "valid.ulwm").read_bytes(),
    }
    return blobs, directory


def damage(blob, data):
    """`blob` cut short, or with 1-3 bytes flipped and the CRC stamped anew over the result."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    damaged = bytearray(blob)
    positions = st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=3, unique=True)
    for pos in data.draw(positions, label="flipped"):
        damaged[pos] ^= data.draw(st.integers(1, 255), label=f"xor at {pos}")
    body = bytes(damaged[4:-4])  # everything after the magic: the CRC covers it
    return bytes(damaged[:4]) + body + zlib.crc32(body).to_bytes(4, "little")


@pytest.mark.parametrize("reader", [read_cache, load_checkpoint], ids=["cache", "checkpoint"])
@given(data=st.data())
def test_a_damaged_container_reads_with_its_stored_crc_or_fails_typed(valid_files, reader, data):
    blobs, directory = valid_files
    case = damage(blobs[reader], data)
    path = directory / "case"
    path.write_bytes(case)
    try:
        result = reader(path)
    except UlwsError:
        return
    assert result.crc32 == stored_crc(case)


@pytest.mark.parametrize("earlier", [b"the finished file of an earlier run\n", None],
                         ids=["over-a-file", "new-file"])
@pytest.mark.parametrize("mode", ["w", "wb"])
def test_a_write_that_fails_midway_leaves_the_earlier_file_or_none(tmp_path, earlier, mode):
    path = tmp_path / "history.jsonl"
    if earlier is not None:
        path.write_bytes(earlier)
    line = '{"epoch": 0}\n' if mode == "w" else b'{"epoch": 0}\n'
    with pytest.raises(OSError, match="disk full"):
        with container.open_atomic(path, mode) as fh:
            fh.write(line * 1000)
            fh.flush()  # the partial file is on disk, under its temporary name
            raise OSError("disk full")
    assert (path.read_bytes() if path.exists() else None) == earlier
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if earlier else [])


def test_an_atomic_text_write_writes_the_bytes_of_an_in_place_one(tmp_path):
    text = "index,subject\r\n0,SC401\n\u00e9\n"
    for newline in (None, ""):  # the manifests and history, and the CSVs
        with open(tmp_path / "in-place", "w", newline=newline) as fh:
            fh.write(text)
        with container.open_atomic(tmp_path / "atomic", "w", newline=newline) as fh:
            fh.write(text)
        assert (tmp_path / "atomic").read_bytes() == (tmp_path / "in-place").read_bytes()
