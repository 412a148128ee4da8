"""The `.ulws`/`.ulwm` readers name each file by the CRC-32 they verified.

Damaged files either read back as an object whose `crc32` is the CRC the
file stores, or fail with a typed UlwsError; no other exception escapes.
Epochs kept in files, a cache's or part files', index as numpy indexes them.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ulws import container
from ulws.errors import UlwsError
from ulws.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from ulws.preprocess import FileEpochs, read_cache, write_cache
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


# each count of part files: their epochs, so that runs of rows cross their boundaries
PART_SIZES = {1: [9], 2: [4, 5], 3: [1, 5, 3], 4: [2, 2, 1, 4]}


@pytest.fixture(scope="module")
def epochs_in_files(tmp_path_factory):
    """The FileEpochs of one cache and of its epochs in 1-4 part files, by name."""
    directory = tmp_path_factory.mktemp("epochs")
    dataset = sinusoid_dataset(n_epochs=9, n_channels=2, seed=5)
    x = dataset.x
    write_cache(dataset, directory / "epochs.ulws")
    found = {"cache": read_cache(directory / "epochs.ulws").x}
    for count, sizes in PART_SIZES.items():
        parts = []
        for i, n in enumerate(sizes):
            path, lo = directory / f"{count}.{i}.part", sum(sizes[:i])
            path.write_bytes(x[lo : lo + n].tobytes())
            parts.append((path, n))
        found[f"{count} parts"] = FileEpochs.of_parts(parts, 2)
    assert all(np.array_equal(np.asarray(epochs), x) for epochs in found.values())
    return found


def axis_index(n, masks=True):
    """One index into an axis of n: an int, a slice of any step, a list of
    ints (repeated, negative, or none), or a mask."""
    bound = st.none() | st.integers(-n - 2, n + 2)
    return st.one_of(
        st.integers(-n, n - 1),
        st.builds(slice, bound, bound, st.none() | st.integers(-3, 3).filter(bool)),
        st.lists(st.integers(-n, n - 1), max_size=5),
        *[st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)] * masks,
    )


@st.composite
def epoch_keys(draw, shape):
    """A key into (N, C, T) epochs: indices into its leading axes, then
    optionally an Ellipsis and indices into its trailing ones."""
    lead = draw(st.integers(0, 3))
    trail = draw(st.integers(0, 3 - lead))
    key = [draw(axis_index(n, masks=axis < 2)) for axis, n in enumerate(shape[:lead])]
    if trail or draw(st.booleans()):
        key.append(Ellipsis)
    key += [draw(axis_index(n, masks=axis < 2))
            for axis, n in enumerate(shape[3 - trail:], 3 - trail)]
    return key[0] if len(key) == 1 and draw(st.booleans()) else tuple(key)


@given(data=st.data())
def test_epochs_in_files_index_as_numpy_indexes_them(epochs_in_files, data):
    """x[key] is np.asarray(x)[key], shape, dtype and values, or both raise IndexError."""
    x = epochs_in_files[data.draw(st.sampled_from(sorted(epochs_in_files)), label="files")]
    key = data.draw(epoch_keys(x.shape), label="key")
    try:
        want = np.asarray(x)[key]
    except IndexError:
        with pytest.raises(IndexError):
            x[key]
        return
    got = x[key]
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.float32
    assert np.array_equal(got, want)
