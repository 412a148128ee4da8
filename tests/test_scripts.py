import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ulws.cli import DEFAULT_CHANNELS
from ulws.preprocess import write_cache
from ulws.synthetic import sinusoid_dataset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reproduce_in(tmp_path, monkeypatch):
    """The reproduce script with --workdir tmp_path, and the list of the ulws
    commands it runs, which only record their names."""
    script = load_script("reproduce_sleepedf20")
    commands = []
    monkeypatch.setattr(script, "ulws", lambda argv: commands.append(argv[0]) or 0)
    monkeypatch.setattr(sys, "argv", ["reproduce_sleepedf20.py", "--data-dir", str(tmp_path),
                                      "--workdir", str(tmp_path)])
    return script, commands


def small_cache(path, seed=0):
    """Write a small valid cache to `path`; return its CRC-32."""
    return write_cache(sinusoid_dataset(n_epochs=8, n_channels=4, epoch_samples=100,
                                        n_subjects=2, seed=seed), path)


def test_reproduce_reuses_a_cache_only_for_the_channels_asked_for(tmp_path, monkeypatch):
    """A cache of other channels than --channels (the default four here) is
    refused, with both lists named, before any training; one of the same
    channels is trained on."""
    script, commands = reproduce_in(tmp_path, monkeypatch)
    cache = tmp_path / "sleepedf20.ulws"
    crc = small_cache(cache)
    manifest = tmp_path / "sleepedf20.ulws.manifest.json"
    manifest.write_text(json.dumps({"channels": DEFAULT_CHANNELS[:3], "cache_crc32": crc}))
    with pytest.raises(SystemExit) as refused:
        script.main()
    assert commands == []
    assert str(refused.value) == (
        f"{cache} holds channels {DEFAULT_CHANNELS[:3]}, but --channels asks for "
        f"{DEFAULT_CHANNELS}; remove the cache to rebuild it, or pass its channels")
    manifest.write_text(json.dumps({"channels": DEFAULT_CHANNELS, "cache_crc32": crc}))
    script.main()
    assert commands == ["train", "evaluate"]


def test_reproduce_refuses_a_cache_that_is_not_the_one_its_manifest_names(tmp_path,
                                                                          monkeypatch):
    """A cache rewritten after its manifest, as when the manifest's write
    failed, or one that cannot be read, is refused, with both CRCs named,
    before any ulws command runs, whatever channels the manifest gives."""
    script, commands = reproduce_in(tmp_path, monkeypatch)
    cache = tmp_path / "sleepedf20.ulws"
    manifest = tmp_path / "sleepedf20.ulws.manifest.json"
    named = small_cache(cache)
    manifest.write_text(json.dumps({"channels": DEFAULT_CHANNELS, "cache_crc32": named}))
    rewritten = small_cache(cache, seed=1)
    assert rewritten != named
    with pytest.raises(SystemExit) as refused:
        script.main()
    assert str(refused.value) == (f"{cache}: CRC-32 is {rewritten}, but {manifest} names "
                                  f"{named}; remove the cache to rebuild it")
    cache.write_bytes(cache.read_bytes()[:-1])
    with pytest.raises(SystemExit) as refused:
        script.main()
    assert str(refused.value) == (f"{cache}: CRC-32 is unreadable (ChecksumMismatch: {cache}: "
                                  f"CRC-32 mismatch), but {manifest} names {named}; remove the "
                                  "cache to rebuild it")
    assert commands == []
