import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ulws.cli import DEFAULT_CHANNELS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_reuses_a_cache_only_for_the_channels_asked_for(tmp_path, monkeypatch):
    """A cache of other channels than --channels (the default four here) is
    refused, with both lists named, before any training; one of the same
    channels is trained on."""
    script = load_script("reproduce_sleepedf20")
    cache = tmp_path / "sleepedf20.ulws"
    cache.write_bytes(b"")
    manifest = tmp_path / "sleepedf20.ulws.manifest.json"
    commands = []
    monkeypatch.setattr(script, "ulws", lambda argv: commands.append(argv[0]) or 0)
    monkeypatch.setattr(sys, "argv", ["reproduce_sleepedf20.py", "--data-dir", str(tmp_path),
                                      "--workdir", str(tmp_path)])
    manifest.write_text(json.dumps({"channels": DEFAULT_CHANNELS[:3]}))
    with pytest.raises(SystemExit) as refused:
        script.main()
    assert commands == []
    assert str(refused.value) == (
        f"{cache} holds channels {DEFAULT_CHANNELS[:3]}, but --channels asks for "
        f"{DEFAULT_CHANNELS}; remove the cache to rebuild it, or pass its channels")
    manifest.write_text(json.dumps({"channels": DEFAULT_CHANNELS}))
    script.main()
    assert commands == ["train", "evaluate"]
