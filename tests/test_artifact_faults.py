"""Every fault of an artifact that a stage reads ends the stage with an
``error:`` line, never a traceback.

The sweep runs the tiny pipeline of ``test_cli`` once.  Then it mutates,
one at a time, each artifact that a later stage reads (every one but the
manifests and CSVs, which no stage reads; one record stands for all, as
every record has the one layout and reader) and runs, through
``cli.main`` on a fresh copy of the pipeline, every command that reads it,
``trial`` and ``dataset stats`` among them.  The mutations are fixed, so
the sweep needs no seed:

* the empty file, its first half, one byte short (of the JSON value, for
  ``bundle.json``, whose trailing newline is no part of it) and 8 zero
  bytes over;
* each byte from offset 8 to 28 with its bits flipped;
* a NaN in the last float of each float block of a binary file;
* each key of ``bundle.json`` set to ``null``, ``-1``, ``0``, ``1e308``,
  ``"x"``, ``[]``, ``{}`` and ``[[]]``.

Every mutation changes the artifact's bytes, so every run must exit 1
with ``error:`` on stderr, never 0, and name the file.  A size mutation or
a NaN must fail in the reader, which names the file itself, not in the
check against the hash that the producer's manifest lists, which runs
only after the reader succeeds.  A bit flip or a ``bundle.json`` key may
fail in either; the ``gen-data`` manifest hashes the records directory as
a whole, so the hash check names a record's directory.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from rvesurrogate import cli
from rvesurrogate import datastore as ds
from rvesurrogate import pca as pcalib
from rvesurrogate import surrogate as sg

from test_cli import tiny_config

RECORD = "dataset/records/record_000000.rveseq"

# each artifact a later stage reads, and the commands that read it
READERS = {
    "paths/paths.bin": ("gen-data",),
    RECORD: ("pca-fit", "train", "trial", "eval", "stats"),
    "pca/pca_gamma.bin": ("train", "trial"),
    "bundle/bundle.json": ("eval",),
    "bundle/pca.bin": ("eval",),
    "bundle/rnn_00.bin": ("eval",),
    "bundle/rnn_01.bin": ("eval",),
}

# float blocks per binary file: 3 paths; a record's inputs, gamma and tau;
# a basis's mean, eigenvalues and components; a model's parameters
BLOCKS = {"paths/paths.bin": 3, RECORD: 3, "pca/pca_gamma.bin": 3,
          "bundle/pca.bin": 3, "bundle/rnn_00.bin": 1, "bundle/rnn_01.bin": 1}

JSON_VALUES = (None, -1, 0, 1e308, "x", [], {}, [[]])

# what the hash check names for an artifact, where it is not the file
NAMED = {RECORD: "dataset/records"}

HASH_MISMATCH = "its hash differs"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The root of the tiny pipeline, its config file, and the byte offset
    of the end of each float block of each binary artifact."""
    base = tmp_path_factory.mktemp("faults")
    cfg = tiny_config({"p": 4}, 2, (4, 2))
    cfg["trial"] = {"epoch_budget": 1, "max_trials": 1}
    root = base / "root"
    for stage in cli.STAGE_ORDER:
        cli.run_stage(stage, cfg, root)
    config_file = base / "config.json"
    config_file.write_text(json.dumps(cfg))
    ends = {}
    real = ds.BinaryReader.floats

    def recording(reader, *args):
        block = real(reader, *args)
        ends.setdefault(Path(reader.path), []).append(reader._at)
        return block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ds.BinaryReader, "floats", recording)
        ds.read_pathset(root / "paths/paths.bin")
        ds.read_record(root / RECORD)
        pcalib.load(root / "pca/pca_gamma.bin")
        sg.SurrogateBundle.load(root / "bundle")
    blocks = {name: ends[root / name] for name in BLOCKS}
    assert {name: len(e) for name, e in blocks.items()} == BLOCKS
    return root, config_file, blocks


def mutations(name: str, data: bytes, block_ends):
    """``(label, bytes, reader fails)`` of each mutation of the artifact
    ``name`` whose bytes are ``data``."""
    content = data.rstrip() if name.endswith(".json") else data
    yield "empty", b"", True
    yield "half", data[:len(data) // 2], True
    yield "short", content[:-1], True
    yield "over", data + bytes(8), True
    for at in range(8, 29):
        flipped = bytes([data[at] ^ 0xFF])
        yield f"flip@{at}", data[:at] + flipped + data[at + 1:], False
    nan = np.float64(np.nan).tobytes()
    for i, end in enumerate(block_ends):
        yield f"nan@block{i}", data[:end - 8] + nan + data[end:], True
    if name.endswith(".json"):
        for key in json.loads(data):
            for value in JSON_VALUES:
                meta = json.loads(data)
                meta[key] = value
                yield f"{key}={value!r}", json.dumps(meta).encode(), False


def run(command, root, config_file, monkeypatch):
    monkeypatch.setenv(cli.ROOT_ENV_VAR, str(root))
    if command == "stats":
        return cli.main(["dataset", "stats", str(root / "dataset")])
    return cli.main([command, "--config", str(config_file)])


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_fault_is_an_error_line(pipeline, tmp_path, monkeypatch,
                                      capsys, name):
    root, config_file, blocks = pipeline
    data = (root / name).read_bytes()
    problems = []
    for label, mutated, reader_fails in mutations(name, data,
                                                  blocks.get(name, ())):
        for command in READERS[name]:
            copy = tmp_path / "copy"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(root, copy)
            (copy / name).write_bytes(mutated)
            capsys.readouterr()
            try:
                status = run(command, copy, config_file, monkeypatch)
            except Exception as err:  # a traceback for the user
                problems.append(f"{label} {command}: raised {err!r}")
                continue
            err = capsys.readouterr().err
            named = copy / (name if reader_fails else NAMED.get(name, name))
            if (status != 1 or not err.startswith("error: ")
                    or str(named) not in err
                    or reader_fails and HASH_MISMATCH in err):
                problems.append(f"{label} {command}: exit {status}, "
                                f"{err!r} is not the expected error")
    assert problems == []
