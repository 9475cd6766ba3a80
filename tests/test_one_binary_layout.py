"""Every artifact is written and read through ``datastore``.

Path sets, records, PCA bases and RNN model files share one binary layout,
the config and every JSON artifact share JSON, and every CSV artifact is
written by ``write_csv``.  ``datastore`` is the one reader and writer of
these layouts: ``write_binary`` and ``BinaryReader`` for the binary one,
``write_json``, ``read_json`` and the typed tables of ``check_json`` for
JSON.  Only while that holds does every malformed file get the same checks
and an error that names it, and every artifact of one kind the same
layout.  So no module of ``src/`` but ``datastore.py`` packs bytes, maps
them onto arrays, parses JSON or opens a file for writing itself.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DATASTORE = SRC / "rvesurrogate" / "datastore.py"

# an import statement that names the module struct or json, numpy's raw
# array reader or writer, or a file opened or written as text or bytes: an
# open call with a mode that writes, appends, creates or updates
RAW_IO = re.compile(r"^\s*(?:import|from)\s.*\b(?:struct|json)\b"
                    r"|frombuffer\(|\.tofile\("
                    r"|\bopen\(.*[\"'][rbt]*[wax+][rwxabt+]*[\"']"
                    r"|\.write_(?:text|bytes)\(")


def test_pattern_flags_each_raw_read_or_write():
    for line in ("import struct", "import json, struct",
                 "    import struct as st", "from struct import pack",
                 "import json", "from json import load",
                 "np.frombuffer(raw, dtype='<f8')",
                 "params.astype('<f8').tofile(fh)",
                 'with open(stage_dir / "report.csv", "w") as fh:',
                 "with open(path, 'wb') as fh:",
                 'open(f"{stem}_{tag}.csv", mode="a")',
                 'with path.open("r+b") as fh:',
                 'open(path, "x")',
                 'Path(path).write_text(text)',
                 'path.write_bytes(data)'):
        assert RAW_IO.search(line), line
    for line in ("from . import datastore as ds",
                 "reader = ds.BinaryReader(path, MAGIC, VERSION)",
                 "ds.write_binary(path, MAGIC, VERSION, ('<II', d, p))",
                 "np.fromiter(values, dtype=float)",
                 "from .layout import struct_fields",
                 "meta = ds.read_json(meta_file)",
                 'with open(path, "rb") as fh:',
                 "with open(path) as fh:",
                 'ds.write_csv(stage_dir / "report.csv", header, rows)',
                 'open(f"{stem}_w.csv")',
                 "# the layout's struct fields"):
        assert not RAW_IO.search(line), line


def test_datastore_is_the_one_binary_reader_and_writer():
    hits = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py")) if path != DATASTORE
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if RAW_IO.search(line)]
    assert hits == []
