"""Every artifact is written and read through ``datastore``.

Path sets, records, PCA bases and RNN model files share one binary layout,
and the config and every JSON artifact share JSON.  ``datastore`` is the
one reader and writer of both layouts: ``write_binary`` and
``BinaryReader`` for the binary one, ``write_json``, ``read_json`` and the
typed tables of ``check_json`` for JSON.  Only while that holds does every
malformed file get the same checks and an error that names it.  So no
module of ``src/`` but ``datastore.py`` packs bytes, maps them onto arrays
or parses JSON itself.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DATASTORE = SRC / "rvesurrogate" / "datastore.py"

# an import statement that names the module struct or json, or numpy's raw
# array reader or writer
RAW_IO = re.compile(r"^\s*(?:import|from)\s.*\b(?:struct|json)\b"
                    r"|frombuffer\(|\.tofile\(")


def test_pattern_flags_each_raw_read_or_write():
    for line in ("import struct", "import json, struct",
                 "    import struct as st", "from struct import pack",
                 "import json", "from json import load",
                 "np.frombuffer(raw, dtype='<f8')",
                 "params.astype('<f8').tofile(fh)"):
        assert RAW_IO.search(line), line
    for line in ("from . import datastore as ds",
                 "reader = ds.BinaryReader(path, MAGIC, VERSION)",
                 "ds.write_binary(path, MAGIC, VERSION, ('<II', d, p))",
                 "np.fromiter(values, dtype=float)",
                 "from .layout import struct_fields",
                 "meta = ds.read_json(meta_file)",
                 "# the layout's struct fields"):
        assert not RAW_IO.search(line), line


def test_datastore_is_the_one_binary_reader_and_writer():
    hits = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py")) if path != DATASTORE
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if RAW_IO.search(line)]
    assert hits == []
