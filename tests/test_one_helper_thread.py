"""The package's one thread besides the caller's lives in ``surrogate``.

A warm FE2 query runs half of a bundle's groups on the calling thread and
the other half on ``surrogate``'s helper thread.  That helper is the
package's one concurrency: it is started there, it is restarted there in a
forked child, and only there does a caller wait for work on another thread.
While ``surrogate.py`` is the one module of ``src/`` that imports
``threading``, ``queue`` or ``concurrent``, no other module can start a
thread, share a queue or hand work to an executor, so every guarantee
about the helper is checked in one file.  Processes for ``--jobs`` come
from ``multiprocessing`` in ``cli``, and are not threads.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SURROGATE = SRC / "rvesurrogate" / "surrogate.py"

# an import statement that names the module threading, _thread, queue or
# concurrent, or one of their submodules
THREADING = re.compile(r"^\s*(?:import|from)\s.*"
                       r"(?<![\w.])(?:threading|_thread|queue|concurrent)\b")


def test_pattern_flags_each_threading_import():
    for line in ("import threading", "import os, queue",
                 "    import threading as th", "from threading import Thread",
                 "from queue import SimpleQueue", "import _thread",
                 "from concurrent.futures import ThreadPoolExecutor",
                 "import concurrent.futures",
                 "from concurrent import futures"):
        assert THREADING.search(line), line
    for line in ("from collections import OrderedDict",
                 "from multiprocessing import get_context",
                 "from . import surrogate as sg",
                 "from .job_queue import drain",
                 "import queueing",
                 "jobs = queue.SimpleQueue()",
                 "threading.Thread(target=_serve, daemon=True).start()",
                 "# the helper thread's queue"):
        assert not THREADING.search(line), line


def test_surrogate_is_the_one_module_with_threads():
    hits = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py")) if path != SURROGATE
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if THREADING.search(line)]
    assert hits == []
