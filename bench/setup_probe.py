"""Set-up of a fresh interpreter, up to the first twist being ready to run.

    python3 bench/setup_probe.py LABELS MODULE [MODULE ...]

Imports the modules (the first one timed on its own), sieves the small
primes, loads the packaged fixtures and builds the CurveRecord of each
comma-separated label, then prints the first module's import time in
ms and exits.  `watkins` must be importable (PYTHONPATH=src).
"""

import importlib
import sys
import time

t0 = time.perf_counter()
importlib.import_module(sys.argv[2])
import_ms = (time.perf_counter() - t0) * 1e3
for module in sys.argv[3:]:
    importlib.import_module(module)

from watkins.arith import small_primes  # noqa: E402
from watkins.data import load_fixtures, record_from_row  # noqa: E402

small_primes()
rows = load_fixtures()
records = [record_from_row(rows[label]) for label in sys.argv[1].split(",")]
print(f"{import_ms:.6f}", flush=True)
