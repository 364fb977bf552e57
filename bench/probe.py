"""Fresh-process probe: import hcl and make the first arith calls.

Run as `python3 bench/probe.py` with `src` on PYTHONPATH.  Prints one JSON
line: the module file that was imported, the import time, and the time of
the first `factorize` and `sqrt_mod`, which build the lazy prime sieve,
smallest-prime-factor and square-root tables.
"""

import json
from time import perf_counter

t0 = perf_counter()
import hcl  # noqa: E402
from hcl.arith import factorize, sqrt_mod  # noqa: E402

t1 = perf_counter()
factorize(999_983 * 1_000_003)
sqrt_mod(-54, 55)
t2 = perf_counter()
print(json.dumps({"file": hcl.__file__, "import_s": t1 - t0, "first_use_s": t2 - t1}))
