"""The repo's benchmark: four `repro serve` workloads measured end to end
over HTTP, and the same ops replayed in-process with time split by layer.

Run ``python3 -m bench`` from the repository root (see ``bench/README.md``).
The benchmark is stdlib-only and measures the checkout it sits in: ``src/``
beside this package goes first on the import path, for this process and
for the server it spawns.
"""

import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
