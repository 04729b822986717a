"""Make the benchmark package and the program under ``src/`` importable."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent.parent
for path in (_ROOT / "src", _ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
