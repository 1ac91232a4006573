"""Make the harness modules (``perfbench/*.py``) and the program
(``src/``) importable by name."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(1, str(ROOT / "src"))
