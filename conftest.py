import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent / "src"

if os.environ.get("CAMSIM_TEST_INSTALLED"):
    # Test the installed package: leave src/ off sys.path, and refuse a
    # camsim imported from this checkout's sources anyway (say, through
    # PYTHONPATH).
    import camsim

    if SRC in Path(camsim.__file__).resolve().parents:
        raise RuntimeError(
            f"CAMSIM_TEST_INSTALLED is set, but camsim was imported from "
            f"{camsim.__file__}, inside {SRC}"
        )
else:
    # Allow running the test suite from a checkout without installing.
    sys.path.insert(0, str(SRC))
