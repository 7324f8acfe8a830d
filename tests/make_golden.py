"""Regenerate the committed dashboard golden after an intentional renderer
change. Run from the repository root, then review the diff before committing:

    python tests/make_golden.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_render import GOLDEN, golden_svg  # noqa: E402

if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(golden_svg(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
