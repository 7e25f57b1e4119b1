"""Import the promptlab sources of the checkout this benchmark sits in.

The benchmark always measures ``<checkout>/src/promptlab``, never an
installed copy, so a run in a directory without the sources fails instead
of timing some other version of the program.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout has no importable promptlab sources."""


def load_program():
    package = SRC / "promptlab"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no promptlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import promptlab
    if Path(promptlab.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"promptlab was imported from {promptlab.__file__},"
                             f" not from {package}")
    return promptlab
