"""Import funcalg from the `src/` directory of the checkout this file sits in.

The benchmark must measure the engine next to it, never an installed copy,
so the import fails loudly when `src/funcalg` is absent.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if not (SRC / "funcalg" / "__init__.py").is_file():
    raise ImportError(f"funcalg sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import funcalg  # noqa: E402

if Path(funcalg.__file__).resolve().parent != SRC / "funcalg":
    raise ImportError(f"imported funcalg from {funcalg.__file__}, not from {SRC}")
