"""Pytest bootstrap: make the ``src`` layout importable without installation.

The test and benchmark suites import :mod:`repro` directly.  When the package
has been installed (``pip install -e .``) this file is a no-op; otherwise it
prepends ``src/`` to ``sys.path`` so the suites also run in offline
environments where an editable install is not possible.
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# Under CI the property tests explore the same examples on every run and print
# the reproduction blob of a failure; local runs keep Hypothesis's default
# random search (which is what finds new bugs).
try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test-only dependency
    pass
else:
    _hypothesis_settings.register_profile("ci", derandomize=True, print_blob=True)
    if os.environ.get("CI"):
        _hypothesis_settings.load_profile("ci")
