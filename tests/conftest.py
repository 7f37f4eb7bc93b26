"""Test-session setup: no run of the suite writes bytecode, and every
warning is an error.

A ``__pycache__`` left in ``src/`` would let a later run of the same
checkout import faster than a fresh one, so neither this interpreter nor
the interpreters the tests start (the CLI and demo subprocesses, the
Monte Carlo worker processes) write ``.pyc`` files.  ``pyproject.toml``
makes warnings errors in this interpreter; ``PYTHONWARNINGS`` does so in
the ones it starts.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
os.environ["PYTHONWARNINGS"] = "error"
