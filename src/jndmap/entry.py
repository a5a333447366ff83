"""The process entry: ``python -m jndmap.cli`` and the ``jndmap`` console
script both run :func:`process_main`.

It runs before numpy is first imported, so it can set the process up for a
run that exits when it is done:

* ``OPENBLAS_NUM_THREADS`` defaults to ``1``.  No stage calls BLAS, so the
  worker threads that numpy's OpenBLAS would otherwise start at import only
  spin; a caller's own value is kept.
* The cyclic garbage collector is off from before the imports to the exit,
  and the heap is frozen when ``main`` returns or raises, so the process
  spends no time on collector passes during the run or on the interpreter's
  collection over the whole heap at exit.  A run leaves the same few hundred
  objects in reference cycles whatever the study's size (the argument parser
  and the JSON encoder's closures), and no output waits on a finalizer.

:func:`jndmap.cli.main` itself touches neither the environment nor the
collector, so in-process callers keep theirs.  This module imports nothing
of the package until :func:`process_main` runs.
"""

from __future__ import annotations

import gc
import os


def process_main() -> int:
    """Set up the process, then run ``jndmap.cli.main()`` on ``sys.argv``."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        from .cli import main

        return main()
    finally:
        gc.freeze()
