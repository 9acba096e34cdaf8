"""Process entry: ``python -m regasym`` and the ``regasym`` script.

:func:`run` calls :func:`regasym.cli.main` on ``sys.argv`` and then
``gc.freeze()``, which moves every object still alive into the collector's
permanent generation.  The process is about to exit, and the collections
CPython runs while it finalizes the interpreter would only walk that heap
to free memory the OS takes back anyway (about 6-8 ms of CPU per process).
``gc.disable()`` would not do: finalization collects regardless of the
flag.  Exit handlers and stream flushing run as usual, which ``os._exit``
would skip.

``cli.main`` itself never freezes, so in-process callers (the tests, the
scripts, anything that runs several commands in one interpreter) keep
normal collection after it returns.
"""

import gc

from .cli import main


def run() -> int:
    """Run the command line on ``sys.argv``, freeze the heap, return the exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
