"""Start-up of a command-line process: ``python -m smmport`` and the
installed ``smmport`` script both call :func:`run`.

CPython ends a process with a full cyclic garbage collection over every
object the collector tracks, and after numpy's import there are tens of
thousands of them, none of which a one-shot command frees. ``run`` moves
what the import built, and at the end what the command left, into the
collector's permanent generation (``gc.freeze``), so that neither the
command's own collections nor the one at exit walk them. Library callers
and tests call :func:`smmport.cli.main`, which leaves the collector as
they set it.
"""

import gc
import sys


def run() -> int:
    """Import the CLI with the collector off, freeze what the import
    built, run the command with the collector on, and freeze what is left
    before the interpreter exits."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
