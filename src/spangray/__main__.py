"""``python -m spangray``: the command line of :mod:`spangray.cli`."""

import sys

from .cli import entry

if __name__ == "__main__":
    sys.exit(entry())
