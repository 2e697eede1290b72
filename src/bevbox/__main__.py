"""``python -m bevbox``: the same command line as the ``bevbox`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
