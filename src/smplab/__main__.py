"""``python -m smplab``: the ``smplab`` command line."""

import sys

from .cli import main

# importing this module, as tools that walk the package do, runs nothing
if __name__ == "__main__":
    sys.exit(main())
