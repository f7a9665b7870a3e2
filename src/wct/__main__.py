"""python -m wct: the same front end as the wct console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
