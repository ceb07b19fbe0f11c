"""``python -m setopt <verb> ...``: the same front end as the ``setopt`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
