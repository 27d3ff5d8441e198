"""`python -m medha`: the `medha` command line (medha.cli)."""

import sys

from .cli import main

sys.exit(main())
