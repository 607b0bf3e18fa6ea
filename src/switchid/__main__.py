"""Run the command line as ``python -m switchid``, installed or not."""

import sys

from .cli import main

sys.exit(main())
