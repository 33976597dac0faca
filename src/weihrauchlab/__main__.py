"""`python -m weihrauchlab`: the command-line front door."""

import sys

from .cli import main

sys.exit(main())
