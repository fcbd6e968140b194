"""`python -m packcrit`: the same command line as the `packcrit` script."""

import sys

from .cli import main

sys.exit(main())
