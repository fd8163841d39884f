"""`python -m lorentzlab`: the lorentzlab command, as lorentzlab.cli.main."""

import sys

from .cli import main

sys.exit(main())
