"""``python -m cosetcodes ARGS`` runs the ``cosetcodes`` command line."""

import sys

from .cli import main

sys.exit(main())
