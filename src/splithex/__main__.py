"""``python -m splithex``: the ``splithex`` command line, exiting with the
code of :func:`splithex.cli.main`."""

import sys

from .cli import main

sys.exit(main())
