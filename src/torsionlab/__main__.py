"""Module entry point: ``python -m torsionlab`` runs the CLI as one process,
through :func:`torsionlab.cli.process_main` as the installed script does.

The cyclic collector goes off here already, since compiling ``cli`` and
importing argparse would otherwise run two collections before
``process_main`` turns it off."""

import gc

gc.disable()

from .cli import process_main  # noqa: E402

raise SystemExit(process_main())
