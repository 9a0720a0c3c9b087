"""Construction, exact verification, and QS-CDMA simulation of multiple
zero-correlation-zone sequence sets built from generalized Boolean
functions."""

__version__ = "0.1.0"

from .gbf import *  # noqa: E402,F401,F403
from .correlation import *  # noqa: E402,F401,F403
from .construction import *  # noqa: E402,F401,F403
from .qscdma import *  # noqa: E402,F401,F403

__all__ = [name for name in dir() if not name.startswith("_")]
