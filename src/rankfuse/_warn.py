"""The package's one way to warn: a UserWarning that names the caller's line."""

from __future__ import annotations

import sys
import warnings

_PACKAGE = __name__.rpartition(".")[0]


def warn(message: str) -> None:
    """Warn ``message`` as a UserWarning from the first frame outside the
    package: the line that called into it, however deep below that line
    the warning is raised. The package's frames are counted into
    ``stacklevel``, which works alike on every supported Python."""
    level, frame = 2, sys._getframe(1)
    while frame.f_back is not None:
        if frame.f_globals.get("__name__", "").partition(".")[0] != _PACKAGE:
            break
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)
