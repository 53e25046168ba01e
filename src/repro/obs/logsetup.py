"""Stdlib-logging wiring for the ``repro`` CLI and library.

The library logs through ordinary ``logging.getLogger("repro.*")``
loggers and never configures handlers itself — embedding applications
keep full control.  The CLI (and tests that want visible progress)
call :func:`logging_setup` once, which installs a single stderr
handler on the ``"repro"`` logger:

* verbosity ``<= -2`` — errors only;
* verbosity ``-1`` (``--quiet``) — warnings and errors;
* verbosity ``0`` (default) — info: per-job campaign progress lines;
* verbosity ``>= 1`` (``--verbose``) — debug: campaign setup and
  manifest writes.

Calling it again replaces the handler (picking up the *current*
``sys.stderr``, which matters under pytest's capture) rather than
stacking duplicates.
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional

#: Attribute marking handlers owned by :func:`logging_setup`.
_HANDLER_MARK = "_repro_obs_handler"


def verbosity_level(verbosity: int) -> int:
    """Map a ``-q``/``-v`` count to a :mod:`logging` level."""
    if verbosity <= -2:
        return logging.ERROR
    if verbosity == -1:
        return logging.WARNING
    if verbosity == 0:
        return logging.INFO
    return logging.DEBUG


def logging_setup(
    verbosity: int = 0, stream: Optional[IO[str]] = None
) -> logging.Logger:
    """Install (or replace) the ``repro`` log handler; returns the logger."""
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    setattr(handler, _HANDLER_MARK, True)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = verbosity_level(verbosity)
    handler.setLevel(level)
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger
