"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GeometryError(ReproError):
    """A floorplan or layer geometry is inconsistent or degenerate.

    Examples: a block with non-positive width, overlapping blocks when a
    non-overlapping floorplan is required, or a layer whose footprint is
    smaller than the die it must cover.
    """


class FloorplanParseError(ReproError):
    """A HotSpot-format floorplan file could not be parsed."""


class ModelBuildError(ReproError):
    """A thermal RC network could not be assembled from its description."""


class SolverError(ReproError):
    """A steady-state or transient solve failed to produce a solution."""


class ConvectionError(ReproError):
    """A convection correlation was evaluated outside its validity range.

    The flat-plate laminar correlations used for the oil flow (paper
    Eqns 2, 4 and 8) assume ``Re_L`` below the laminar-turbulent
    transition; violating that silently would corrupt every downstream
    temperature, so it is an error instead.
    """


class PowerTraceError(ReproError):
    """A power trace is malformed (wrong shape, negative power, ...)."""


class ConfigurationError(ReproError):
    """A cooling configuration or experiment setup is self-inconsistent."""


class CampaignError(ReproError):
    """A simulation campaign is malformed or failed to execute.

    Examples: an unknown campaign or job-runner name, duplicate job
    tags within one campaign, or asking a run for the result of a job
    that failed.
    """
