"""Floorplan representation and the chip floorplans used by the paper.

A floorplan is a set of named rectangular blocks tiling (part of) a die.
Per-block powers are applied uniformly over each block's area, exactly as
the paper assumes ("we assume uniform power per unit", Section 3.2).
"""

from .block import Block, Floorplan
from .parser import parse_flp, format_flp, load_flp, save_flp
from .ev6 import ev6_floorplan, EV6_BLOCK_NAMES
from .athlon import athlon_floorplan, ATHLON_BLOCK_NAMES, athlon_reference_power
from .synthetic import (
    single_hot_block_floorplan,
    multicore_floorplan,
    uniform_grid_floorplan,
)
from .grid_map import GridMapping

__all__ = [
    "Block",
    "Floorplan",
    "parse_flp",
    "format_flp",
    "load_flp",
    "save_flp",
    "ev6_floorplan",
    "EV6_BLOCK_NAMES",
    "athlon_floorplan",
    "ATHLON_BLOCK_NAMES",
    "athlon_reference_power",
    "single_hot_block_floorplan",
    "multicore_floorplan",
    "uniform_grid_floorplan",
    "GridMapping",
]
