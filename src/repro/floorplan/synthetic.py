"""Generated floorplans for controlled experiments.

The paper's characterization experiments (Figs. 2, 3, 6, 8) use simple
synthetic dies: a uniform die, or a die with one small hot block.  The
reverse-power-engineering analysis (Section 5.4) discusses a multi-core
chip with identical cores.  These generators produce exact, gapless
tilings for all of those cases.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import GeometryError
from ..units import require_positive
from .block import Block, Floorplan


def uniform_grid_floorplan(
    die_width: float,
    die_height: float,
    nx: int = 1,
    ny: int = 1,
    prefix: str = "cell",
) -> Floorplan:
    """A die tiled by an nx-by-ny grid of identical rectangular blocks.

    With ``nx == ny == 1`` this is the single-block uniform die used in
    the Fig. 2 validation (20 mm x 20 mm, uniformly powered).
    """
    require_positive("die_width", die_width)
    require_positive("die_height", die_height)
    if nx < 1 or ny < 1:
        raise GeometryError("grid dimensions must be >= 1")
    cell_w = die_width / nx
    cell_h = die_height / ny
    blocks: List[Block] = []
    for j in range(ny):
        for i in range(nx):
            name = prefix if nx * ny == 1 else f"{prefix}_{i}_{j}"
            blocks.append(Block(name, cell_w, cell_h, i * cell_w, j * cell_h))
    return Floorplan(
        blocks, die_width=die_width, die_height=die_height, name="uniform_grid"
    )


def single_hot_block_floorplan(
    die_width: float,
    die_height: float,
    hot_width: float,
    hot_height: float,
    hot_x: Optional[float] = None,
    hot_y: Optional[float] = None,
    hot_name: str = "hot",
    cold_prefix: str = "cold",
) -> Floorplan:
    """A die with one rectangular hot block and the rest tiled around it.

    The surrounding area is tiled with (up to) eight rectangles: four
    edge strips and four corners, so block-level aggregation still sees a
    sensible "coolest unit" (paper Fig. 6 plots the coolest block).  By
    default the hot block is centered, matching the Fig. 3 validation
    (2 mm x 2 mm source at the center of a 20 mm die).
    """
    require_positive("die_width", die_width)
    require_positive("die_height", die_height)
    require_positive("hot_width", hot_width)
    require_positive("hot_height", hot_height)
    if hot_width > die_width or hot_height > die_height:
        raise GeometryError("hot block does not fit on the die")
    if hot_x is None:
        hot_x = (die_width - hot_width) / 2.0
    if hot_y is None:
        hot_y = (die_height - hot_height) / 2.0
    if hot_x < 0 or hot_y < 0 or hot_x + hot_width > die_width + 1e-12 \
            or hot_y + hot_height > die_height + 1e-12:
        raise GeometryError("hot block placement is outside the die")

    blocks = [Block(hot_name, hot_width, hot_height, hot_x, hot_y)]
    x0, x1 = hot_x, hot_x + hot_width
    y0, y1 = hot_y, hot_y + hot_height

    def add(name: str, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> None:
        if x_hi - x_lo > 1e-12 and y_hi - y_lo > 1e-12:
            blocks.append(
                Block(name, x_hi - x_lo, y_hi - y_lo, x_lo, y_lo)
            )

    # Strips left/right of the hot block at its own vertical span, full
    # width strips below and above.
    add(f"{cold_prefix}_left", 0.0, x0, y0, y1)
    add(f"{cold_prefix}_right", x1, die_width, y0, y1)
    add(f"{cold_prefix}_bottom", 0.0, die_width, 0.0, y0)
    add(f"{cold_prefix}_top", 0.0, die_width, y1, die_height)

    plan = Floorplan(
        blocks, die_width=die_width, die_height=die_height,
        name="single_hot_block",
    )
    plan.check_non_overlapping()
    return plan


def multicore_floorplan(
    cores_x: int,
    cores_y: int,
    core_width: float,
    core_height: float,
    core_prefix: str = "core",
) -> Floorplan:
    """A many-core die: a cores_x-by-cores_y array of identical cores.

    Used by the Section 5.4 reverse-power-engineering experiment: with
    every core dissipating the same power and oil flowing left-to-right,
    downstream cores read hotter under the IR camera and their
    reverse-engineered power is inflated.
    """
    if cores_x < 1 or cores_y < 1:
        raise GeometryError("core counts must be >= 1")
    plan = uniform_grid_floorplan(
        cores_x * core_width, cores_y * core_height,
        nx=cores_x, ny=cores_y, prefix=core_prefix,
    )
    return Floorplan(
        plan.blocks, die_width=plan.die_width, die_height=plan.die_height,
        name="multicore",
    )
