"""Blocks and floorplans.

Coordinates follow the HotSpot ``.flp`` convention: the origin is the
bottom-left corner of the die, x grows rightward, y grows upward, and
every block is an axis-aligned rectangle given by its bottom-left corner
plus width and height.  All lengths are meters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from ..units import require_positive


@dataclass(frozen=True)
class Block:
    """A named rectangular functional unit on the die."""

    name: str
    width: float
    height: float
    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.name:
            raise GeometryError("block name must be non-empty")
        require_positive(f"width of block {self.name!r}", self.width)
        require_positive(f"height of block {self.name!r}", self.height)
        if self.x < 0 or self.y < 0:
            raise GeometryError(
                f"block {self.name!r} has negative origin ({self.x}, {self.y})"
            )

    @property
    def area(self) -> float:
        """Block area in m^2."""
        return self.width * self.height

    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge coordinate."""
        return self.y + self.height

    @property
    def center(self) -> Tuple[float, float]:
        """(x, y) coordinates of the block center."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def contains(self, x: float, y: float) -> bool:
        """Whether the point (x, y) lies inside this block.

        Points on the bottom/left edges are inside; points on the
        top/right edges are outside, so a gapless tiling assigns every
        point to exactly one block.
        """
        return self.x <= x < self.x2 and self.y <= y < self.y2

    def overlap_area(self, other: "Block") -> float:
        """Area of the intersection with ``other`` (0 if disjoint)."""
        dx = min(self.x2, other.x2) - max(self.x, other.x)
        dy = min(self.y2, other.y2) - max(self.y, other.y)
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy

    def rect_overlap_area(
        self, x1: float, y1: float, x2: float, y2: float
    ) -> float:
        """Area of the intersection with the rectangle [x1,x2) x [y1,y2)."""
        dx = min(self.x2, x2) - max(self.x, x1)
        dy = min(self.y2, y2) - max(self.y, y1)
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy


class Floorplan:
    """An ordered collection of blocks on a rectangular die.

    The die dimensions default to the bounding box of the blocks; they can
    be given explicitly when the blocks only cover part of the die.
    Block order is preserved: power vectors and temperature vectors are
    indexed in this order throughout the library.
    """

    def __init__(
        self,
        blocks: Sequence[Block],
        die_width: Optional[float] = None,
        die_height: Optional[float] = None,
        name: str = "floorplan",
    ) -> None:
        if not blocks:
            raise GeometryError("a floorplan needs at least one block")
        names = [b.name for b in blocks]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise GeometryError(f"duplicate block names: {sorted(duplicates)}")
        self._blocks: Tuple[Block, ...] = tuple(blocks)
        self._index: Dict[str, int] = {b.name: i for i, b in enumerate(self._blocks)}
        bound_w = max(b.x2 for b in self._blocks)
        bound_h = max(b.y2 for b in self._blocks)
        self.die_width = float(die_width) if die_width is not None else bound_w
        self.die_height = float(die_height) if die_height is not None else bound_h
        if self.die_width + 1e-12 < bound_w or self.die_height + 1e-12 < bound_h:
            raise GeometryError(
                f"die ({self.die_width} x {self.die_height}) smaller than the "
                f"block bounding box ({bound_w} x {bound_h})"
            )
        self.name = name

    # --- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key) -> Block:
        if isinstance(key, str):
            return self._blocks[self._index[key]]
        return self._blocks[key]

    def __repr__(self) -> str:
        return (
            f"Floorplan({self.name!r}, {len(self)} blocks, "
            f"{self.die_width * 1e3:.1f}mm x {self.die_height * 1e3:.1f}mm)"
        )

    # --- queries ---------------------------------------------------------

    @property
    def blocks(self) -> Tuple[Block, ...]:
        """Blocks in index order."""
        return self._blocks

    @property
    def names(self) -> List[str]:
        """Block names in index order."""
        return [b.name for b in self._blocks]

    @property
    def die_area(self) -> float:
        """Die area in m^2."""
        return self.die_width * self.die_height

    @property
    def block_area_total(self) -> float:
        """Sum of block areas in m^2 (== die area for a gapless tiling)."""
        return sum(b.area for b in self._blocks)

    def index_of(self, name: str) -> int:
        """Index of the named block in the floorplan order."""
        return self._index[name]

    def areas(self) -> np.ndarray:
        """Vector of block areas in floorplan order."""
        return np.array([b.area for b in self._blocks])

    def coverage_fraction(self) -> float:
        """Fraction of die area covered by blocks (pairwise overlaps
        double-count, so validate with :meth:`check_non_overlapping`)."""
        return self.block_area_total / self.die_area

    def check_non_overlapping(self, tolerance: float = 1e-12) -> None:
        """Raise :class:`GeometryError` if any pair of blocks overlaps."""
        for i, a in enumerate(self._blocks):
            for b in self._blocks[i + 1:]:
                area = a.overlap_area(b)
                if area > tolerance:
                    raise GeometryError(
                        f"blocks {a.name!r} and {b.name!r} overlap "
                        f"({area:.3e} m^2)"
                    )

    def power_vector(self, powers: Mapping[str, float]) -> np.ndarray:
        """Convert a name->Watts mapping into a vector in floorplan order.

        Blocks missing from ``powers`` get zero.  Unknown names raise
        KeyError so typos do not silently drop power.
        """
        unknown = set(powers) - set(self._index)
        if unknown:
            raise KeyError(f"power given for unknown blocks: {sorted(unknown)}")
        vector = np.zeros(len(self._blocks))
        for name, watts in powers.items():
            vector[self._index[name]] = float(watts)
        return vector

    def power_dict(self, vector: Sequence[float]) -> Dict[str, float]:
        """Convert a per-block vector into a name->value dict."""
        values = np.asarray(vector, dtype=float)
        if values.shape != (len(self._blocks),):
            raise ValueError(
                f"expected a vector of length {len(self._blocks)}, "
                f"got shape {values.shape}"
            )
        return {b.name: float(values[i]) for i, b in enumerate(self._blocks)}

    def scaled(self, factor: float) -> "Floorplan":
        """A geometrically scaled copy (every length multiplied by factor)."""
        require_positive("scale factor", factor)
        blocks = [
            Block(b.name, b.width * factor, b.height * factor,
                  b.x * factor, b.y * factor)
            for b in self._blocks
        ]
        return Floorplan(
            blocks,
            die_width=self.die_width * factor,
            die_height=self.die_height * factor,
            name=self.name,
        )
