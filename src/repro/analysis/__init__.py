"""Analysis utilities: thermal-map statistics, time-constant extraction,
and temperature-to-power reverse engineering."""

from .thermal_maps import (
    MapStatistics,
    hottest_block,
    coolest_block,
    block_ranking,
)
from .time_constants import rise_time
from .reverse_power import reverse_engineer_power
from .translation import (
    TranslationResult,
    translate_measurement,
    translation_error,
)
from .frequency import (
    FrequencyResponse,
    thermal_transfer_function,
    block_transfer_function,
)
from .maps_io import (
    render_ascii_map,
    map_to_csv,
    map_from_csv,
    block_table,
)
from .variation import VariationStudy, power_variation_study

__all__ = [
    "MapStatistics",
    "hottest_block",
    "coolest_block",
    "block_ranking",
    "rise_time",
    "reverse_engineer_power",
    "TranslationResult",
    "translate_measurement",
    "translation_error",
    "FrequencyResponse",
    "thermal_transfer_function",
    "block_transfer_function",
    "render_ascii_map",
    "map_to_csv",
    "map_from_csv",
    "block_table",
    "VariationStudy",
    "power_variation_study",
]
