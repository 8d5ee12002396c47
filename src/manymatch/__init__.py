"""Stable matchings of many-to-many markets with substitutable set preferences.

Core pieces: ranked set preferences and choice functions (`core`), stability
and a brute-force oracle (`matching`), many-to-many deferred acceptance
(`da`), reduction between comparable stable matchings (`reduction`),
preference cycles (`cycles`), full-set enumeration and the truncation-based
comparison algorithm (`enumeration`), a responsive random-market generator
(`gen`), and JSON interchange plus a CLI (`serialize`, `cli`).
"""

from .core import (
    AgentId,
    CapExceeded,
    Preference,
    Profile,
    Side,
    bit_indices,
    blair_geq,
    check_eq1,
    choice,
    firm,
    full_mask,
    is_substitutable,
    mask_of,
    satisfies_lad,
    truncate,
    worker,
)
from .cycles import Cycle, cyclic_matching, find_cycles
from .da import DATrace, NonTermination, deferred_acceptance
from .enumeration import (
    AxiomViolation,
    ComparisonReport,
    EnumerationTrace,
    MMSTrace,
    compare_algorithms,
    mms_algorithm,
    stable_set,
    validate_profile,
)
from .gen import GenConfig, random_market
from .matching import (
    Matching,
    StabilityReport,
    brute_force_stable_set,
    rural_hospitals_holds,
    stability,
    unanimous_blair_geq,
)
from .reduction import (
    NotComparable,
    NotStable,
    ReducedProfile,
    reduce_profile,
    reduce_to_worker_optimal,
)
from .serialize import (
    MarketFormatError,
    cycle_to_obj,
    market_to_obj,
    matching_to_obj,
    parse_market,
    parse_matching,
)

__version__ = "0.1.0"
