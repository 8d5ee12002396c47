"""Stable matchings of many-to-many markets with substitutable set preferences.

Core pieces: ranked set preferences, choice functions and the axiom check
behind `validate_profile` (`core`), stability and a brute-force oracle
(`matching`), many-to-many deferred acceptance (`da`), reduction between
comparable stable matchings (`reduction`), preference cycles (`cycles`),
full-set enumeration and the truncation-based comparison algorithm
(`enumeration`), a responsive random-market generator (`gen`), and JSON
interchange plus a CLI (`serialize`, `cli`).

`firm(i)` and `worker(i)` return the `AgentId` of agent i of that side, the
same object on every call, for any int i. They are bound `dict.__getitem__`
methods, the fastest call the hot loops can make, so `help()` on them shows
dict's docstring instead of this one.
"""

from .core import (
    AgentId,
    AxiomViolation,
    CapExceeded,
    Preference,
    Profile,
    Side,
    bit_indices,
    blair_geq,
    choice,
    firm,
    full_mask,
    is_substitutable,
    mask_of,
    satisfies_lad,
    validate_profile,
    worker,
)
from .cycles import Cycle, cyclic_matching, find_cycles
from .da import DATrace, NonTermination, deferred_acceptance
from .enumeration import (
    ComparisonReport,
    EnumerationTrace,
    MMSTrace,
    compare_algorithms,
    mms_algorithm,
    stable_set,
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
    comparison_to_obj,
    cycle_to_obj,
    load_json,
    market_to_obj,
    matching_to_obj,
    parse_market,
    parse_matching,
)

__version__ = "0.1.0"
