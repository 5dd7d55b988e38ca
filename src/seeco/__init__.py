"""Energy-minimizing secure offloading of workflow DAGs onto edge platforms.

A workflow of dependent tasks runs across a mobile device and a set of
edge servers behind wireless access points.  Data leaving an access
point is encrypted and hashed at a chosen strength; stronger protection
costs time, weaker protection costs risk.  The optimizer searches task
orderings, placements, and per-task security levels for the schedule
with the lowest device energy that meets a deadline and a risk cap.
"""

from .baselines import Strategy, StrategyKind, solve_detailed
from .evaluator import (
    Chromosome,
    EvalOptions,
    EvaluationResult,
    ServiceMode,
    TaskTiming,
    better,
    evaluate,
)
from .ga import GaParams, GaRun, GeneConstraints, run
from .platform import (
    AccessPoint,
    MobileDevice,
    Platform,
    RadioParams,
    VmSpec,
    decode_location,
    default_platform,
    downlink_rate,
    load_platform,
    save_platform,
    uplink_rate,
)
from .security import (
    CryptoAlgorithm,
    RiskModel,
    SecurityCatalog,
    Service,
    default_catalog,
    load_catalog,
    overhead,
    save_catalog,
    survival,
)
from .workflow import (
    GeneratorConfig,
    Task,
    Workflow,
    compute_deadline,
    is_valid_order,
    load_workflow,
    random_workflow,
    save_workflow,
    with_deadline,
    with_risk_cap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
