"""Co-scheduling of transportation and battery charging for shared EV fleets.

The package couples three pieces of machinery:

* a day-ahead charging-cost linear program (`charging_scheduler`),
* an insertion-based ride-matching scheduler (`transport_scheduler`),
* a per-slot shared-constraint concave game solved exactly to its
  normalized Nash equilibrium, certified by its variational-inequality
  residual (`model`, `vi_solver`),

and drives them over a discrete day (`simulator`), with CSV/JSON ingestion
and a command-line front end (`io_files`, `cli`).
"""

from pvjtcs.charging_scheduler import ChargingPlan, DayAheadInputs, schedule_charging
from pvjtcs.model import FeasibleSet, GameParams, PvGroup, PriceCurve, clamp_demand
from pvjtcs.simulator import RunSummary, Scenario, run_jtcs, run_tgc
from pvjtcs.transport_scheduler import TripRequest
from pvjtcs.vi_solver import kkt_verify, sspm_solve

__version__ = "0.1.0"

__all__ = [
    "GameParams",
    "PvGroup",
    "PriceCurve",
    "FeasibleSet",
    "clamp_demand",
    "sspm_solve",
    "kkt_verify",
    "DayAheadInputs",
    "ChargingPlan",
    "schedule_charging",
    "TripRequest",
    "Scenario",
    "RunSummary",
    "run_jtcs",
    "run_tgc",
    "__version__",
]
