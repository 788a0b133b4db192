"""Citation-percentile impact indicators under competing counting rules.

Scores papers as citation percentiles within configurable reference
groups, aggregates them into the set-level I3 / %I3 indicators and
top-share excellence measures, and statistically compares what the
different counting rules report (correlations, two-proportion z-test).
"""

from . import data_pipeline, indicator_core, rank_stats, synth_bench
from ._version import __version__
from .data_pipeline import *  # noqa: F403
from .indicator_core import *  # noqa: F403
from .rank_stats import *  # noqa: F403
from .synth_bench import *  # noqa: F403

__all__ = [
    "__version__",
    *data_pipeline.__all__,
    *indicator_core.__all__,
    *rank_stats.__all__,
    *synth_bench.__all__,
]
