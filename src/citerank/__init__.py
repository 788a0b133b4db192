"""Citation-percentile impact indicators under competing counting rules.

Scores papers as citation percentiles within configurable reference
groups, aggregates them into the set-level I3 / %I3 indicators and
top-share excellence measures, and statistically compares what the
different counting rules report (correlations, two-proportion z-test).
"""

from importlib import import_module

from ._version import __version__

# Only the version loads with the package; any other name loads on first access (PEP 562) from the first
# of these submodules whose ``__all__`` lists it. Their lists, in this order, follow ``__version__``.
_EXPORTING = ("data_pipeline", "indicator_core", "rank_stats", "synth_bench")


def __getattr__(name: str) -> object:
    """Resolve ``__all__``, or an exported name from the first submodule that lists it, and keep it."""
    modules = (import_module(f"{__name__}.{module}") for module in _EXPORTING)  # each loads when reached
    if name == "__all__":
        value = ["__version__", *(export for module in modules for export in module.__all__)]
    else:
        # a submodule name raises at once, so the import system loads just that submodule
        private = name.startswith("_") or name in ("cli", *_EXPORTING)
        owner = None if private else next((module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
