"""Large and moderate deviation estimates for heterogeneous portfolios
of independent bounded losses.

The package computes limit cumulant generating functions and their
Fenchel-Legendre transforms for portfolios of centered, bounded,
finite-support loss classes, checks them against an exact finite-n
lattice oracle and tilted Monte Carlo, and demonstrates numerically
that two density-oscillating interlacements of loss classes produce
distinct subsequential tail decay rates.

Two layers.  ``model`` holds the portfolio and its assumptions in plain
Python floats, so that ``import lossdev`` and ``lossdev validate`` load
no numpy.  The numerical layers, ``cgf``, ``legendre``, ``exact``,
``mc``, ``moderate`` and ``counterexample``, are attributes of the
package from the start but execute on first use: each is registered in
``sys.modules`` through ``importlib.util.LazyLoader``, and the names of
``__all__`` that they define resolve through the module ``__getattr__``.
Registered module objects, not imports inside the functions that use a
layer, because a tool that wraps functions on the modules in
``sys.modules`` (a profiler, a test's monkeypatch) then finds every
layer there before it has run, and the CLI, which calls each layer
through its module, calls what the tool installed.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .model import (
    AssumptionBounds,
    BlockSchedule,
    LossClass,
    MemoryBudgetError,
    PortfolioModel,
    RoundRobin,
    check_assumptions,
    density_profile,
    loads_model,
)

# the public names of the model layer: those imported above, taken before
# the lazy layers are bound, as looking into one would execute it
_MODEL_NAMES = [name for name, value in globals().items()
                if getattr(value, "__module__", None) == f"{__name__}.model"]


def _lazy(name: str):
    """The submodule ``name``, registered to execute on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cgf = _lazy("cgf")
legendre = _lazy("legendre")
exact = _lazy("exact")
mc = _lazy("mc")
moderate = _lazy("moderate")
counterexample = _lazy("counterexample")

# the public names each numerical layer defines
_LAYER_NAMES = {
    "cgf": ("empirical_cgf", "limit_cgf"),
    "legendre": ("legendre_transform", "rate_I1", "rate_I2", "rate_upper_bound"),
    "exact": ("IncommensurableSupportError", "enumerate_tail", "exact_log_tail",
              "exact_log_tail_rate", "exact_tail"),
    "mc": ("TiltingRangeError", "sample_plain", "sample_tilted"),
    "moderate": ("CltRegimeError", "MdQuery", "md_log_prob_prediction", "md_threshold",
                 "variance_sum"),
    "counterexample": ("build_counterexample", "subsequence_rates"),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}


def __getattr__(name: str):
    # looked up on every access, never cached here, so a function replaced
    # on its layer module is the one the package gives
    if name in _LAYER_OF:
        return getattr(globals()[_LAYER_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYER_OF})


__all__ = sorted([*_MODEL_NAMES, *_LAYER_OF])
