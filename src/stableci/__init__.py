"""Simultaneous confidence intervals after stabilized model selection.

The quantile constant for the selected model is corrected for the
selector's certified stability budget; noisy selectors here certify their
own budgets, so selection and inference can share the full sample.
"""

__version__ = "0.1.0"

from .errors import StableCIError
from .linmodel import DesignMatrix, ModelSet
from .noise import RngStream, Subgaussian
from .selectors import SelectionResult, SelectorSpec, stable_fs, stable_lasso, stable_screening
from .stability import IntervalSet, StabilityBudget, infer
from .experiments import ExperimentConfig, eta_sweep, run_selector, run_trial
