"""Differentially private synthetic tabular data, central and federated."""

from .domain import (
    DiscreteDataset,
    Domain,
    MarginalQuery,
    evaluate_marginal,
    normalized_counts,
)
from .workload import Workload, complete_workload, random_workload, workload_error
from .model import Measurement, ModelState, fit
from .partition import (
    ClientPartition,
    HeterogeneityReport,
    heterogeneity_report,
    mixture_dataset,
    partition_cluster_skew,
    partition_iid,
    partition_label_skew,
    synthfs,
)
from .privacy import (
    BudgetExhaustedError,
    NoiseSchedule,
    PrivacyAccountant,
    exponential_mechanism,
    gaussian_mechanism,
    rho_from_eps_delta,
)
from .central import AimConfig, AimResult, run_aim
from .federated import FedConfig, FedResult, run_distaim, run_flaim

__version__ = "0.1.0"

__all__ = [
    "AimConfig",
    "AimResult",
    "BudgetExhaustedError",
    "ClientPartition",
    "DiscreteDataset",
    "Domain",
    "FedConfig",
    "FedResult",
    "HeterogeneityReport",
    "MarginalQuery",
    "Measurement",
    "ModelState",
    "NoiseSchedule",
    "PrivacyAccountant",
    "Workload",
    "complete_workload",
    "evaluate_marginal",
    "exponential_mechanism",
    "fit",
    "gaussian_mechanism",
    "heterogeneity_report",
    "mixture_dataset",
    "normalized_counts",
    "partition_cluster_skew",
    "partition_iid",
    "partition_label_skew",
    "random_workload",
    "rho_from_eps_delta",
    "run_aim",
    "run_distaim",
    "run_flaim",
    "synthfs",
    "workload_error",
]
