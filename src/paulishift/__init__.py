"""Derivative estimators for noisy Pauli-rotation circuits.

Simulates parametrized circuits of Haar-random ZYZ blocks and CNOT rings
under depolarizing-type noise, estimates gradients and Hessian entries with
parameter-shift, scaled parameter-shift and finite-difference rules at finite
shot budgets, and checks the sampled errors against the closed-form MSE
theory, optimal scheme parameters and crossover copy numbers.
"""

__version__ = "0.1.0"

from .analytics import (CrossoverNotFound, MseBreakdown, TwoDesignMoments,
                        epsilon_opt, epsilon_opt_asymptotic, lambda_opt,
                        lambda_opt_eta, mse_fd, mse_sps, n_star_fd,
                        n_star_sps_exact, n_star_sps_small_eta, noise_bias,
                        two_design_moments)
from .circuits import (AnsatzLayout, PauliObservable, build_ansatz,
                       cyclic_observable, evolve, expectation, shifted,
                       zero_state)
from .estimators import DiagHessian, EstimatorSpec, Gradient, OffDiagHessian
from .harness import (ExperimentConfig, MseEstimate, NoiseSpec,
                      distribution_study, empirical_n_star, estimator_mean,
                      exact_derivative, monte_carlo_mse,
                      sample_parameter_set)
from .noise import (CnotDepolarizing, CnotPauliChannel, GlobalDepolarizing,
                    NoNoise, random_pauli_weights, total_error_rate)

__all__ = [
    "__version__",
    "AnsatzLayout", "PauliObservable", "build_ansatz", "cyclic_observable",
    "zero_state", "evolve", "expectation", "shifted",
    "NoNoise", "GlobalDepolarizing", "CnotDepolarizing", "CnotPauliChannel",
    "random_pauli_weights", "total_error_rate",
    "Gradient", "DiagHessian", "OffDiagHessian", "EstimatorSpec",
    "estimator_mean", "exact_derivative",
    "TwoDesignMoments", "MseBreakdown", "two_design_moments",
    "mse_sps", "mse_fd", "lambda_opt", "lambda_opt_eta", "epsilon_opt",
    "epsilon_opt_asymptotic", "n_star_sps_exact", "n_star_sps_small_eta",
    "n_star_fd", "noise_bias", "CrossoverNotFound",
    "ExperimentConfig", "NoiseSpec", "MseEstimate", "sample_parameter_set",
    "monte_carlo_mse", "empirical_n_star", "distribution_study",
]
