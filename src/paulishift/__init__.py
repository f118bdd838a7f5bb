"""Derivative estimators for noisy Pauli-rotation circuits.

Simulates parametrized circuits of Haar-random ZYZ blocks and CNOT rings
under depolarizing-type noise, estimates gradients and Hessian entries with
parameter-shift, scaled parameter-shift and finite-difference rules at finite
shot budgets, and checks the sampled errors against the closed-form MSE
theory, optimal scheme parameters and crossover copy numbers.

The namespace is lazy (PEP 562): ``import paulishift`` loads no submodule
and no numpy, and each name below imports its module on first access.
"""
import importlib

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "circuits": "AnsatzLayout PauliObservable build_ansatz cyclic_observable "
                "zero_state evolve expectation shifted",
    "noise": "NoNoise GlobalDepolarizing CnotDepolarizing CnotPauliChannel "
             "random_pauli_weights total_error_rate",
    "estimators": "Gradient DiagHessian OffDiagHessian EstimatorSpec",
    "analytics": "TwoDesignMoments MseBreakdown two_design_moments mse_sps "
                 "mse_fd lambda_opt lambda_opt_eta epsilon_opt "
                 "epsilon_opt_asymptotic n_star_sps_exact "
                 "n_star_sps_small_eta n_star_fd noise_bias "
                 "CrossoverNotFound",
    "harness": "estimator_mean exact_derivative ExperimentConfig NoiseSpec "
               "MseEstimate sample_parameter_set monte_carlo_mse "
               "empirical_n_star distribution_study",
}.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                   name)
