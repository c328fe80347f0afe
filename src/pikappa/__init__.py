"""Optimal risky-asset allocation and insurable background-risk retention
under nonlinear portfolio frictions: closed-form regime solvers, optimality
certificates, a grid oracle exact on its grid and exact Monte Carlo
verification."""

__version__ = "0.1.0"

from .errors import (BracketError, CaseMismatch, CrossCheckFailed,
                     DomainError, ModelValidationError, NoInteriorSolution,
                     NonConvergence, NoRoot, NoSolution, NoThreshold,
                     PikappaError, SOCViolation)
from .models import (BetaJumps, DifferentialRates, DiscreteJumps,
                     FrictionSpec, Frictionless, JumpLaw, LargeInvestor,
                     LinearPremium, MarketModel, ModelInputs, Policy,
                     PortfolioPremium, PowerPremium, SmoothG, Utility,
                     ValidationReport, load_model_file, parse_model_dict,
                     validate_model)
from .jumps import (JumpFunctionals, Ordering, fosd_compare, psi,
                    psi_dkappa, sample_jumps,
                    utility_jump_term)
from .hamiltonian import (Certificate, ObjectiveEval, certify, conjugate,
                          conj_premium, eval_objective, friction_term,
                          value_function)
from .solvers import (MutualFundResult, SolveReport, mutual_fund_combine,
                      solve, threshold_etas)
from .oracle import GridSpec, grid_maximize, sweep, sweep_csv
from .simulate import (ComparisonVerdict, SimConfig, SimEstimate,
                       compare_policies, simulate_terminal_utility)
