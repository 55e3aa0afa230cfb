"""stripkit: incoherent sampling dictionaries, statistical restricted-isometry
and incoherence certification, and l1 sparse-recovery experiments."""

from .certify import (CertificationReport, SufficientConditionVerdict,
                      clopper_pearson, dg_sparsity_bound, gershgorin_sufficient,
                      oa_strip_required_m, oa_strip_sufficient, sample_support,
                      sinc_estimate, sinc_sufficient, sinc_tail_sufficient,
                      strip_estimate, strip_sufficient_direct,
                      strip_sufficient_via_sinc, wsinc_estimate)
from .coherence import (CoherenceProfile, DistanceDistribution, coherence_profile,
                        distance_distribution, moment_mu_l, oa_strength,
                        pless_residual, tight_frame_mean_sq)
from .dictionaries import (BinaryCode, Dictionary, build_chirp,
                           build_delsarte_goethals, build_etf_paley,
                           build_family, build_gaussian, build_random_harmonic,
                           delsarte_goethals_code, export_csv, from_binary_code,
                           load_dictionary, realify, save_dictionary)
from .experiments import (ExperimentConfig, ExperimentReport, run_lasso_study,
                          run_offsupport_floor, run_recovery_floor, sweep)
from .gvforge import GvSpec, code_width, gv_derandomized, gv_random
from .seeding import derive_rng
from .signals import SignalInstance, observe, sample_generic_signal
from .solvers import (Certificate, RecoveryResult, basis_pursuit, cp_conditions,
                      dual_certificate, error_report, lasso,
                      on_support_error_constant)

__version__ = "0.1.0"
