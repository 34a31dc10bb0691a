"""Closed-form results for weak-shock regular reflection-diffraction by a
wedge in a van der Waals (covolume) gas: jump relations, the detachment
criterion, the linearized diffraction field, weakly nonlinear front
corrections, and the inner structure at the front merge point.

``import vdwshock`` runs no submodule: each public name, and each module of
the table below, is imported on first use (PEP 562), under the import lock.
"""

from importlib import import_module

__version__ = "0.1.0"

#: home module -> the public names it defines
_PUBLIC = {
    "errors": "AdmissibilityError ClassificationError DetachmentError DomainError "
              "InternalInconsistencyError RegionError SingularityError",
    "geometry": "PseudoFlowState RegionLabel SelfSimilarPoint eigenvalues_and_type "
                "incident_locus make_point reflected_line region_classify",
    "inner_singular": "InnerGeometry InnerPoint expansion_fan inner_geometry inner_linear "
                      "inner_rh_residual inner_weak_solution reflected_shock_locus shock_loci "
                      "similarity_residual stretch",
    "linear_acoustics": "ExpansionCoefficients FieldSample busemann_variable corner_exponent "
                        "density_pde_residual diffracted_density diffracted_density_xi "
                        "first_order_piecewise interior_density near_front_coefficient "
                        "state1_expansion state2_expansion",
    "nonlinear_front": "FrontClassification c_beta classify_front gradient_jump psi_root "
                       "rarefaction_profile shock_locus shock_strength transport_residual",
    "regular_reflection": "CriterionReport CubicForm ReflectionSolution F_eval "
                          "beta_r_from_angles criterion cubic_coefficients positive_root "
                          "solve_regular_reflection tan_phi_r_branches",
    "shock_relations": "IncidentShockInput admissible_beta_bounds normal_incident_state",
    "thermo": "GasModel ReferenceState ThermoState reference_constants sound_speed "
              "thermo_eval validate_gas",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here once resolved, so a later lookup does not reach this function
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
