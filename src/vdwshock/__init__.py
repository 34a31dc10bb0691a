"""Closed-form results for weak-shock regular reflection-diffraction by a
wedge in a van der Waals (covolume) gas: jump relations, the detachment
criterion, the linearized diffraction field, weakly nonlinear front
corrections, and the inner structure at the front merge point."""

from .errors import (
    AdmissibilityError,
    ClassificationError,
    DetachmentError,
    DomainError,
    InternalInconsistencyError,
    RegionError,
    SingularityError,
)
from .geometry import (
    PseudoFlowState,
    RegionLabel,
    SelfSimilarPoint,
    eigenvalues_and_type,
    incident_locus,
    make_point,
    reflected_line,
    region_classify,
)
from .inner_singular import (
    InnerGeometry,
    InnerPoint,
    expansion_fan,
    inner_geometry,
    inner_linear,
    inner_rh_residual,
    inner_weak_solution,
    mixed_type_classify,
    reflected_shock_locus,
    shock_loci,
    similarity_residual,
    stretch,
)
from .linear_acoustics import (
    ExpansionCoefficients,
    FieldSample,
    busemann_variable,
    corner_exponent,
    density_pde_residual,
    diffracted_density,
    diffracted_density_xi,
    first_order_piecewise,
    interior_density,
    near_front_coefficient,
    state1_expansion,
    state2_expansion,
)
from .nonlinear_front import (
    FrontClassification,
    c_beta,
    classify_front,
    gradient_jump,
    psi_root,
    rarefaction_profile,
    shock_locus,
    shock_strength,
    transport_residual,
)
from .regular_reflection import (
    CriterionReport,
    CubicForm,
    ReflectionSolution,
    F_eval,
    beta_r_from_angles,
    criterion,
    cubic_coefficients,
    positive_root,
    solve_regular_reflection,
    table_generate,
    tan_delta_r,
    tan_phi_r_branches,
)
from .shock_relations import (
    IncidentShockInput,
    ObliqueJump,
    ReflectedShockInput,
    admissible_beta_bounds,
    incident_oblique,
    normal_incident_state,
    reflected_oblique,
)
from .thermo import (
    GasModel,
    ReferenceState,
    ThermoState,
    reference_constants,
    sound_speed,
    thermo_eval,
    validate_gas,
)

__version__ = "0.1.0"
