"""The lazy package: ``import vdwshock`` runs no submodule, and every public
name still resolves, from any number of threads at once."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import vdwshock

SRC = str(Path(vdwshock.__file__).resolve().parents[1])

# the public names of each home module
PUBLIC = {
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


def run_fresh(code):
    """stdout of code run in a fresh interpreter that imports this package."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_holds_the_public_names():
    names = [name for group in PUBLIC.values() for name in group.split()]
    assert len(names) == len(set(names)) == 67
    assert sorted(vdwshock.__all__) == sorted(names)


def test_each_name_is_its_home_module_object():
    listed = dir(vdwshock)
    for module, group in PUBLIC.items():
        home = importlib.import_module(f"vdwshock.{module}")
        for name in group.split():
            assert getattr(vdwshock, name) is getattr(home, name), name
            assert name in listed


def test_bare_import_runs_no_submodule_and_resolves_each_one():
    out = run_fresh(
        "import sys, vdwshock\n"
        "print(sorted(name for name in sys.modules if name.startswith('vdwshock.')))\n"
        f"for module in {sorted(PUBLIC)!r}:\n"
        "    print(getattr(vdwshock, module) is sys.modules['vdwshock.' + module])\n"
        "print(hasattr(vdwshock, 'reports'), hasattr(vdwshock, 'no_such_name'))\n"
    )
    assert out.split("\n") == ["[]", *["True"] * len(PUBLIC), "False False", ""]


def test_first_use_from_eight_threads():
    # a short switch interval lets the threads interleave inside the imports
    out = run_fresh(
        "import sys, threading, vdwshock\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(8, timeout=30)\n"
        "reports, errors = [], []\n"
        "def use():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        for name in vdwshock.__all__:\n"
        "            getattr(vdwshock, name)\n"
        "        reports.append(vdwshock.criterion(1.2, vdwshock.GasModel(1.4, 0.1)))\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=use) for _ in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(30)\n"
        "print(any(thread.is_alive() for thread in threads), errors, len(reports),\n"
        "      all(r == reports[0] for r in reports))\n"
        "print(reports[0].admissible, reports[0].J > 0.0)\n"
    )
    assert out.split("\n") == ["False [] 8 True", "True True", ""]
