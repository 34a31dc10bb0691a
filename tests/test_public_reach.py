"""Every public function is reached by a command or by the release gate, or is exempt.

A profile of ``cli.main([command])`` for each of the six commands at its defaults
collects the code object of every Python call; a public function is reached
when its code object is among them.  The public functions reached by none
must equal the keys of EXEMPT: a new public function that nothing runs fails
here, and so does an exemption whose function now runs or no longer exists.
"""

import contextlib
import inspect
import io
import sys

import vdwshock
from vdwshock import cli

#: public functions that no command and no gate check runs, each with why it stays
EXEMPT = {
    # perfbench/tracing.py names them, so they go only with a change to the benchmark
    "beta_r_from_angles": "traced by perfbench: the reflected density ratio of two shock angles",
    "criterion": "traced by perfbench: the checked detachment report; the criterion command "
                 "and the gate read the same one-column _threshold_row entry unchecked",
    "cubic_coefficients": "traced by perfbench: the threshold cubic's coefficients h0..h3, m, n",
    "interior_density": "traced by perfbench: the diffracted density inside the subsonic disk",
    "positive_root": "traced by perfbench: the sign-change root of one cubic, which "
                     "_threshold_row takes for a cell its certificate does not accept",
    # candidate gate oracles for the kernels that the gate does not yet see
    "admissible_beta_bounds": "oracle candidate for beta_upper and _within at the band's ends",
    "eigenvalues_and_type": "oracle candidate for the flow type on either side of each locus",
    "near_front_coefficient": "oracle candidate for _front_coefficient on the arc and in the ring",
    "sound_speed": "oracle candidate for a0 at the reference state",
    "thermo_eval": "oracle candidate for a0 and c0 at the reference state",
    # references that tests check the closed forms against
    "F_eval": "test reference: the radicand F vanishes at criterion's threshold J",
    "inner_linear": "test reference: the outer field's limit in the stretched frame",
    "normal_incident_state": "test reference: the head-on state behind state1_expansion",
    "transport_residual": "test reference: the diffracted front's transport law",
    # the paper's closed forms, which have no other home
    "first_order_piecewise": "the paper's piecewise first-order values of the outer field",
    "state1_expansion": "the paper's expansion coefficients of state 1 in epsilon",
    "stretch": "the paper's stretched coordinates r', theta' at the merge point",
}


def _reached_code():
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    for command in cli.COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            sys.setprofile(profile)
            try:
                cli.main([command])
            finally:
                sys.setprofile(None)
        assert err.getvalue() == "", (command, err.getvalue())  # no validation error
    return codes


def test_unreached_public_functions_are_the_exempt_ones():
    codes = _reached_code()
    functions = {name: getattr(vdwshock, name) for name in vdwshock.__all__}
    unreached = {name for name, value in functions.items()
                 if inspect.isfunction(value) and value.__code__ not in codes}
    new, stale = sorted(unreached - set(EXEMPT)), sorted(set(EXEMPT) - unreached)
    assert not new, f"public, but no command or check runs it: {new}"
    assert not stale, f"exempt, but a command or check runs it, or it is gone: {stale}"
