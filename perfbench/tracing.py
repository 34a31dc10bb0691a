"""Spans and counts at the public boundaries of each vdwshock module.

The tracer wraps functions from the outside: it replaces every module-level
name in the ``vdwshock`` package that refers to a traced function, so a call
is seen whether the caller looks the function up where it is defined or
where it was imported by name (``checks`` imports ``criterion``,
``regular_reflection`` imports ``validate_gas``, ``linear_acoustics``
imports ``region_classify`` and so on).  A site that escaped patching would
show up as a zero count; a wrapper that changed results would show up as a
golden-digest mismatch.

Spans are aggregated in place rather than stored one by one: a gate report
makes about a million boundary calls.  A span's self time is its duration
minus the durations of the spans directly inside it.  Counted-only functions
get no span, so their time stays with the enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "vdwshock"

#: the ten gate checks, in report order, plus the function running them all
CHECKS = (
    "cubic_self_consistency", "table_trends", "branch_limits", "reflection_solve",
    "geometry_incidence", "linear_field", "front_corrections", "inner_region",
    "table_fixture_comparison", "cli_determinism",
)
CHECK_SPANS = ("checks.run_all_checks",) + tuple(f"checks.check_{c}" for c in CHECKS)

#: timed functions, as "<module>.<function>"; each gets .calls and .self_ms
SPANS = (
    "cli.main",
    "config.parse_config",
    "reports.render_criterion", "reports.render_table", "reports.render_field",
    "reports.render_front", "reports.render_inner",
    "reports.csv_text", "reports.json_text",
    "thermo.validate_gas",
    "shock_relations.check_incident_beta",
    "regular_reflection.criterion", "regular_reflection.cubic_coefficients",
    "regular_reflection.positive_root", "regular_reflection.beta_r_from_angles",
    "regular_reflection.solve_regular_reflection",
    "geometry.region_classify",
    "linear_acoustics.diffracted_density_xi", "linear_acoustics.interior_density",
    "nonlinear_front.gradient_jump", "nonlinear_front.shock_locus",
    "nonlinear_front.shock_strength",
    "inner_singular.inner_weak_solution",
)

#: functions only counted (cheap or called per cell); each gets .calls
COUNTED = (
    "reports.fmt",
    "thermo.reference_constants",
    "regular_reflection.tan_phi_r_branches",
    "geometry.make_point",
    "linear_acoustics.busemann_variable",
    "nonlinear_front.c_beta",
    "inner_singular.shock_loci", "inner_singular.reflected_shock_locus",
)

#: spans reported under one layer name (the renderers minus their kernels)
MERGED = {f"reports.render_{c}": "reports.render"
          for c in ("criterion", "table", "field", "front", "inner")}

#: wrapped call whose result is also classified: criterion reports admissibility
ADMISSIBLE = "regular_reflection.criterion"


def layer_name(qual: str) -> str:
    return MERGED.get(qual, qual)


class Tracer:
    """Patches a fixed set of functions in and out and accumulates their stats.

    ``stats[name]`` is ``[calls, self_seconds, inclusive_seconds, admissible]``.
    """

    def __init__(self, spans: tuple[str, ...], counted: tuple[str, ...] = ()):
        self.stats: dict[str, list] = {}
        self._stack = [0.0]
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for qual in spans:
            self._plan(qual, modules, self._span)
        for qual in counted:
            self._plan(qual, modules, self._count)

    def _plan(self, qual, modules, make):
        mod_name, func = qual.split(".")
        original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], func)
        stat = self.stats.setdefault(layer_name(qual), [0, 0.0, 0.0, 0])
        wrapper = functools.wraps(original)(make(original, stat, qual == ADMISSIBLE))
        for module in modules:
            for attr, value in vars(module).items():
                if value is original:
                    self._sites.append((module, attr, original, wrapper))

    def _span(self, fn, stat, classify):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if classify and result.admissible:
                    stat[3] += 1
                return result
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stat[2] += dt
                stack[-1] += dt

        return wrapper

    def _count(self, fn, stat, _classify):
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sites(self) -> list[str]:
        """Every patched lookup site, as "<module>.<name>"."""
        return sorted(f"{m.__name__.removeprefix(PACKAGE + '.')}.{a}" for m, a, _, _ in self._sites)

    def install(self) -> None:
        for module, attr, _original, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._sites:
            setattr(module, attr, original)

    def take(self) -> dict[str, tuple]:
        """Return the stats gathered since the last take, and zero them."""
        snap = {}
        for name, stat in self.stats.items():
            snap[name] = tuple(stat)
            stat[:] = [0, 0.0, 0.0, 0]
        return snap
