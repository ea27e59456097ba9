"""Exact symmetries of the models, run through the solver.

The maps z -> conj z, z -> -z and z -> iz are isometries of the disk, its
scaled variants and the plane. In floating point they only negate and swap
components, and IEEE addition and multiplication commute and are symmetric
under sign, so every step of the kernel maps bit for bit. A run on the mapped
problem must therefore equal the mapped run, record by record, with zero
tolerance: in the iterate z, the value, the subgradient norm and the distance
to S, up to the sign of a zero the kernel computes (see ``bits``). Any asymmetric slip in the kernel breaks it, such as a swapped or
mis-signed component, a misplaced conjugate, or a rounding taken on one axis
only, and it needs no golden file.
"""

import cmath
import math
from dataclasses import dataclass

from hypothesis import given, strategies as st
from reference import reference_run

from hypersub.geometry import EUCLIDEAN_PLANE, POINCARE_DISK, DiskPoint, Manifold, scaled_disk
from hypersub.oracles import (
    SolutionSet,
    ball_hinge_oracle,
    busemann_oracle,
    distance_oracle,
    two_busemann_oracle,
    weighted_sum,
)
from hypersub.schedules import StepSchedule, harmonic, log_inverse, power_law, sqrt_harmonic, table
from hypersub.solver import SolveConfig, run

MAPS = {
    "conj": lambda z: complex(z.real, -z.imag),
    "neg": lambda z: complex(-z.real, -z.imag),
    "rot": lambda z: complex(-z.imag, z.real),
}
DISKS = [POINCARE_DISK, scaled_disk(0.5), scaled_disk(2.0)]
STEPS = 200


def identity(z: complex) -> complex:
    return z


@dataclass(frozen=True)
class Problem:
    """A solve whose points are all given as complex numbers, so that a map
    can be applied to them. ``kind`` is "hinges" (terms (a, r, w): a distance
    for r = 0, else a ball hinge, weighted by w), "busemann" (terms (eta,))
    or "two-busemann" (no terms)."""

    kind: str
    m: Manifold
    terms: tuple
    x0: complex
    schedule: StepSchedule

    def config(self, T=identity) -> SolveConfig:
        def point(z):
            return DiskPoint.from_complex(T(z), check=not self.m.flat)

        if self.kind == "hinges":
            parts = [distance_oracle(point(a)) if r == 0.0 else ball_hinge_oracle(point(a), r)
                     for a, r, _ in self.terms]
            # S of the first term, which is the S of the sum when it is alone.
            a, r, _ = self.terms[0]
            sset = SolutionSet.single_point(point(a)) if r == 0.0 else SolutionSet.closed_ball(point(a), r)
            oracle = weighted_sum(parts, [w for _, _, w in self.terms], solution_set=sset)
        elif self.kind == "busemann":
            oracle = busemann_oracle(T(self.terms[0]))
        else:
            oracle = two_busemann_oracle()
        return SolveConfig(self.m, oracle, self.schedule, point(self.x0), STEPS)


def bits(v: float) -> str:
    """The bits of v, but for the sign of a zero. A zero that the kernel
    computes, such as x - x or a product that underflows, is +0.0 in the run
    and in the mapped run alike, so it need not carry the mapped sign; no
    nonzero value depends on that sign."""
    return (v + 0.0).hex()


def record_bits(records: list, T=identity) -> list[tuple]:
    """Every record, its iterate mapped by T, with each float as its bits."""
    return [
        (k, bits(T(z).real), bits(T(z).imag), bits(f), bits(gn),
         bits(lam), None if d is None else bits(d), drift)
        for k, z, f, gn, lam, d, drift in records
    ]


def solve(cfg: SolveConfig) -> tuple[list, tuple]:
    """The records of run(cfg) and the kind and step of its termination."""
    trace = run(cfg)
    return trace.records, (trace.termination.kind, trace.termination.step)


def solve_by_reference(cfg: SolveConfig) -> tuple[list, tuple]:
    """``solve`` by reference_run, the loop on Manifold.exp_z that run() is
    pinned to in tests/test_solver.py."""
    records, (kind, step, _) = reference_run(cfg)
    return records, (kind, step)


def maps_exactly(problem: Problem, name: str, solver=solve) -> bool:
    """Whether the run on the problem mapped by MAPS[name] is the mapped run.
    A failure's reason is not compared: it quotes the failing components."""
    T = MAPS[name]
    (base, base_end), (mapped, mapped_end) = solver(problem.config()), solver(problem.config(T))
    return base_end == mapped_end and record_bits(mapped) == record_bits(base, T)


# Signed zeros and subnormals included.
coordinates = st.floats(-0.69, 0.69)
points = st.builds(complex, coordinates, coordinates)
scales = st.floats(0.05, 2.0)
schedules = st.one_of(
    st.builds(harmonic, scales),
    st.builds(sqrt_harmonic, scales),
    st.builds(power_law, scales, st.floats(0.55, 1.0)),
    st.builds(log_inverse, scales),
    st.builds(table, st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4)),
)
hinge_terms = st.lists(
    st.tuples(points, st.one_of(st.just(0.0), st.floats(0.05, 1.0)), st.floats(0.1, 10.0)),
    min_size=1,
    max_size=4,
).map(tuple)
directions = st.floats(0.0, 2.0 * math.pi).map(lambda t: cmath.exp(1j * t))


class TestExactSymmetry:
    @given(st.sampled_from([*DISKS, EUCLIDEAN_PLANE]), hinge_terms, points, schedules)
    def test_sums_of_distances_and_ball_hinges(self, m, terms, x0, schedule):
        problem = Problem("hinges", m, terms, x0, schedule)
        assert [name for name in MAPS if not maps_exactly(problem, name)] == []

    @given(st.sampled_from(DISKS), directions, points, schedules)
    def test_busemann_with_its_direction_mapped(self, m, eta, x0, schedule):
        # The runs head for the boundary, so the radial clamp is mapped too.
        problem = Problem("busemann", m, (eta,), x0, schedule)
        assert [name for name in MAPS if not maps_exactly(problem, name)] == []

    @given(st.sampled_from(DISKS), points, schedules)
    def test_two_busemann_under_the_maps_that_fix_its_solution_set(self, m, x0, schedule):
        # S is the diameter on the x-axis, which iz does not fix.
        problem = Problem("two-busemann", m, (), x0, schedule)
        assert [name for name in ("conj", "neg") if not maps_exactly(problem, name)] == []


# Two distances and a ball hinge.
SUM = Problem("hinges", POINCARE_DISK, ((0.5 + 0.1j, 0.0, 1.0), (-0.3 + 0.4j, 0.0, 2.0),
                                        (-0.2 - 0.5j, 0.2, 0.5)), 0.1 + 0.9j, harmonic(1.0))


class TestHarnessCatchesAOneUlpFault:
    def test_on_the_real_component_of_exp(self, monkeypatch):
        # run() and exp_z share one disk step, Manifold._disk_step, so the
        # fault patched into it reaches run() itself and the reference loop
        # on exp_z alike.
        disk_step = Manifold._disk_step

        def nudged(p, v, s):
            w, drift = disk_step(p, v, s)
            return complex(math.nextafter(w.real, math.inf), w.imag), drift

        for solver in (solve, solve_by_reference):
            assert all(maps_exactly(SUM, name, solver) for name in MAPS)
        monkeypatch.setattr(Manifold, "_disk_step", staticmethod(nudged))
        # Conjugation keeps the real component, so it maps the fault onto
        # itself; the other two maps move it onto -x or onto y.
        for solver in (solve, solve_by_reference):
            assert [name for name in MAPS if not maps_exactly(SUM, name, solver)] == ["neg", "rot"]

    def test_on_the_distance_in_the_right_half_plane(self, monkeypatch):
        # The distance to S enters no step, so only the records' dist_to_s
        # can show a fault in the distance-only path.
        distance_z = Manifold.distance_z

        def nudged(self, p, q):
            d = distance_z(self, p, q)
            return math.nextafter(d, math.inf) if p.real > 0.0 else d

        monkeypatch.setattr(Manifold, "distance_z", nudged)
        assert [name for name in MAPS if not maps_exactly(SUM, name)] == ["neg", "rot"]
