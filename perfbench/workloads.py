"""The benchmark's workloads: definition files, operation sequences and the
oracle each operation's output is checked against.

Everything the program receives comes from the workload's random stream,
which the benchmark seeds from `--seed`: the drawn `lam` in the definition
files, each operation's `--seed`, and lambda2 of the two-soliton run.

An oracle takes (exit code, parsed stdout report or None, Op) and returns
a list of problems; an empty list means the output is correct.  Oracles
run outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# sine-Gordon fixtures of tests/test_cli.py, with lam left to the workload
CHART_6 = """\
[chart]
coords = x, y, u, v, p, q
x = -1.5, 1.5
y = -1.5, 1.5
u = -1.5, 1.5
v = -1.5, 1.5
p = -1.5, 1.5
q = -1.5, 1.5

[params]
lam = {lam!r}
"""

SG_BT = CHART_6 + """
[bt]
F = p + 2*lam*sin((u + v)/2)
G = -q + (2/lam)*sin((u - v)/2)
"""

# the adapted coframe in closed form, coefficients in d(x, y, u, v, p, q) order
SG_SECTION = CHART_6 + """
[section]
theta = -(p + 2*lam*sin((u + v)/2)), -q, 1, 0, 0, 0
theta_bar = -p, q - (2/lam)*sin((u - v)/2), 0, 1, 0, 0
w1 = 1, 0, 0, 0, 0, 0
w2 = -lam*cos((u + v)/2)*p, -sin(v) - lam*cos((u + v)/2)*(-q + (2/lam)*sin((u - v)/2)), 0, lam*cos((u + v)/2), 1, 0
w3 = 0, 1, 0, 0, 0, 0
w4 = -sin(u) + (1/lam)*cos((u - v)/2)*(p + 2*lam*sin((u + v)/2)), (1/lam)*cos((u - v)/2)*q, -(1/lam)*cos((u - v)/2), 0, 0, 1
"""

CHART_5 = """\
[chart]
coords = x, y, u, p, q
x = -1.5, 1.5
y = -1.5, 1.5
u = -1.5, 1.5
p = -1.5, 1.5
q = -1.5, 1.5
"""

SG_MA = CHART_5 + """
[ma]
A = 0
B = 1
C = 0
D = 0
E = -sin(u)
"""

LAPLACE_MA = CHART_5 + """
[ma]
A = 1
B = 0
C = 1
D = 0
E = 0
"""

TZITZEICA = """\
[chart]
coords = x, y
x = 0, 0.5
y = 0, 0.5

[tzitzeica]
h = 1
lambda = 1
alpha0 = 1
beta0 = 1
"""

AT_REFERENCE = "x=0,y=0,u=1.5707963267948966,v=0,p=0.3,q=0.7"

KINK_SEED = "4*atan(exp(-(x + y)))"
SECOND_KINK = "4*atan(exp(-(lam*x + y/lam)))"
TWO_SOLITON = (
    f"4*atan(-((lam+1)/(lam-1))*tan(({KINK_SEED} - {SECOND_KINK})/4))"
)

SOLITON_GRID = 1601
KINK_GRID = 201
TZ_GRID = 201
SOLITON_SUP_BOUND = 1e-9  # observed 6.5e-14 at 1601^2, 2.3e-10 at 201^2
KINK_SUP_BOUND = 1e-6
# the cross-derivative residual is a finite-difference diagnostic: small,
# and exactly 0 only for the kink with lam = 1, where v depends on x + y
COMPAT_BOUND = 1e-3
TOL = 1e-9


def two_soliton(lam, x, y):
    """Bianchi permutability of the kinks with lambda1 = 1 and lambda2 = lam."""
    u1 = 4 * np.arctan(np.exp(-(x + y)))
    u2 = 4 * np.arctan(np.exp(-(lam * x + y / lam)))
    return 4 * np.arctan(-((lam + 1) / (lam - 1)) * np.tan((u1 - u2) / 4))


def kink(lam, x, y):
    return 4 * np.arctan(np.exp(-lam * x - y / lam))


@dataclass
class Op:
    label: str  # the command, qualified when a pass runs it on two kinds of file
    argv: list
    oracle: Callable
    out: str = ""  # CSV the op writes, removed after its check
    nodes: int = 0  # grid nodes a propagate op generates, for nodes_per_s


@dataclass
class Plan:
    """One workload instantiated from a seed: its files and op factory."""

    lam: float  # lambda2 in the two-soliton run
    ops: Callable  # () -> list of Op for one pass


# ---------------------------------------------------------------------------
# oracles


def _statuses(report, want="pass"):
    if report is None:
        return ["no report on stdout"]
    bad = [r["name"] for r in report.get("records", []) if r["status"] != want]
    return [f"records not {want}: {bad}"] if bad or not report.get("records") else []


def expect(code=0, checks=()):
    """Oracle: exit code `code`, every record passing (or failing, for
    exit 1), then each `check(report) -> problems`."""

    def oracle(exit_code, report, op):
        problems = []
        if exit_code != code:
            problems.append(f"exit {exit_code}, expected {code}")
        problems += _statuses(report, "pass" if code == 0 else "fail")
        if not problems:
            for check in checks:
                problems += check(report, op)
        return problems

    return oracle


def near(key, value, tol=TOL):
    def check(report, op):
        got = report.get(key)
        if not isinstance(got, (int, float)) or not abs(got - value) <= tol:
            return [f"{key} = {got!r}, expected {value!r} within {tol}"]
        return []

    return check


def equals(key, value):
    def check(report, op):
        got = report.get(key)
        return [] if got == value else [f"{key} = {got!r}, expected {value!r}"]

    return check


def below(key, bound, positive=False):
    def check(report, op):
        got = report.get(key)
        ok = isinstance(got, float) and math.isfinite(got) and got <= bound
        if ok and positive:
            ok = got > 0.0
        if not ok:
            lo = "0 < " if positive else ""
            return [f"{key} = {got!r}, expected {lo}{key} <= {bound}"]
        return []

    return check


def all_samples(key):
    def check(report, op):
        if report.get(key) != report.get("samples"):
            return [f"{key} = {report.get(key)!r}, expected {report.get('samples')}"]
        return []

    return check


class FieldCheck:
    """Read a written CSV back through read_field_csv and compare it with
    a closed form on the grid.  A later op of the same pass that writes
    the same bytes is accepted by digest."""

    def __init__(self, grid, closed_form, bound, corner):
        self.grid = grid
        self.closed_form = closed_form
        self.bound = bound
        self.corner = corner
        self.verified_digest = None

    def __call__(self, report, op):
        from edsbt import propagate as pp

        with open(op.out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest == self.verified_digest:
            return []
        field = pp.read_field_csv(op.out)
        if field.grid != self.grid:
            return [f"read-back grid {field.grid}, expected {self.grid}"]
        X, Y = self.grid.mesh()
        err = float(np.max(np.abs(field.values - self.closed_form(X, Y))))
        if not err <= self.bound:
            return [f"read-back field off its closed form by {err:.3e}"]
        if field.values[0, 0] != self.corner:
            return [f"read-back corner {field.values[0, 0]!r}, expected {self.corner!r}"]
        self.verified_digest = digest
        return []


# ---------------------------------------------------------------------------
# workloads


def _seeds(rng):
    """Per-op `--seed` values, drawn as uniform 31-bit integers."""
    return lambda: str(rng.randrange(2**31))


def _write(work, name, text):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def torsion_at_reference(lam):
    """Closed-form torsion of the sine-Gordon [bt] file at AT_REFERENCE."""
    r2 = math.sqrt(2.0)
    return {
        "A1": 1.0, "A2": -1.0,
        "B1": 0.0, "B2": -lam * r2 / 4, "B3": 0.0, "B4": r2 / (4 * lam),
        "C1": 0.0, "C2": -lam * r2 / 2, "C3": 0.0, "C4": -r2 / (2 * lam),
    }


def bt_verify(rng, work) -> Plan:
    lam = rng.uniform(0.5, 2.0)
    seed = _seeds(rng)
    bt = _write(work, "sg_bt.def", SG_BT.format(lam=lam))
    section = _write(work, "sg_section.def", SG_SECTION.format(lam=lam))
    sampled_torsion = [near("A1_min", 1.0), near("A1_max", 1.0),
                       near("A2_min", -1.0), near("A2_max", -1.0)]
    for name in ("B1", "B3", "C1", "C3"):
        sampled_torsion += [near(f"{name}_min", 0.0), near(f"{name}_max", 0.0)]
    check_bt = expect(0, [near("margin_A1", 1.0), near("margin_A2", 1.0),
                          near("margin_A1A2_minus_1", 2.0)])
    torsion = expect(0, sampled_torsion + [equals("points", 64)])
    classify = expect(0, [equals(k, True) for k in ("wavelike", "quasilinear", "autonomous")]
                      + [near("transversality_det_min", 1.0)])
    check_section = expect(0, [equals("kind", "section")])

    def ops():
        return [
            Op("check", ["check", bt, "--seed", seed()], check_bt),
            Op("torsion", ["torsion", bt, "--seed", seed()], torsion),
            Op("classify", ["classify", bt, "--seed", seed()], classify),
            Op("check_section", ["check", section, "--seed", seed()], check_section),
        ]

    return Plan(lam, ops)


def propagate_2soliton(rng, work) -> Plan:
    from edsbt.propagate import Grid

    lam = rng.uniform(1.5, 3.0)
    seed = _seeds(rng)
    bt = _write(work, "sg_bt.def", SG_BT.format(lam=lam))
    out = os.path.join(work, "two_soliton.csv")
    v0 = float(two_soliton(lam, 0.0, 0.0))
    n = SOLITON_GRID
    grid = Grid(n, n, 0.0, 1.0, 0.0, 1.0)
    field = FieldCheck(grid, lambda X, Y: two_soliton(lam, X, Y), SOLITON_SUP_BOUND, v0)
    oracle = expect(0, [below("sup_error", SOLITON_SUP_BOUND),
                        below("compatibility_residual", COMPAT_BOUND, positive=True),
                        equals("out", out), field])

    def ops():
        argv = ["propagate", bt, "--seed-u", KINK_SEED, "--v0", repr(v0),
                "--grid", f"{n},{n}", "--domain", "0,1,0,1", "--out", out,
                "--reference", TWO_SOLITON, "--seed", seed()]
        return [Op("propagate", argv, oracle, out=out, nodes=n * n)]

    return Plan(lam, ops)


def small_commands(rng, work) -> Plan:
    from edsbt.propagate import Grid

    lam = rng.uniform(0.5, 2.0)
    seed = _seeds(rng)
    bt = _write(work, "sg_bt.def", SG_BT.format(lam=lam))
    sg_ma = _write(work, "sg_ma.def", SG_MA)
    laplace = _write(work, "laplace_ma.def", LAPLACE_MA)
    tz = _write(work, "tzitzeica.def", TZITZEICA)
    kink_out = os.path.join(work, "kink.csv")
    tz_out = os.path.join(work, "hprime.csv")
    n, m = KINK_GRID, TZ_GRID
    kink_grid = Grid(n, n, 0.0, 2.0, 0.0, 2.0)
    tz_grid = Grid(m, m, 0.0, 0.5, 0.0, 0.5)
    at_values = [near(k, v, 1e-12) for k, v in torsion_at_reference(lam).items()]

    hyperbolic = expect(0, [equals("verdict", "hyperbolic"), all_samples("n_hyperbolic"),
                            equals("roots_at_first_sample", "-0.5,0.5")])
    non_hyperbolic = expect(1, [equals("verdict", "non-hyperbolic"),
                                all_samples("n_non_hyperbolic")])
    ma_check = expect(0, [equals("kind", "ma")])
    tz_check = expect(0, [equals("kind", "tzitzeica")])
    torsion_at = expect(0, at_values + [equals("points", 1)])
    kink_oracle = expect(0, [below("sup_error", KINK_SUP_BOUND),
                             below("compatibility_residual", COMPAT_BOUND),
                             FieldCheck(kink_grid, lambda X, Y: kink(lam, X, Y),
                                        KINK_SUP_BOUND, math.pi)])
    tz_oracle = expect(0, [equals("h_prime_max_residual", 0.0),
                           equals("alpha_compatibility", 0.0),
                           equals("beta_compatibility", 0.0),
                           equals("singular_nodes", 0),
                           FieldCheck(tz_grid, lambda X, Y: np.ones_like(X), 0.0, 1.0)])

    def ops():
        return [
            Op("hyperbolic", ["hyperbolic", sg_ma, "--seed", seed()], hyperbolic),
            Op("check_ma", ["check", sg_ma, "--seed", seed()], ma_check),
            Op("hyperbolic_laplace", ["hyperbolic", laplace, "--seed", seed()], non_hyperbolic),
            Op("check_tzitzeica", ["check", tz, "--seed", seed()], tz_check),
            Op("torsion_at", ["torsion", bt, "--at", AT_REFERENCE, "--seed", seed()],
               torsion_at),
            Op("propagate", ["propagate", bt, "--seed-u", "0", "--v0", repr(math.pi),
                             "--grid", f"{n},{n}", "--domain", "0,2,0,2",
                             "--out", kink_out,
                             "--reference", "4*atan(exp(-lam*x - y/lam))",
                             "--seed", seed()],
               kink_oracle, out=kink_out, nodes=n * n),
            Op("tzitzeica", ["tzitzeica", tz, "--grid", f"{m},{m}",
                             "--domain", "0,0.5,0,0.5", "--out-hprime", tz_out,
                             "--seed", seed()],
               tz_oracle, out=tz_out),
        ]

    return Plan(lam, ops)


WORKLOADS = {
    "bt-verify": bt_verify,
    "propagate-2soliton": propagate_2soliton,
    "small-commands": small_commands,
}
