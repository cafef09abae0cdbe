"""Command-line interface.

Reads a line-oriented system-definition file, runs the requested checks
or propagations against it, and emits a flat JSON report plus optional
CSV grids.  Reports are byte-reproducible for identical inputs and seed:
they contain no timestamps, keys are sorted, and every sampled quantity
is driven by the resolved seed (--seed flag, else EDSBT_SEED, else
[spec] seed, else 0).

Definition file format: `[block]` headers, `key = value` entries, `#`
starts a comment, lists are comma-separated.  The blocks are [chart]
(coords plus one interval entry per coordinate, nothing else), [params]
(fixed value or [lo, hi] range), exactly one of [bt] / [ma] / [section] /
[tzitzeica], and optional [candidates] and [spec] (samples, tol, seed,
guard) blocks.

Exit status: 0 when every emitted record passes, 1 when any record
fails or a computation breaks down, 2 on usage or definition errors.
`classify` emits verdicts rather than pass/fail checks, so it exits 0
whenever the classification itself succeeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__
from . import expr as ex
from . import forms as fm

if TYPE_CHECKING:  # a command imports these where it runs, so start-up skips the rest
    from . import backlund as bk
    from . import monge_ampere as ma
    from . import propagate as pp


class DefinitionError(ValueError):
    """Malformed definition file or flags (reported as usage, exit 2)."""


PRIMARY_BLOCKS = ("bt", "ma", "section", "tzitzeica")
KNOWN_BLOCKS = ("chart", "params") + PRIMARY_BLOCKS + ("candidates", "spec")
SECTION_KEYS = ("theta", "theta_bar", "w1", "w2", "w3", "w4")
# [spec] key -> (SampleSpec field, type); the defaults live in SampleSpec
SPEC_KEYS = {
    "samples": ("count", int),
    "tol": ("tolerance", float),
    "seed": ("seed", int),
    "guard": ("guard", float),
}


class SystemDefinition:
    """A parsed definition file.  `body` and `candidates` keep the file's
    keys; each value is parsed: an Expr, a list of chart.dim Exprs for a
    comma-separated entry, or a float for a [tzitzeica] number."""

    __slots__ = ("chart", "kind", "body", "candidates", "spec_overrides")

    def __init__(self, chart: fm.Chart, kind: str, body: dict, candidates: dict,
                 spec_overrides: dict):
        self.chart, self.kind, self.body = chart, kind, body
        self.candidates, self.spec_overrides = candidates, spec_overrides


# ---------------------------------------------------------------------------
# definition file parsing


def _raw_blocks(text: str, path: str) -> dict:
    blocks: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in KNOWN_BLOCKS:
                raise DefinitionError(f"{path}:{lineno}: unknown block [{name}]")
            if name in blocks:
                raise DefinitionError(f"{path}:{lineno}: duplicate block [{name}]")
            current = blocks[name] = {}
            continue
        if current is None:
            raise DefinitionError(f"{path}:{lineno}: entry before any block header")
        if "=" not in line:
            raise DefinitionError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or key in current:
            raise DefinitionError(f"{path}:{lineno}: bad or repeated key {key!r}")
        current[key] = value.strip()
    return blocks


def _split_list(value: str) -> list:
    return [part.strip() for part in value.split(",")]


def _parse_float(value: str, where: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise DefinitionError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise DefinitionError(f"{where}: expected a finite number, got {value!r}")
    return number


def _parse_pair(value: str, where: str, not_a_pair: str) -> tuple:
    """`lo, hi` as two floats; `not_a_pair` is the error for another count."""
    parts = _split_list(value)
    if len(parts) != 2:
        raise DefinitionError(not_a_pair)
    return tuple(_parse_float(part, where) for part in parts)


def _parse_chart(blocks: dict, path: str) -> fm.Chart:
    chart_block = blocks.get("chart")
    if not chart_block:
        raise DefinitionError(f"{path}: missing [chart] block")
    if "coords" not in chart_block:
        raise DefinitionError(f"{path}: [chart] needs a coords entry")
    coords = tuple(_split_list(chart_block["coords"]))
    extra = [key for key in chart_block if key != "coords" and key not in coords]
    if extra:
        raise DefinitionError(f"{path}: [chart] unknown entries {extra}")
    box = {}
    for name in coords:
        if name not in chart_block:
            raise DefinitionError(f"{path}: [chart] missing interval for {name}")
        box[name] = _parse_pair(
            chart_block[name], f"[chart] {name}", f"{path}: interval for {name} needs lo, hi"
        )
    params = {}
    for name, value in blocks.get("params", {}).items():
        if value.startswith("[") and value.endswith("]"):
            params[name] = _parse_pair(
                value[1:-1], f"[params] {name}", f"{path}: [params] {name} range needs lo, hi"
            )
        else:
            params[name] = _parse_float(value, f"[params] {name}")
    try:
        return fm.Chart(coords, box, params)
    except ValueError as err:
        raise DefinitionError(f"{path}: {err}") from None


def parse_definition(path: str) -> SystemDefinition:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise DefinitionError(f"cannot read {path}: {err}") from None
    blocks = _raw_blocks(text, path)
    primary = [name for name in PRIMARY_BLOCKS if name in blocks]
    if len(primary) != 1:
        raise DefinitionError(
            f"{path}: exactly one of {PRIMARY_BLOCKS} required, "
            f"found {primary or 'none'}"
        )
    kind = primary[0]
    chart = _parse_chart(blocks, path)
    # each kind's coordinates live in its own module: import only that one
    if kind == "ma":
        from .monge_ampere import MA_COORDS as expected
    elif kind == "tzitzeica":
        expected = ("x", "y")
    else:
        from .backlund import B_COORDS as expected
    if chart.coords != tuple(expected):
        raise DefinitionError(
            f"{path}: a [{kind}] definition needs coords = {', '.join(expected)}"
        )

    body = dict(blocks[kind])
    required = {
        "bt": ("F", "G"),
        "ma": ("A", "B", "C", "D", "E"),
        "section": SECTION_KEYS,
        "tzitzeica": ("h", "lambda", "alpha0", "beta0"),
    }[kind]
    missing = [key for key in required if key not in body]
    if missing:
        raise DefinitionError(f"{path}: [{kind}] missing entries {missing}")
    extra = [key for key in body if key not in required]
    if extra:
        raise DefinitionError(f"{path}: [{kind}] unknown entries {extra}")
    candidates = dict(blocks.get("candidates", {}))
    _parse_expressions(chart, kind, body, candidates, path)

    spec_overrides = {}
    for key, value in blocks.get("spec", {}).items():
        if key not in SPEC_KEYS:
            raise DefinitionError(f"{path}: [spec] unknown key {key!r}")
        cast = SPEC_KEYS[key][1]
        try:
            spec_overrides[key] = cast(value)
        except ValueError:
            raise DefinitionError(f"{path}: [spec] {key} is not a {cast.__name__}") from None
    _sample_spec(chart, spec_overrides, path)
    return SystemDefinition(
        chart=chart,
        kind=kind,
        body=body,
        candidates=candidates,
        spec_overrides=spec_overrides,
    )


def _sample_spec(chart: fm.Chart, overrides: dict, where: str) -> ex.SampleSpec:
    """The sampling policy of a run: SampleSpec's defaults, with the
    SPEC_KEYS entries of `overrides` set; a count, tolerance, guard or
    chart interval that it rejects is a usage error."""
    try:
        return chart.sample_spec(**{SPEC_KEYS[k][0]: v for k, v in overrides.items()})
    except ValueError as err:
        raise DefinitionError(f"{where}: {err}") from None


def _parse_expressions(chart, kind, body, candidates, path):
    """Parse every entry of `body` and `candidates` in place, up front: a
    file that does not parse is a usage error no matter which subcommand
    touches it."""

    def parse(text, where):
        try:
            return chart.parse(text)
        except ex.ExprError as err:  # a syntax error, or a constant that cannot fold
            raise DefinitionError(f"{path}: {where}: {err}") from None

    def parse_list(value, where):
        parts = _split_list(value)
        if len(parts) != chart.dim:
            raise DefinitionError(
                f"{path}: {where}: expected {chart.dim} comma-separated expressions"
            )
        return [parse(part, where) for part in parts]

    if kind in ("bt", "ma"):
        for key, value in body.items():
            body[key] = parse(value, f"[{kind}] {key}")
    elif kind == "section":
        for key in SECTION_KEYS:
            body[key] = parse_list(body[key], f"[section] {key}")
    else:
        body["h"] = parse(body["h"], "[tzitzeica] h")
        for key in ("lambda", "alpha0", "beta0"):
            body[key] = _parse_float(body[key], f"[tzitzeica] {key}")
    for key, value in candidates.items():
        if key not in ("eta1", "eta3", "X", "Y"):
            raise DefinitionError(f"{path}: [candidates] unknown key {key!r}")
        candidates[key] = parse_list(value, f"[candidates] {key}")


def _coefficient_form(chart: fm.Chart, coeffs: list):
    return fm.one_form(chart, dict(zip(chart.coords, coeffs)))


# ---------------------------------------------------------------------------
# report assembly


def _digest(path: str) -> str:
    # CPython's builtin sha256 where there is one: hashlib loads OpenSSL,
    # about 3.6 MB of every process (random.py takes sha512 the same way)
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    with open(path, "rb") as fh:
        return "sha256:" + sha256(fh.read()).hexdigest()


class _Runner:
    """Definition, resolved sampling policy, and report state for one run."""

    def __init__(self, args):
        self.args = args
        self.defn = parse_definition(args.file)
        overrides = dict(self.defn.spec_overrides)
        # seed precedence: --seed flag, then EDSBT_SEED, then the def file
        env_seed = os.environ.get("EDSBT_SEED")
        if args.seed is None and env_seed is not None:
            try:
                overrides["seed"] = int(env_seed)
            except ValueError:
                raise DefinitionError(f"EDSBT_SEED is not an integer: {env_seed!r}") from None
        for key in ("samples", "tol", "seed"):  # flags named as their SPEC_KEYS
            if getattr(args, key) is not None:
                overrides[key] = getattr(args, key)
        self.spec = _sample_spec(self.defn.chart, overrides, "bad --samples/--tol")
        self.records: list = []
        self.extras: dict = {}
        self.notes: list = []

    def require_kind(self, *kinds):
        if self.defn.kind not in kinds:
            wanted = " or ".join(f"[{k}]" for k in kinds)
            raise DefinitionError(
                f"{self.args.file}: this command needs a {wanted} definition, "
                f"found [{self.defn.kind}]"
            )

    def build_bt(self) -> bk.WavelikeBT:
        from . import backlund as bk
        return bk.build_wavelike(
            self.defn.body["F"], self.defn.body["G"], self.defn.chart, self.spec
        )

    def build_ma(self) -> ma.MongeAmpereSystem:
        from . import monge_ampere as ma
        return ma.from_coefficients(
            *(self.defn.body[key] for key in ("A", "B", "C", "D", "E")),
            chart=self.defn.chart,
            spec=self.spec,
        )

    def build_section(self) -> bk.CoframeSection:
        from . import backlund as bk
        chart = self.defn.chart
        forms = [_coefficient_form(chart, self.defn.body[key]) for key in SECTION_KEYS]
        return bk.CoframeSection(chart, *forms)

    def candidate_form(self, key: str, default_coord: str):
        if key in self.defn.candidates:
            return _coefficient_form(self.defn.chart, self.defn.candidates[key])
        return fm.d_coord(self.defn.chart, default_coord)

    def candidate_field(self, key: str, default_coord: str):
        if key in self.defn.candidates:
            return fm.VectorField(self.defn.chart, tuple(self.defn.candidates[key]))
        return fm.VectorField.coordinate(self.defn.chart, default_coord)

    def record(self, name: str, status: str, samples: int = 0,
               max_violation: float = 0.0, witness: str = "") -> None:
        self.records.append({"name": name, "status": status, "samples": samples,
                             "max_violation": max_violation, "witness": witness})

    def record_check(self, name: str, result: ex.CheckResult) -> None:
        self.record(name, "pass" if result.ok else "fail", result.samples,
                    float(result.max_violation), result.witness.flat() if result.witness else "")

    def record_normal(self, torsion: bk.TorsionInvariants) -> None:
        from . import backlund as bk
        self.record("normal", "pass" if bk.check_normal(torsion) else "fail", len(torsion.points))

    def record_section(self, section: bk.CoframeSection) -> Optional[bk.SectionReport]:
        """Validate and record; returns the report when the section holds
        up, else None."""
        from . import backlund as bk
        try:
            report = bk.validate_section(section, self.spec)
        except bk.SectionValidationError as err:
            report = err.report
        worst = max(report.structural_violation, report.normalization_violation)
        self.record_check(
            "section_valid", ex.CheckResult(report.ok, worst, report.witness, report.samples)
        )
        return report if report.ok else None

    def report(self, command: str) -> dict:
        out = {
            "version": __version__,
            "command": command,
            "input": self.args.file,
            "input_digest": _digest(self.args.file),
            "kind": self.defn.kind,
            "samples": self.spec.count,
            "tol": self.spec.tolerance,
            "seed": self.spec.seed,
            "records": self.records,
            "notes": "; ".join(self.notes),
        }
        out.update(self.extras)
        return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(runner: _Runner) -> None:
    kind = runner.defn.kind
    if kind == "bt":
        from . import backlund as bk
        bt = runner.build_bt()
        validated = runner.record_section(bt.section)
        theta, theta_bar, *omegas = bt.generators()
        checks = bk.integrable_extension_checks(theta, theta_bar, omegas, omegas, runner.spec)
        for name, result in checks.items():
            runner.record_check(f"integrable_extension_{name}", result)
        if validated is not None:
            runner.record_normal(validated.torsion)
            for label, margin in bk.normal_margins(validated.torsion).items():
                runner.extras[f"margin_{label}"] = margin
        else:
            runner.record("normal", "error", witness="section invalid, torsion skipped")
        for name, result in bk.closure_checks(bt, runner.spec).items():
            runner.record_check(f"{name}_condition", result)
    elif kind == "ma":
        from . import monge_ampere as ma
        system = runner.build_ma()
        runner.record_check("monge_ampere_valid", ma.validate(system, runner.spec))
    elif kind == "section":
        runner.record_section(runner.build_section())
    else:  # tzitzeica seed: does h satisfy (ln h)_xy = h - h^-2
        h = runner.defn.body["h"]
        residual = ex.sub(
            ex.differentiate(ex.differentiate(ex.ln(h), "x"), "y"),
            ex.sub(h, ex.pow_int(h, -2)),
        )
        solves = ex.equiv_random(residual, ex.ZERO, runner.spec)
        runner.record_check("seed_solves_equation", solves)


def cmd_classify(runner: _Runner) -> None:
    runner.require_kind("bt")
    from . import backlund as bk
    bt = runner.build_bt()
    eta1 = runner.candidate_form("eta1", "x")
    eta3 = runner.candidate_form("eta3", "y")
    X = runner.candidate_field("X", "x")
    Y = runner.candidate_field("Y", "y")
    try:
        wavelike = bk.check_wavelike(bt.section, eta1, eta3, runner.spec)
    except bk.SubbundleError as err:
        wavelike = False
        runner.notes.append(str(err))
    runner.extras["wavelike"] = wavelike
    runner.extras["quasilinear"] = bk.check_quasilinear(bt, runner.spec)
    det = bk.transversality_det(bt, X, Y, runner.spec)
    runner.extras["autonomous"] = bk.check_autonomous(bt, X, Y, runner.spec, det)
    runner.extras["transversality_det_min"] = det
    runner.record("classification", "pass", samples=runner.spec.count)


def _at_point(runner: _Runner) -> Optional[list]:
    if runner.args.at is None:
        return None
    chart = runner.defn.chart
    bindings = {}
    for item in runner.args.at.split(","):
        if "=" not in item:
            raise DefinitionError(f"--at needs k=v pairs, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in bindings:
            raise DefinitionError(f"--at repeats {key}")
        bindings[key] = _parse_float(value, f"--at {key}")
    coords = {}
    for name in chart.coords:
        if name not in bindings:
            raise DefinitionError(f"--at is missing coordinate {name}")
        coords[name] = bindings.pop(name)
    params = {}
    for name, value in chart.params.items():
        if name in bindings:
            params[name] = bindings.pop(name)
        elif isinstance(value, tuple):
            raise DefinitionError(f"--at must fix ranged parameter {name}")
        else:
            params[name] = float(value)
    if bindings:
        raise DefinitionError(f"--at has unknown names {sorted(bindings)}")
    return [ex.Point(coords, params)]


def cmd_torsion(runner: _Runner) -> None:
    runner.require_kind("bt", "section")
    from . import backlund as bk
    if runner.defn.kind == "bt":
        section = runner.build_bt().section
    else:
        section = runner.build_section()
    points = _at_point(runner)
    torsion = bk.extract_torsion(section, points=points, spec=runner.spec)
    for name in bk.TORSION_NAMES:
        values = torsion.values[name]
        if points is not None:
            runner.extras[name] = float(values[0])
        else:
            runner.extras[f"{name}_min"] = float(np.min(values))
            runner.extras[f"{name}_max"] = float(np.max(values))
    runner.extras["points"] = len(torsion.points)
    runner.record_normal(torsion)


def cmd_hyperbolic(runner: _Runner) -> None:
    runner.require_kind("ma")
    from . import monge_ampere as ma
    system = runner.build_ma()
    report = ma.hyperbolicity(system, runner.spec)
    runner.extras["verdict"] = report.verdict
    for label in ("hyperbolic", "parabolic", "non-hyperbolic"):
        count = sum(1 for s in report.samples if s.label == label)
        runner.extras[f"n_{label.replace('-', '_')}"] = count
    if report.hyperbolic:
        roots = sorted(float(r) for r in report.samples[0].roots)
        runner.extras["roots_at_first_sample"] = ",".join(repr(r) for r in roots)
    runner.record("hyperbolic", "pass" if report.hyperbolic else "fail", len(report.samples))


def _grid_from_args(args) -> pp.Grid:
    from . import propagate as pp
    try:
        nx, ny = (int(part) for part in args.grid.split(","))
        x0, x1, y0, y1 = (float(part) for part in args.domain.split(","))
        grid = pp.Grid(nx, ny, x0, x1, y0, y1)
        pp._require_interior(grid)
    except (ValueError, pp.PropagationError) as err:
        raise DefinitionError(f"bad --grid/--domain: {err}") from None
    return grid


def _xy_expr(text: str, chart: fm.Chart, flag: str) -> ex.Expr:
    """A flag's expression in x, y and the chart's params; one that does
    not parse, or holds a constant that cannot fold, is a usage error."""
    try:
        return ex.parse(text, ("x", "y"), chart.params.keys())
    except ex.ExprError as err:
        raise DefinitionError(f"bad {flag}: {err}") from None


def cmd_propagate(runner: _Runner) -> None:
    runner.require_kind("bt")
    from . import propagate as pp
    args, chart = runner.args, runner.defn.chart
    if not math.isfinite(args.v0):
        raise DefinitionError(f"--v0: expected a finite number, got {args.v0!r}")
    seed_u = _xy_expr(args.seed_u, chart, "--seed-u")
    reference = None if args.reference is None else _xy_expr(args.reference, chart, "--reference")
    bt = runner.build_bt()
    grid = _grid_from_args(args)
    with pp.FieldRows(grid, args.out) as rows:  # writes v's rows as they are computed
        try:
            result = pp.bt_propagate(bt, seed_u, args.v0, grid, rows=rows, reference=reference)
            if reference is not None:
                runner.extras["sup_error"] = result.sup_error
        except pp.PropagationError as err:
            runner.record("propagation", "error", witness=str(err))
            return
        rows.commit()
    runner.extras["out"] = runner.args.out
    runner.extras["compatibility_residual"] = result.compatibility_residual
    runner.record("propagation", "pass", samples=grid.nx * grid.ny)


def cmd_tzitzeica(runner: _Runner) -> None:
    runner.require_kind("tzitzeica")
    from . import propagate as pp
    grid = _grid_from_args(runner.args)
    body = runner.defn.body
    with pp.FieldRows(grid, runner.args.out_hprime) as rows:  # h' is written as it is marched
        try:
            result = pp.tzitzeica_propagate(
                body["h"], body["lambda"], body["alpha0"], body["beta0"], grid, rows=rows,
                params=pp._fixed_params(runner.defn.chart),
            )
        except pp.PropagationError as err:
            runner.record("propagation", "error", witness=str(err))
            return
        rows.commit()
    runner.extras["out_hprime"] = runner.args.out_hprime
    runner.extras["alpha_compatibility"] = result.alpha_compatibility
    runner.extras["beta_compatibility"] = result.beta_compatibility
    runner.extras["singular_nodes"] = result.singular_count
    try:
        residual = result.h_prime_residual.report()
        runner.extras["h_prime_max_residual"] = residual.max_residual
        runner.extras["h_prime_mean_residual"] = residual.mean_residual
    except pp.SingularFieldError:
        runner.notes.append("h' residual skipped: no usable interior nodes")
    runner.record("propagation", "pass", samples=grid.nx * grid.ny)


COMMANDS = {
    "check": cmd_check,
    "classify": cmd_classify,
    "torsion": cmd_torsion,
    "hyperbolic": cmd_hyperbolic,
    "propagate": cmd_propagate,
    "tzitzeica": cmd_tzitzeica,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edsbt",
        description="checks, classification, and solution generation for "
        "hyperbolic exterior differential systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system definition file")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", default=None, help="also write the report here")
        return p

    common(sub.add_parser("check", help="verify the defining conditions"))
    common(sub.add_parser("classify", help="wavelike/quasilinear/autonomous verdicts"))
    p = common(sub.add_parser("torsion", help="extract the torsion functions"))
    p.add_argument("--at", default=None, help="k=v,... point instead of sampling")
    common(sub.add_parser("hyperbolic", help="classify the pencil"))
    p = common(sub.add_parser("propagate", help="generate a companion solution grid"))
    p.add_argument("--seed-u", required=True, dest="seed_u")
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--grid", required=True, help="NX,NY")
    p.add_argument("--domain", required=True, help="X0,X1,Y0,Y1")
    p.add_argument("--out", required=True)
    p.add_argument("--reference", default=None)
    p = common(sub.add_parser("tzitzeica", help="run the auxiliary hyperbolic system"))
    p.add_argument("--grid", required=True, help="NX,NY")
    p.add_argument("--domain", required=True, help="X0,X1,Y0,Y1")
    p.add_argument("--out-hprime", required=True, dest="out_hprime")
    return parser


def _emit(report: dict, json_path: Optional[str]) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if json_path:  # first, so that a failed write prints no report
        tmp = json_path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(payload)
            os.replace(tmp, json_path)
        finally:
            if os.path.lexists(tmp):
                os.remove(tmp)
    sys.stdout.write(payload)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite value already reaches a verdict as inf or an error
        with np.errstate(all="ignore"):
            runner = _Runner(args)
            COMMANDS[args.command](runner)
        report = runner.report(args.command)
        _emit(report, args.json)
    except DefinitionError as err:
        print(f"edsbt: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, OSError) as err:
        print(f"edsbt: {err}", file=sys.stderr)
        return 1
    failed = any(rec["status"] != "pass" for rec in report["records"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
