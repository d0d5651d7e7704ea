"""Command-line surface: classification tables, orbit runs, certificate
verification, geometry and density reports, and the witness-map check.

Exit codes (public contract):
    0  success
    2  usage / invalid arguments, a value whose run would leave the float
       range (a huge k, the launch rounding onto the saddle from k = 10^10
       on, or a tiny -c), or a --radii or --target-phi value a
       real-eigenvalue run ends short of
    3  inadmissible triple without --allow-inadmissible
    4  integration failure: |phi| left 1e3 phi0, a rejected step fell
       below 1e-13/(k-1), or r^2 + rho^2 stopped rising along the profile
    5  certificate failure (verify: barrier; density: a crossing's density,
       or a --radii density, not strictly below the cone density)
    6  wrong stability type for the requested report, or too few crossings
main maps the errors classes to 3, 4 and 6, any other ValueError to 2.

Configuration: a flat key = value text file (one pair per line, '#'
comments allowed), pointed to by --config or the LO_DYNAMICS_CONFIG
environment variable; flags win over the file.  Keys match the RunConfig
field names.  Each subcommand parses only the fields it reads (make_parser
lists them) and skips the file's other fields; an unknown key or flag
exits 2, and classify reads no file.  The library function that takes a
setting checks it (shoot_unstable_manifold, hopf.condition_b_check), so a
bad one exits 2 before a file is written; RunConfig.validate checks only
formats.  Sampling resolutions, the end of a real-eigenvalue run among
them, are the modules' constants, not settings.  verify -c acts on the
real-eigenvalue type only, --max-crossings on the spiral type only: on
the other type the flag exits 2 and the config key is ignored.

stdout and CSV carry numbers at 17 significant digits, JSON in Python's
shortest round-trip text (an integral float keeps its .0); CSV columns are
fixed (trajectory.csv: t,phi,psi; profile.csv: r,rho,rho_r,rho_rr,residual)
and always carry headers.  SVG plots are static polyline renderings with
a viewBox computed from the data extents plus a 5% margin.

Only params and errors load with this module: each command binds the
layers it runs, and integrate's functions it calls, here on first use
(_bind), so classify, geometry and verify never load numpy.  The PEP 562
hook __getattr__ exists only for perfbench/cli_shim.py's traced run, which
wraps those names on cli before main runs: it goes with the other names
kept only for the benchmark (ROADMAP item 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import InadmissibleTriple, IntegrationFailure, NotApplicable
from .params import LomseParams, StabilityType, build_params, enumerate_admissible

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_BLOWUP = 4
EXIT_BARRIER_FAILURE = 5
EXIT_WRONG_TYPE = 6
# the exit code by exception class; any other ValueError is a usage error
_EXIT_CODES = {InadmissibleTriple: EXIT_INADMISSIBLE, IntegrationFailure: EXIT_BLOWUP,
               NotApplicable: EXIT_WRONG_TYPE, ValueError: EXIT_USAGE}

CONFIG_ENV_VAR = "LO_DYNAMICS_CONFIG"
_FORMATS = ("json", "csv", "svg")
_SVG_WIDTH, _SVG_HEIGHT = 800, 600

# the names the commands bind on first use (_bind): layers, and the
# functions of integrate they call by name
_LAYERS = ("analysis", "barrier", "geometry", "hopf", "integrate", "radial")
_INTEGRATE_CALLS = ("shoot_unstable_manifold", "crossing_report", "detect_psi_zeros")


def _load(name: str):
    """The layer name of _LAYERS or integrate's function name, imported if need be."""
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __package__)
    if name in _INTEGRATE_CALLS:
        return getattr(_load("integrate"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _eager(name: str):
    """cli.<name>, every layer imported first: perfbench's traced run wraps
    radial's functions here, and analysis must have bound the originals."""
    value = _load(name)  # an AttributeError if name is none of _load's
    for layer in _LAYERS:
        _load(layer)
    return value


__getattr__ = _eager  # PEP 562


def _bind(*names: str) -> None:
    """Bind names (_load's) in this module's globals, where the commands
    call them; a binding already there, a traced wrapper say, stays."""
    for name in names:
        globals().setdefault(name, _load(name))


_SHOOT_FIELDS = ("rel_tol", "t_max", "max_crossings")
# the layer whose DEFAULT_<FIELD> is the default of a RunConfig field left None
_DEFAULTS_FROM = {**dict.fromkeys(_SHOOT_FIELDS, "integrate"), "sample_count": "hopf"}


@dataclass
class RunConfig:
    rel_tol: float | None = None
    t_max: float | None = None
    max_crossings: int | None = None
    sample_count: int | None = None
    seed: int = 0
    out_dir: str = "."
    formats: tuple[str, ...] = ("json", "csv")

    def validate(self) -> None:
        """Check formats, the one setting that no library function takes;
        shoot_unstable_manifold and hopf.condition_b_check check the others."""
        if not self.formats:
            raise ValueError("formats must be nonempty")
        for f in self.formats:
            if f not in _FORMATS:
                raise ValueError(f"unknown format {f!r}; choose from {_FORMATS}")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse the flat key = value grammar; later keys win."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory, or no permission
        raise ValueError(f"config file {str(path)!r} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"config file {str(path)!r} is not UTF-8 text") from None
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _coerce(cfg: RunConfig, key: str, value: str) -> None:
    """Set field key of cfg from its text, as a config file or a flag gives it."""
    if key == "formats":
        setattr(cfg, key, tuple(v.strip() for v in value.split(",") if v.strip()))
        return
    kind = type(getattr(cfg, key))
    try:
        setattr(cfg, key, kind(value))
    except ValueError:
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    """The settings of args.fields, the RunConfig fields the command reads,
    from its config file and then its flags; the file's other keys are
    skipped unparsed if they name a field and refused if not.  A field of
    args.fields that the library owns starts at its default (_DEFAULTS_FROM)."""
    cfg = RunConfig(**{key: getattr(_load(layer), f"DEFAULT_{key.upper()}")
                       for key, layer in _DEFAULTS_FROM.items() if key in args.fields})
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    for key, value in (load_config_file(path) if path else {}).items():
        if key not in vars(cfg):
            raise ValueError(f"unknown config key {key!r}")
        if key in args.fields:
            _coerce(cfg, key, value)
    for key in args.fields:
        flag = getattr(args, key)
        if flag is not None:
            _coerce(cfg, key, flag)
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# serialization (stdout and CSV: 17 significant digits; JSON: the
# shortest round-trip text)

def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _plain(obj) -> dict:
    """json.dumps's default: LomseParams as its triple {n, p, k}, any other
    dataclass as its fields in declaration order."""
    if isinstance(obj, LomseParams):
        return {"n": obj.n, "p": obj.p, "k": obj.k}
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """JSON text of obj, indented by 2; floats in their shortest round-trip
    form, dataclasses through _plain."""
    return json.dumps(obj, indent=2, default=_plain) + "\n"


# ----------------------------------------------------------------------
# file emitters

def write_csv(path: Path, header: list[str], rows) -> None:
    """The header, then each row, a tuple of one float per column, at 17
    significant digits (fmt17's formatter); lines end in \r\n."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)


def write_svg(path: Path, series: list[tuple[list[float], list[float], str]],
              markers: list[tuple[float, float]] | None = None) -> None:
    """Static polyline plot, _SVG_WIDTH x _SVG_HEIGHT; viewBox from data
    extents plus a 5% margin."""
    xs_all = [x for xs, _, _ in series for x in xs]
    ys_all = [y for _, ys, _ in series for y in ys]
    if markers:
        xs_all += [m[0] for m in markers]
        ys_all += [m[1] for m in markers]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    dx = (x_hi - x_lo) or 1.0
    dy = (y_hi - y_lo) or 1.0
    x_lo -= 0.05 * dx
    x_hi += 0.05 * dx
    y_lo -= 0.05 * dy
    y_hi += 0.05 * dy

    def sx(x):
        return (x - x_lo) / (x_hi - x_lo) * _SVG_WIDTH

    def sy(y):
        return _SVG_HEIGHT - (y - y_lo) / (y_hi - y_lo) * _SVG_HEIGHT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    ]
    if y_lo < 0.0 < y_hi:
        parts.append(f'<line x1="0" y1="{sy(0):.6g}" x2="{_SVG_WIDTH}" y2="{sy(0):.6g}" '
                     'stroke="#cccccc" stroke-width="1"/>')
    if x_lo < 0.0 < x_hi:
        parts.append(f'<line x1="{sx(0):.6g}" y1="0" x2="{sx(0):.6g}" y2="{_SVG_HEIGHT}" '
                     'stroke="#cccccc" stroke-width="1"/>')
    for xs, ys, color in series:
        pts = " ".join(f"{sx(x):.6g},{sy(y):.6g}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
    for mx, my in markers or []:
        parts.append(f'<circle cx="{sx(mx):.6g}" cy="{sy(my):.6g}" r="4" fill="black"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# commands

# flags that act on one stability type only: given for a triple of the
# other type they exit 2, while their config keys are ignored there, as
# shoot_unstable_manifold drops the setting that does not apply
_TYPE_ONLY = {
    "-c": StabilityType.CENTER_TYPE_I,
    "--max-crossings": StabilityType.SPIRAL_TYPE_II,
}
_TYPE_NAMES = {StabilityType.CENTER_TYPE_I: "real-eigenvalue",
               StabilityType.SPIRAL_TYPE_II: "spiral"}


def _build(args) -> LomseParams:
    """The triple of args; a flag of _TYPE_ONLY given for the other type
    is a usage error."""
    params = build_params(args.n, args.p, args.k,
                          allow_inadmissible=getattr(args, "allow_inadmissible", False))
    for flag, kind in _TYPE_ONLY.items():
        dest = flag.lstrip("-").replace("-", "_")  # argparse's rule
        if params.stability is not kind and getattr(args, dest, None) is not None:
            raise ValueError(f"{args.command}: {flag} applies only to the "
                             f"{_TYPE_NAMES[kind]} type")
    return params


def _shoot(params: LomseParams, cfg: RunConfig) -> Trajectory:
    """The connecting orbit with the settings of cfg it reads, _SHOOT_FIELDS."""
    return shoot_unstable_manifold(params, t_max=cfg.t_max, max_crossings=cfg.max_crossings,
                                   rel_tol=cfg.rel_tol)


def _output_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ValueError(f"out_dir {cfg.out_dir!r} is not a usable directory: "
                         f"{exc.strerror}") from None
    return out


def _write_json(cfg: RunConfig, name: str, payload) -> Path:
    """Write payload as name in the output directory; returns the directory."""
    out = _output_dir(cfg)
    (out / name).write_text(dumps_json(payload), encoding="utf-8")
    return out


def _classify_row(params: LomseParams) -> str:
    kind = "center(I)" if params.stability is StabilityType.CENTER_TYPE_I else "spiral(II)"
    return (f"{params.n:>3} {params.p:>3} {params.k:>3}  "
            f"{'yes' if params.admissible else 'no ':<3}  "
            f"{params.lam:<20.12g} {params.theta:<20.12g} {params.phi0:<20.12g} {kind}")


_CLASSIFY_HEADER = (f"{'n':>3} {'p':>3} {'k':>3}  adm  "
                    f"{'lambda':<20} {'theta':<20} {'phi0':<20} type")


def cmd_classify(args) -> int:
    if args.sweep and args.n is not None:  # argparse fills n first
        raise ValueError("classify: give n p k or --sweep N_MAX K_MAX, not both")
    if args.sweep:
        n_max, k_max = args.sweep
        print(_CLASSIFY_HEADER)
        for p in enumerate_admissible(n_max, k_max):
            print(_classify_row(p))
        return EXIT_OK
    if args.n is None or args.p is None or args.k is None:
        raise ValueError("classify: provide n p k or --sweep N_MAX K_MAX")
    for name in ("n", "p", "k"):
        text = getattr(args, name)
        try:
            setattr(args, name, int(text))
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value: {text!r}") from None
    params = _build(args)
    print(_CLASSIFY_HEADER)
    print(_classify_row(params))
    return EXIT_OK


def _orbit_svgs(out: Path, traj: Trajectory, profile: radial.Profile) -> None:
    params = traj.params
    write_svg(out / "phase.svg",
              [(traj.phi.tolist(), traj.psi.tolist(), "#1f77b4")],
              markers=[(0.0, 0.0), (params.phi0, 0.0)])
    # limit the profile plot to the first few oscillations; the radial scale
    # grows by e^2.8 per half-turn of the spiral and a full-span linear plot
    # collapses everything interesting to the origin
    if params.stability is StabilityType.SPIRAL_TYPE_II:
        zeros = detect_psi_zeros(traj)
        t_cut = zeros[3].t if len(zeros) >= 4 else traj.t_end
    else:
        t_cut = traj.t_end
    # t is strictly increasing: the samples up to t_cut are a prefix
    m = int(traj.t.searchsorted(t_cut, side="right"))
    rs = profile.r[:m].tolist()
    rhos = profile.rho[:m].tolist()
    ray = [params.phi0 * r for r in rs]
    write_svg(out / "profile.svg",
              [(rs, rhos, "#1f77b4"), (rs, ray, "#d62728")])


def cmd_orbit(args) -> int:
    _bind("radial", *_INTEGRATE_CALLS)
    cfg = build_config(args)
    params = _build(args)
    traj = _shoot(params, cfg)
    target = args.target_phi if args.target_phi is not None else params.phi0
    report = crossing_report(traj, target)
    # only the csv and svg files read the profile
    profile = radial.to_profile(traj) if {"csv", "svg"} & set(cfg.formats) else None

    out = _write_json(cfg, "events.json", report) if "json" in cfg.formats else _output_dir(cfg)
    if "csv" in cfg.formats:
        write_csv(out / "trajectory.csv", ["t", "phi", "psi"],
                  zip(traj.t.tolist(), traj.phi.tolist(), traj.psi.tolist()))
        write_csv(out / "profile.csv", ["r", "rho", "rho_r", "rho_rr", "residual"],
                  zip(profile.r.tolist(), profile.rho.tolist(), profile.rho_r.tolist(),
                      profile.rho_rr.tolist(), radial.ode1_residual(profile, params).tolist()))
    if "svg" in cfg.formats:
        _orbit_svgs(out, traj, profile)
    print(f"orbit ({params.n},{params.p},{params.k}): {len(traj)} states, "
          f"terminated_by={traj.terminated_by.value}, "
          f"{len(report.psi_zeros)} psi zeros, {len(report.phi_hits)} hits of "
          f"phi={fmt17(target)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _bind("barrier")
    cfg = build_config(args)
    params = _build(args)
    if params.stability is StabilityType.CENTER_TYPE_I:
        report = barrier.case1_check(params, c=args.c)
        payload = {"params": params, "case": 1, **vars(report)}
        print(f"invariant region ({params.n},{params.p},{params.k}) with c={fmt17(report.c)}:")
        print(f"  F(0) = {fmt17(report.f0)}")
        print(f"  G(0) = {fmt17(report.g0)}")
        print(f"  G(lambda^2 phi0^2) = {fmt17(report.g_end)}")
        print(f"  grid margin = {fmt17(report.grid_margin)}")
    else:
        report = barrier.case2_check(params)
        payload = {"params": params, "case": 2, **vars(report)}
        print(f"spiral certificates ({params.n},{params.p},{params.k}):")
        print(f"  min F(s) = {fmt17(report.fs_min)} at s = {fmt17(report.fs_argmin)}")
        print(f"  step-1 grid margin = {fmt17(report.g_grid_margin)}")
        print(f"  no-limit-cycle margin (max Y2+X2) = {fmt17(report.cycle_margin)}")
    _write_json(cfg, "barrier.json", payload)
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_BARRIER_FAILURE


def cmd_geometry(args) -> int:
    _bind("geometry")
    cfg = build_config(args)
    params = _build(args)
    report = geometry.geometry_report(params)
    _write_json(cfg, "geometry.json", report)
    print(f"geometry ({params.n},{params.p},{params.k}):")
    print(f"  cos_alpha    = {fmt17(report.cos_alpha)}")
    print(f"  volume_ratio = {fmt17(report.volume_ratio)}")
    print(f"  slope_w      = {fmt17(report.slope_w)}")
    for angle, mult in report.jordan_angles:
        print(f"  jordan angle {fmt17(angle)} x{mult}")
    return EXIT_OK


def _radius(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"radii must be a comma list of floats, got {text!r}") from None


def cmd_density(args) -> int:
    _bind("analysis", "radial", "shoot_unstable_manifold")
    cfg = build_config(args)
    params = _build(args)
    radii = None if args.radii is None else [_radius(v) for v in args.radii.split(",")]
    traj = _shoot(params, cfg)
    if radii is not None:
        profile = radial.to_profile(traj)
        try:
            thetas = [analysis.theta_of_radius(profile, params, R) for R in radii]
        except ValueError as exc:
            raise ValueError(f"radii: {exc}") from None
        payload = {"params": params, "radii": radii, "thetas": thetas,
                   "theta_infinity": analysis.theta_infinity(params)}
        _write_json(cfg, "density.json", payload)
        for r, th in zip(radii, thetas):
            print(f"Theta({fmt17(r)}) = {fmt17(th)}")
        print(f"Theta_infinity = {fmt17(payload['theta_infinity'])}")
        # Theta rises to Theta_infinity: a value not below it is unresolved
        above = [fmt17(r) for r, th in zip(radii, thetas) if not th < payload["theta_infinity"]]
        if above:
            print(f"unresolved: Theta(R) not below Theta_infinity at R = {', '.join(above)}",
                  file=sys.stderr)
            return EXIT_BARRIER_FAILURE
        return EXIT_OK
    report = analysis.density_report(traj)
    _write_json(cfg, "density.json", report)
    gaps, errors = report.log10_gaps, report.log10_gap_errors
    print(f"density ({params.n},{params.p},{params.k}): {len(gaps)} crossings")
    print(f"  Theta_1 = {fmt17(report.thetas[0])}")
    print(f"  Theta_1_volume = {fmt17(report.theta_1_volume)}")
    print(f"  Theta_infinity = {fmt17(report.theta_infinity)}")
    for i in (0, len(gaps) - 1):
        print(f"  log10_gap_{i + 1} = {fmt17(gaps[i])} (error bar 10^{fmt17(errors[i])})")
    print(f"  resolved gaps = {sum(e < g for g, e in zip(gaps, errors))} of {len(gaps)}")
    print(f"  strictly_below_cone = {report.strictly_below_cone}")
    return EXIT_OK if report.strictly_below_cone else EXIT_BARRIER_FAILURE


def cmd_maps_check(args) -> int:
    _bind("hopf")
    cfg = build_config(args)
    params = build_params(3, 2, 2)
    sv_dev, sum_dev = hopf.condition_b_check(params, cfg.sample_count, seed=cfg.seed)
    payload = {"params": params, "samples": cfg.sample_count, "seed": cfg.seed,
               "max_singular_value_deviation": sv_dev, "max_angle_sum_deviation": sum_dev}
    _write_json(cfg, "maps_check.json", payload)
    print(f"witness map over {cfg.sample_count} points:")
    print(f"  max |singular values - (2,2,0)| = {fmt17(sv_dev)}")
    print(f"  max deviation of the angle sum  = {fmt17(sum_dev)}")
    return EXIT_OK


# ----------------------------------------------------------------------
# the command-line flag of a RunConfig field: --field-name, but --samples

_FLAGS = {"sample_count": "--samples"}


def _add_command(sub, name: str, func, help: str, fields: tuple[str, ...],
                 triple: str | None = "required") -> argparse.ArgumentParser:
    """Add subcommand name with the triple n p k ("required", "optional" or
    None) and the flags of fields, the RunConfig fields it reads, which a
    --config file may set too; build_config reads these and no others."""
    cmd = sub.add_parser(name, help=help)
    if triple:
        # an optional triple is text that the command parses: argparse gives
        # an unknown option's value to n, and a bad n would hide the option
        kind = {"nargs": "?"} if triple == "optional" else {"type": int}
        for arg in ("n", "p", "k"):
            cmd.add_argument(arg, **kind)
        cmd.add_argument("--allow-inadmissible", action="store_true")
    if fields:
        cmd.add_argument("--config", help=f"config file (or set {CONFIG_ENV_VAR})")
    for field in fields:
        cmd.add_argument(_FLAGS.get(field, "--" + field.replace("_", "-")), dest=field,
                         help="comma list from json,csv,svg" if field == "formats" else None)
    cmd.set_defaults(func=func, fields=fields)
    return cmd


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lo-dynamics",
        description="Phase-plane dynamics and invariants of equivariant minimal cone graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = _add_command(sub, "classify", cmd_classify,
                         "admissibility, constants and stability type", (), triple="optional")
    p_cls.add_argument("--sweep", nargs=2, type=int, metavar=("N_MAX", "K_MAX"))
    # classify reads no setting and writes no files, but callers such as
    # perfbench pass --out-dir to every command
    p_cls.add_argument("--out-dir", help="ignored: classify writes no files")

    p_orb = _add_command(sub, "orbit", cmd_orbit,
                         "shoot the connecting orbit and emit data files",
                         ("out_dir", "formats", *_SHOOT_FIELDS))
    p_orb.add_argument("--target-phi", dest="target_phi", type=float,
                       help="slope for crossing detection (default: phi0)")

    p_ver = _add_command(sub, "verify", cmd_verify, "run the certificate suite for the type",
                         ("out_dir",))
    p_ver.add_argument("-c", type=float, default=None,
                       help="barrier constant override (real-eigenvalue type)")

    _add_command(sub, "geometry", cmd_geometry, "closed-form geometric invariants",
                 ("out_dir",))

    p_den = _add_command(sub, "density", cmd_density,
                         "density report (spiral type) or Theta(R) sweep",
                         ("out_dir", *_SHOOT_FIELDS))
    p_den.add_argument("--radii", help="comma list of radii for a Theta(R) sweep")

    _add_command(sub, "maps-check", cmd_maps_check,
                 "witness-map singular values and angle sum",
                 ("out_dir", "sample_count", "seed"), triple=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
