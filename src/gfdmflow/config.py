"""Scenario configuration: flat sectioned ``key = value`` text files.

The format is deliberately plain (INI-style sections, human-diffable); a
configuration survives ``parse -> serialize -> parse`` bit-identically.
Each :class:`ScenarioConfig` field names its own ``[section] key`` and
converter; ``_SCHEMA``, which parsing and serialization both walk, is read
off those fields.  The values of the ``[boundary.<name>]`` sections follow
one table, ``_BOUNDARY_KINDS``, with a row per kind.  An unknown section or
key is an error, and every number must be finite.
Validation collects every problem before failing so a bad file reports all
its issues at once.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from operator import itemgetter

from .cloud import SIDES
from .errors import ConfigError
from .solver import TimeControl, _broken_time_rules

__all__ = ["SegmentBC", "ScenarioConfig", "parse_config", "load_config", "serialize_config"]


@dataclass(frozen=True)
class SegmentBC:
    """Boundary condition of one rectangle side or polygon edge, for p and Sw.

    ``kind`` is ``dirichlet``, holding the values ``p_value`` and
    ``sw_value``, or ``robin``, holding one ``(a, b, g)`` triple per variable
    for ``a*u + b*du/dn = g`` (named a/b/g to keep clear of the flux unit
    constant).  No-flow is the robin triple ``(0, 1, 0)``.  Any other set of
    fields raises :class:`ValueError`.  Both solvers build their boundary
    rows straight from it.
    """

    kind: str
    p_value: float | None = None
    sw_value: float | None = None
    p_robin: tuple[float, float, float] | None = None
    sw_robin: tuple[float, float, float] | None = None

    def __post_init__(self):
        # a kind holds exactly the fields its row of _BOUNDARY_KINDS fills
        held = _BOUNDARY_KINDS[self.kind][0].values() if self.kind in _BOUNDARY_KINDS else ()
        if not held or any((getattr(self, f.name) is None) == (f.name in held) for f in fields(self)[1:]):
            raise ValueError(f"{self}: dirichlet holds p_value and sw_value only, robin p_robin and sw_robin only")

    @classmethod
    def dirichlet(cls, p_value: float, sw_value: float) -> "SegmentBC":
        return cls("dirichlet", p_value=p_value, sw_value=sw_value)

    @classmethod
    def noflow(cls) -> "SegmentBC":
        return cls("robin", p_robin=(0.0, 1.0, 0.0), sw_robin=(0.0, 1.0, 0.0))


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number ({text!r})") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number ({text!r})")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("not an integer") from None


def _flag(text: str) -> bool:
    try:  # true/yes/1/on and false/no/0/off
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("expected true/false") from None


def _numbers(text: str) -> tuple[float, ...]:
    try:
        return tuple(_number(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise ValueError("expected numbers") from None


def _vertices(text: str) -> tuple[tuple[float, float], ...]:
    vertices = []
    try:
        for chunk in filter(None, (c.strip() for c in text.split(";"))):
            xs = chunk.replace(",", " ").split()
            if len(xs) != 2 or not all(math.isfinite(float(v)) for v in xs):
                raise ValueError(chunk)
            vertices.append((float(xs[0]), float(xs[1])))
    except ValueError as exc:
        raise ValueError(f"expected 'x y; x y; ...', bad chunk {exc}") from None
    return tuple(vertices)


def _triple(text: str) -> tuple[float, float, float]:
    values = _numbers(text)
    if len(values) != 3:
        raise ValueError("expected three numbers (a b g)")
    return values


def _choice(*options: str):
    listed = ", ".join(options[:-1]) + " or " + options[-1]

    def parse(text: str) -> str:
        value = text.strip().lower()
        if value not in options:
            raise ValueError(f"must be {listed}, got {value!r}")
        return value

    return parse, str


# converters: (parse text -> value, raising ValueError; show value -> text)
_NUMBER = (_number, repr)
_INTEGER = (_integer, str)
_TEXT = (str.strip, str)
_FLAG = (_flag, lambda v: "true" if v else "false")
_NUMBERS = (_numbers, lambda values: " ".join(map(repr, values)))
_TRIPLE = (_triple, _NUMBERS[1])
_VERTICES = (_vertices, lambda vertices: "; ".join(f"{x!r} {y!r}" for x, y in vertices))


def _key(default, section: str, key: str, converter=_NUMBER):
    """A :class:`ScenarioConfig` field read from ``[section] key``."""
    return field(default=default, metadata={"key": (section, key), "converter": converter})


@dataclass(frozen=True)
class ScenarioConfig:
    domain_shape: str = _key("rectangle", "domain", "shape", _choice("rectangle", "polygon"))
    width: float = _key(200.0, "domain", "width")
    height: float = _key(80.0, "domain", "height")
    vertices: tuple[tuple[float, float], ...] = _key((), "domain", "vertices", _VERTICES)
    cloud_type: str = _key("cartesian", "cloud", "type", _choice("cartesian", "irregular", "csv"))
    dx: float = _key(4.0, "cloud", "dx")
    dy: float = _key(4.0, "cloud", "dy")
    spacing: float = _key(4.0, "cloud", "spacing")
    seed: int = _key(0, "cloud", "seed", _INTEGER)
    jitter: float = _key(0.3, "cloud", "jitter")
    cloud_path: str = _key("", "cloud", "path", _TEXT)
    virtual_nodes: str = _key("auto", "cloud", "virtual_nodes", _choice("auto", "none"))
    radius_multiple: float | None = _key(1.001, "radius", "multiple")
    radius_absolute: float | None = _key(None, "radius", "absolute")
    permeability: float = _key(100.0, "rock", "permeability")
    porosity: float = _key(0.3, "rock", "porosity")
    compressibility: float = _key(0.0, "rock", "compressibility")
    reference_pressure: float = _key(10.0, "rock", "reference_pressure")
    oil_viscosity: float = _key(10.0, "fluids", "oil_viscosity")
    water_viscosity: float = _key(2.0, "fluids", "water_viscosity")
    connate_water: float = _key(0.2, "fluids", "connate_water")
    residual_oil: float = _key(0.2, "fluids", "residual_oil")
    initial_pressure: float = _key(10.0, "initial", "pressure")
    initial_water_saturation: float = _key(0.2, "initial", "water_saturation")
    # keyed by side name or "edgeK", from the [boundary.<name>] sections
    boundaries: dict[str, SegmentBC] = field(default_factory=dict)
    dt_init: float = _key(0.01, "time", "dt_init")
    dt_max: float = _key(2.0, "time", "dt_max")
    t_end: float = _key(500.0, "time", "t_end")
    newton_tol: float = _key(1e-6, "time", "newton_tol")
    max_newton: int = _key(20, "time", "max_newton", _INTEGER)
    dt_grow: float = _key(1.5, "time", "dt_grow")
    dt_cut: float = _key(0.5, "time", "dt_cut")
    output_times: tuple[float, ...] = _key((), "output", "times", _NUMBERS)
    output_dir: str = _key("out", "output", "directory", _TEXT)
    prefix: str = _key("run", "output", "prefix", _TEXT)
    vtk: bool = _key(False, "output", "vtk", _FLAG)

    def time_control(self) -> TimeControl:
        # every [time] key is the TimeControl field of the same name
        return TimeControl(**{name: getattr(self, name) for section, _, name, _ in _SCHEMA if section == "time"})

    def influence_radius(self) -> float:
        if self.radius_absolute is not None:
            return self.radius_absolute
        if self.cloud_type == "cartesian":
            return self.radius_multiple * float((self.dx**2 + self.dy**2) ** 0.5)
        return self.radius_multiple * float(2.0**0.5) * self.spacing

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


# Every [section] key outside [boundary.<name>], in field order, so grouped
# by section: (section, key, ScenarioConfig field, converter).
_SCHEMA = tuple((*f.metadata["key"], f.name, f.metadata["converter"]) for f in fields(ScenarioConfig) if f.metadata)
_SECTION_KEYS = {s: {k for s2, k, *_ in _SCHEMA if s2 == s} for s, *_ in _SCHEMA}

# The values of a [boundary.<name>] section of each kind: the SegmentBC field
# that each key fills, their converter, and what the kind needs, as a bad
# value reports it.  kind = noflow is the robin 0 1 0 (SegmentBC.noflow()).
_BOUNDARY_KINDS = {
    "dirichlet": (
        {"pressure": "p_value", "water_saturation": "sw_value"},
        _NUMBER,
        "numeric pressure and water_saturation",
    ),
    "robin": (
        {"pressure": "p_robin", "water_saturation": "sw_robin"},
        _TRIPLE,
        "'a b g' triples for pressure and water_saturation",
    ),
}
_BOUNDARY_KEYS = {"kind"}.union(*(keys for keys, _, _ in _BOUNDARY_KINDS.values()))


def _missing_sides(config: ScenarioConfig) -> list[str]:
    return [
        f"[boundary.{side}] missing (rectangle sides must all be specified)"
        for side in SIDES
        if side not in config.boundaries
    ]


def _boundary_edges(config: ScenarioConfig) -> list[tuple[str, tuple[float, float], tuple[float, float], SegmentBC]]:
    """The configured boundary, one ``(name, start, end, SegmentBC)`` row per
    edge in counter-clockwise order.

    A rectangle is the polygon (0, 0), (w, 0), (w, h), (0, h): its edges are
    its sides, named as in :data:`~gfdmflow.cloud.SIDES`; a missing side is a
    :class:`ConfigError`.  Polygon edge K runs from vertex K to
    vertex K+1, is named ``edgeK`` and is no-flow unless configured.
    """
    if config.domain_shape == "rectangle":
        missing = _missing_sides(config)
        if missing:
            raise ConfigError(missing)
        w, h = config.width, config.height
        vertices, names = ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)), SIDES
    else:
        vertices = config.vertices
        names = [f"edge{k}" for k in range(len(vertices))]
    n = len(vertices)
    return [
        (name, vertices[k], vertices[(k + 1) % n], config.boundaries.get(name) or SegmentBC.noflow())
        for k, name in enumerate(names)
    ]


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate configuration text; raises :class:`ConfigError`
    listing every problem found."""
    # no section name can hold a newline, so [DEFAULT] is an ordinary
    # (unknown) section instead of keys shared by every section
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from exc

    problems: list[str] = []
    values: dict[str, object] = {}
    for section, key, name, (parse, _show) in _SCHEMA:
        if cp.has_option(section, key):
            try:
                values[name] = parse(cp.get(section, key))
            except ValueError as exc:
                problems.append(f"[{section}] {key}: {exc}")

    if cp.has_option("radius", "multiple") and cp.has_option("radius", "absolute"):
        problems.append("[radius] give either multiple or absolute, not both")
    elif cp.has_option("radius", "absolute"):
        values["radius_multiple"] = None

    boundaries: dict[str, SegmentBC] = {}
    for section in cp.sections():
        is_boundary = section.startswith("boundary.")
        known = _BOUNDARY_KEYS if is_boundary else _SECTION_KEYS.get(section)
        if known is None:
            problems.append(f"[{section}] unknown section")
            continue
        problems += [f"[{section}] {key}: unknown key" for key in cp.options(section) if key not in known]
        if not is_boundary:
            continue
        name = section.split(".", 1)[1]
        kind = cp.get(section, "kind", fallback="").strip().lower()
        if kind == "noflow":
            boundaries[name] = SegmentBC.noflow()
        elif kind in _BOUNDARY_KINDS:
            keys, (parse, _show), needs = _BOUNDARY_KINDS[kind]
            try:
                boundaries[name] = SegmentBC(kind, **{f: parse(cp.get(section, key)) for key, f in keys.items()})
            except (configparser.NoOptionError, ValueError):
                problems.append(f"[{section}] {kind} needs {needs}")
        else:
            problems.append(f"[{section}] kind: must be dirichlet, noflow or robin, got {kind!r}")
    values["boundaries"] = boundaries

    if problems:
        raise ConfigError(problems)
    config = ScenarioConfig(**values)
    problems = validate_config(config)
    if problems:
        raise ConfigError(problems)
    return config


def validate_config(config: ScenarioConfig) -> list[str]:
    """All validation problems of a parsed configuration (empty when valid)."""
    problems: list[str] = []
    if config.domain_shape == "rectangle":
        if config.width <= 0 or config.height <= 0:
            problems.append("[domain] rectangle extents must be positive")
    elif config.domain_shape == "polygon":
        if len(config.vertices) < 3:
            problems.append("[domain] polygon needs at least three vertices")

    if config.cloud_type == "cartesian":
        if config.dx <= 0 or config.dy <= 0:
            problems.append("[cloud] spacings must be positive")
        elif config.domain_shape == "rectangle":
            for extent, d, name in ((config.width, config.dx, "dx"), (config.height, config.dy, "dy")):
                ratio = extent / d
                if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
                    problems.append(f"[cloud] {name}: extent {extent} is not a multiple of {d}")
        if config.domain_shape == "polygon":
            problems.append("[cloud] cartesian clouds require a rectangle domain")
    elif config.cloud_type == "irregular":
        if config.spacing <= 0:
            problems.append("[cloud] spacing must be positive")
        if not (0 <= config.jitter <= 0.5):
            problems.append("[cloud] jitter must lie in [0, 0.5]")
        if config.seed < 0:
            problems.append("[cloud] seed must be nonnegative")
    elif config.cloud_type == "csv" and not config.cloud_path:
        problems.append("[cloud] csv clouds need a path")

    if config.radius_multiple is None and config.radius_absolute is None:
        problems.append("[radius] give multiple or absolute")
    if config.radius_multiple is not None and config.radius_multiple <= 1.0:
        problems.append(
            f"[radius] multiple {config.radius_multiple} <= 1: stencil underdetermined risk "
            "(axis neighbors may fall outside the influence domain)"
        )
    if config.radius_absolute is not None and config.radius_absolute <= 0:
        problems.append("[radius] absolute radius must be positive")

    if config.connate_water < 0 or config.residual_oil < 0:
        problems.append("[fluids] saturations must be nonnegative")
    if config.connate_water + config.residual_oil >= 1:
        problems.append(
            "[fluids] connate_water + residual_oil must be below 1 "
            f"(got {config.connate_water} + {config.residual_oil})"
        )
    if config.oil_viscosity <= 0 or config.water_viscosity <= 0:
        problems.append("[fluids] viscosities must be positive")
    if config.permeability <= 0:
        problems.append("[rock] permeability must be positive")
    if not (0 < config.porosity < 1):
        problems.append("[rock] porosity must lie in (0, 1)")

    if config.domain_shape == "rectangle":
        for name in config.boundaries:
            if name not in SIDES:
                problems.append(f"[boundary.{name}] rectangle boundaries must be named left, right, top or bottom")
        # boundary completeness (CSV clouds already carry node kinds; runs on
        # them still need every side, checked when the boundary table is built)
        if config.cloud_type != "csv":
            problems += _missing_sides(config)
    elif config.domain_shape == "polygon":
        for name in config.boundaries:
            if not name.startswith("edge"):
                problems.append(f"[boundary.{name}] polygon boundaries must be named edgeK")
                continue
            try:
                edge = int(name[4:])
            except ValueError:
                problems.append(f"[boundary.{name}] polygon boundaries must be named edgeK")
                continue
            if not (0 <= edge < len(config.vertices)):
                problems.append(
                    f"[boundary.{name}] references edge {edge} of a "
                    f"{len(config.vertices)}-edge polygon"
                )
    for name, bc in config.boundaries.items():
        if bc.kind == "robin":
            for key, (a, b, _) in (("pressure", bc.p_robin), ("water_saturation", bc.sw_robin)):
                if a == 0 and b == 0:
                    problems.append(f"[boundary.{name}] {key}: robin a = b = 0 constrains nothing")

    problems += [f"[time] {message}" for message in _broken_time_rules(config)]
    return problems


def load_config(path) -> ScenarioConfig:
    """Parse a configuration file; relative cloud paths resolve against the
    config file's own directory."""
    from pathlib import Path

    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"cannot decode {path}: {exc}"]) from exc
    config = parse_config(text)
    if config.cloud_path and not Path(config.cloud_path).is_absolute():
        config = config.with_overrides(cloud_path=str((path.parent / config.cloud_path).resolve()))
    return config


def serialize_config(config: ScenarioConfig) -> str:
    """Render a configuration back to its text form (round-trip stable)."""
    if config.radius_absolute is not None:
        # the absolute radius wins, as in ScenarioConfig.influence_radius
        config = replace(config, radius_multiple=None)
    out = io.StringIO()

    def sect(name, pairs):
        out.write(f"[{name}]\n")
        for k, v in pairs:
            out.write(f"{k} = {v}\n")
        out.write("\n")

    for section, rows in groupby(_SCHEMA, key=itemgetter(0)):
        fields = [(key, show, getattr(config, name)) for _, key, name, (_, show) in rows]
        sect(section, [(key, show(value)) for key, show, value in fields if value is not None])
    for name in sorted(config.boundaries):
        bc = config.boundaries[name]
        keys, (_parse, show), _needs = _BOUNDARY_KINDS[bc.kind]
        sect(f"boundary.{name}", [("kind", bc.kind)] + [(key, show(getattr(bc, f))) for key, f in keys.items()])
    return out.getvalue()
