"""Run configuration: parsing, validation and canonical serialization.

Configs are JSON.  Complex numbers are written as ``[re, im]`` pairs
(plain numbers are accepted and read as real); matrices are nested
row-major arrays of entries; vectors are flat arrays of entries.  Initial
states are given per particle, so only product initial states are
expressible.  Parse errors carry the offending field path.
"""

import json
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ContractViolationError,
    ShapeError,
    SnbdError,
)
from .ensemble import EnsembleParams, ObservableSpec
from .propagator import BLOWUP_POLICIES, TimeGrid
from .system import (
    DISTINGUISHABLE,
    InteractionTerm,
    ParticleSpec,
    SystemSpec,
    decompose_pair_interaction,
    shared_interaction_terms,
)

FORMATS = ("csv", "bin")
SPECTRUM_SOURCES = ("recovery", "oracle")


@dataclass(frozen=True)
class RecoveryParams:
    enabled: bool = False
    reference_vectors: tuple = None
    window: bool = True
    spectrum_source: str = "recovery"


@dataclass(frozen=True)
class OutputParams:
    directory: str = "out"
    formats: tuple = FORMATS


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    time: TimeGrid
    ensemble: EnsembleParams
    observables: tuple
    recovery: RecoveryParams
    output: OutputParams


# ---------------------------------------------------------------------------
# low-level readers (all raise ConfigError with a field path)
# ---------------------------------------------------------------------------

def _fail(path, message):
    raise ConfigError(message, path=path)


def _expect(data, path, kind, what):
    if not isinstance(data, kind):
        _fail(path, f"expected {what}, got {type(data).__name__}")
    return data


def _read_number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    try:
        v = float(v)
    except OverflowError:
        _fail(path, "number out of range")
    if np.isnan(v):
        _fail(path, "expected a number, got NaN")
    return v


def _read_int(v, path, minimum):
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {type(v).__name__}")
    if v < minimum:
        _fail(path, f"must be >= {minimum}, got {v}")
    return v


def _read_count(v, path):
    return _read_int(v, path, 1)


def _read_seed(v, path):
    v = _read_int(v, path, 0)
    if v >= 2 ** 64:
        _fail(path, "must fit in 64 bits")
    return v


def _read_tolerance(v, path):
    if v is None:
        return None
    v = _read_number(v, path)
    if v <= 0:
        _fail(path, f"must be positive, got {v}")
    return v


def _read_bool(v, path):
    if not isinstance(v, bool):
        _fail(path, f"expected true/false, got {type(v).__name__}")
    return v


def _read_name(v, path):
    if not isinstance(v, str) or not v:
        _fail(path, "expected a nonempty string")
    return v


def _one_of(choices):
    def read(v, path):
        if v not in choices:
            _fail(path, f"expected one of {choices}, got {v!r}")
        return v
    return read


def _read_formats(v, path):
    raw = _expect(v, path, list, "a list of format names")
    for f in raw:
        if f not in FORMATS:
            _fail(path, f"unknown format {f!r}; allowed: {FORMATS}")
    if not raw:
        _fail(path, "at least one format is required")
    return tuple(raw)


def _read_entry(v, path):
    if isinstance(v, list) and len(v) == 2:
        z = complex(_read_number(v[0], f"{path}[0]"),
                    _read_number(v[1], f"{path}[1]"))
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        z = complex(_read_number(v, path))
    else:
        _fail(path, "expected a number or an [re, im] pair")
    if not np.isfinite(z):
        _fail(path, f"expected a finite entry, got {z}")
    return z


def _read_matrix(v, path):
    rows = _expect(v, path, list, "a matrix (list of rows)")
    if not rows:
        _fail(path, "matrix must not be empty")
    n = len(rows)
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        row = _expect(row, f"{path}[{i}]", list, "a row (list of entries)")
        if len(row) != n:
            _fail(f"{path}[{i}]", f"row length {len(row)} != dimension {n}")
        for j, entry in enumerate(row):
            out[i, j] = _read_entry(entry, f"{path}[{i}][{j}]")
    return out


def _read_vector(v, path):
    entries = _expect(v, path, list, "a vector (list of entries)")
    if not entries:
        _fail(path, "vector must not be empty")
    return np.array([_read_entry(e, f"{path}[{i}]")
                     for i, e in enumerate(entries)], dtype=complex)


def _read_vectors(v, path):
    if v is None:
        return None
    raw = _expect(v, path, list, "a list of vectors")
    return tuple(_read_vector(x, f"{path}[{k}]") for k, x in enumerate(raw))


def _check_keys(data, path, allowed, required=()):
    _expect(data, path, dict, "an object")
    unknown = set(data) - set(allowed)
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    for key in required:
        if key not in data:
            _fail(path, f"missing required key {key!r}")
    return data


# ---------------------------------------------------------------------------
# section parsers
# ---------------------------------------------------------------------------

# One table per flat config object: JSON key -> (dataclass field, reader).
# It gives the allowed keys, the parsed fields and the serialized form; a
# key left out of the JSON keeps the dataclass default.
_PARTICLE_KEYS = {
    "dim": ("dim", _read_count),
    "h": ("h", _read_matrix),
    "statistics": ("statistics", _one_of((DISTINGUISHABLE,))),
}
_TIME_KEYS = {
    "t_final": ("t_final", _read_number),
    "dt": ("dt", _read_number),
    "record_stride": ("record_stride", _read_count),
}
_ENSEMBLE_KEYS = {
    "M": ("m", _read_count),
    "master_seed": ("master_seed", _read_seed),
    "worker_count": ("worker_count", _read_count),
    "n_blocks": ("n_blocks", _read_count),
    "full_density": ("full_density", _read_bool),
    "blowup_policy": ("blowup_policy", _one_of(BLOWUP_POLICIES)),
    "positivity_tol": ("positivity_tol", _read_tolerance),
}
_RECOVERY_KEYS = {
    "enabled": ("enabled", _read_bool),
    "reference_vectors": ("reference_vectors", _read_vectors),
    "window": ("window", _read_bool),
    "spectrum_source": ("spectrum_source", _one_of(SPECTRUM_SOURCES)),
}
_OUTPUT_KEYS = {
    "directory": ("directory", _read_name),
    "formats": ("formats", _read_formats),
}


def _parse_section(data, path, cls, keys, required=()):
    """``cls`` built from the keys of ``data`` through its table; an
    optional section given as null is all defaults."""
    if data is None and not required:
        return cls()
    _check_keys(data, path, keys, required)
    values = {field: read(data[key], f"{path}.{key}")
              for key, (field, read) in keys.items() if key in data}
    try:
        return cls(**values)
    except SnbdError as exc:
        _fail(path, str(exc))


def _section_out(params, keys) -> dict:
    return {key: getattr(params, field) for key, (field, _) in keys.items()}


def _parse_system(data) -> SystemSpec:
    _check_keys(data, "system", ("particles", "interaction", "initial"),
                required=("particles", "initial"))
    raw_particles = _expect(data["particles"], "system.particles", list,
                            "a list of particles")
    if not raw_particles:
        _fail("system.particles", "at least one particle is required")
    particles = [
        _parse_section(p, f"system.particles[{k}]", ParticleSpec,
                       _PARTICLE_KEYS, required=("dim", "h"))
        for k, p in enumerate(raw_particles)]

    raw_initial = _expect(data["initial"], "system.initial", list,
                          "a list of one-body densities")
    initial = [_read_matrix(m, f"system.initial[{k}]")
               for k, m in enumerate(raw_initial)]

    terms = _parse_interaction(data.get("interaction"), particles)
    try:
        return SystemSpec(particles=tuple(particles), terms=terms,
                          initial=tuple(initial))
    except (ContractViolationError, ShapeError) as exc:
        _fail("system", str(exc))


def _parse_interaction(data, particles) -> tuple:
    if data is None:
        return ()
    _check_keys(data, "system.interaction", ("pair_matrix", "terms"))
    if ("pair_matrix" in data) == ("terms" in data):
        _fail("system.interaction",
              "give exactly one of 'pair_matrix' or 'terms'")
    n = len(particles)
    if "pair_matrix" in data:
        dims = {p.dim for p in particles}
        if len(dims) != 1:
            _fail("system.interaction.pair_matrix",
                  "a shared pair matrix requires identical particle dimensions")
        if n < 2:
            _fail("system.interaction.pair_matrix",
                  "pair interactions need at least two particles")
        m = dims.pop()
        v = _read_matrix(data["pair_matrix"], "system.interaction.pair_matrix")
        try:
            pairs = decompose_pair_interaction(v, m)
        except SnbdError as exc:
            _fail("system.interaction.pair_matrix", str(exc))
        return shared_interaction_terms(pairs, particles)
    raw_terms = _expect(data["terms"], "system.interaction.terms", list,
                        "a list of terms")
    terms = []
    for t, term in enumerate(raw_terms):
        path = f"system.interaction.terms[{t}]"
        _check_keys(term, path, ("omega", "op", "ops"), required=("omega",))
        if ("op" in term) == ("ops" in term):
            _fail(path, "give exactly one of 'op' (shared) or 'ops' (per particle)")
        omega = _read_number(term["omega"], f"{path}.omega")
        if "op" in term:
            op = _read_matrix(term["op"], f"{path}.op")
            ops = (op,) * n
        else:
            raw_ops = _expect(term["ops"], f"{path}.ops", list,
                              "a list of matrices")
            ops = tuple(_read_matrix(o, f"{path}.ops[{k}]")
                        for k, o in enumerate(raw_ops))
        try:
            terms.append(InteractionTerm(omega=omega, ops=ops))
        except SnbdError as exc:
            _fail(path, str(exc))
    return tuple(terms)


def _parse_observables(data) -> tuple:
    if data is None:
        return ()
    raw = _expect(data, "observables", list, "a list of observables")
    out = []
    names = set()
    for i, o in enumerate(raw):
        path = f"observables[{i}]"
        _check_keys(o, path, ("name", "factors"), required=("name", "factors"))
        name = _read_name(o["name"], f"{path}.name")
        if name in names:
            _fail(f"{path}.name", f"duplicate observable name {name!r}")
        names.add(name)
        raw_factors = _expect(o["factors"], f"{path}.factors", list,
                              "a list of matrices (null = identity)")
        factors = tuple(
            None if f is None else _read_matrix(f, f"{path}.factors[{k}]")
            for k, f in enumerate(raw_factors))
        try:
            out.append(ObservableSpec(name=name, factors=factors))
        except SnbdError as exc:
            _fail(path, str(exc))
    return tuple(out)


def parse_config_dict(data, source="<config>") -> RunConfig:
    """Validate a configuration dictionary into a RunConfig."""
    _check_keys(data, source,
                ("system", "time", "ensemble", "observables", "recovery",
                 "output"),
                required=("system", "time"))
    system = _parse_system(data["system"])
    cfg = RunConfig(
        system=system,
        time=_parse_section(data["time"], "time", TimeGrid, _TIME_KEYS,
                            required=("t_final", "dt")),
        ensemble=_parse_section(data.get("ensemble"), "ensemble",
                                EnsembleParams, _ENSEMBLE_KEYS),
        observables=_parse_observables(data.get("observables")),
        recovery=_parse_section(data.get("recovery"), "recovery",
                                RecoveryParams, _RECOVERY_KEYS),
        output=_parse_section(data.get("output"), "output", OutputParams,
                              _OUTPUT_KEYS),
    )
    for i, obs in enumerate(cfg.observables):
        try:
            obs.materialize(system.dims)
        except ShapeError as exc:
            _fail(f"observables[{i}]", str(exc))
    all_refs = cfg.recovery.reference_vectors
    if all_refs is not None and len(all_refs) != system.n_particles:
        _fail("recovery.reference_vectors",
              f"{len(all_refs)} vectors for {system.n_particles} particles")
    for k, refs in enumerate(all_refs or ()):
        if refs.shape != (system.particles[k].dim,):
            _fail(f"recovery.reference_vectors[{k}]",
                  f"length {refs.shape[0]} != particle dim "
                  f"{system.particles[k].dim}")
    return cfg


def parse_config(path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", path=str(path)) from exc
    return parse_config_dict(data, source=str(path))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _entry_out(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_out(m) -> list:
    m = np.asarray(m)
    return [[_entry_out(m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def _vector_out(v) -> list:
    return [_entry_out(x) for x in np.asarray(v)]


def serialize_config(cfg: RunConfig) -> dict:
    """Canonical plain-data form; parse_config_dict inverts it exactly."""
    system = {
        "particles": [
            {**_section_out(p, _PARTICLE_KEYS), "h": _matrix_out(p.h)}
            for p in cfg.system.particles
        ],
        "initial": [_matrix_out(r) for r in cfg.system.initial],
    }
    if cfg.system.terms:
        terms = []
        for t in cfg.system.terms:
            shared = all(np.array_equal(o, t.ops[0]) for o in t.ops[1:])
            if shared:
                terms.append({"omega": t.omega, "op": _matrix_out(t.ops[0])})
            else:
                terms.append({"omega": t.omega,
                              "ops": [_matrix_out(o) for o in t.ops]})
        system["interaction"] = {"terms": terms}
    data = {
        "system": system,
        "time": _section_out(cfg.time, _TIME_KEYS),
        "ensemble": _section_out(cfg.ensemble, _ENSEMBLE_KEYS),
        "observables": [
            {"name": o.name,
             "factors": [None if f is None else _matrix_out(f)
                         for f in o.factors]}
            for o in cfg.observables
        ],
        "recovery": {
            **_section_out(cfg.recovery, _RECOVERY_KEYS),
            "reference_vectors": (
                None if cfg.recovery.reference_vectors is None
                else [_vector_out(v) for v in cfg.recovery.reference_vectors]),
        },
        "output": {
            **_section_out(cfg.output, _OUTPUT_KEYS),
            "formats": list(cfg.output.formats),
        },
    }
    return data


def config_digest(cfg: RunConfig) -> str:
    """Hash of the physics content of a config.

    Excludes execution-layout fields (worker count, output section), so
    runs that must produce identical data also share the digest.
    """
    data = serialize_config(cfg)
    del data["output"]
    del data["ensemble"]["worker_count"]
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def apply_override(data: dict, dotted: str, raw_value: str):
    """Apply a dotted-path override like ``ensemble.M=4000`` to a raw dict.

    The value is parsed as JSON when possible (numbers, booleans, arrays)
    and kept as a string otherwise.
    """
    keys = dotted.split(".")
    if not all(keys):
        raise ConfigError(f"malformed override path {dotted!r}")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = data
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = node[key] = {}
        if not isinstance(nxt, dict):
            raise ConfigError(
                f"override path {dotted!r} descends into a non-object")
        node = nxt
    node[keys[-1]] = value
