"""Command-line front end.

Subcommands:

- ``run``       stochastic ensemble propagation, writes time series
- ``oracle``    exact desk-scale propagation of the same system
- ``compare``   both, plus per-time difference metrics with error bars
- ``spectrum``  eigenspectrum from the recovered-state autocorrelation
- ``validate``  parse and validate the config, no computation

All subcommands take ``--config <path>`` plus optional ``--seed``,
``--workers``, ``--out``, ``--quiet``/``--verbose`` and any number of
dotted-path overrides of the form ``--section.field=value`` (values are
parsed as JSON).  Outputs land in the configured directory together with
a deterministic ``manifest.json``; rerunning with the same config and
seed reproduces every file byte for byte, for any worker count.
"""

import argparse
import signal
import sys

import numpy as np

from . import __version__
from .config import (
    apply_override,
    config_digest,
    parse_config,
    parse_config_dict,
    serialize_config,
)
from .ensemble import (
    estimate_density,
    estimate_product_observable,
    jackknife_density_scalar,
    run_ensemble,
)
from .errors import (
    ConfigError,
    DegenerateReferenceError,
    DimensionLimitError,
    MissingDataError,
    PhaseSingularityError,
    PositivityViolationError,
    SnbdError,
    TrajectoryBlowupError,
    WorkerLostError,
)
from .linalg import trace_distances
from .oracle import exact_observable, propagate_exact
from .output import RunWriter
from .propagator import carried_trace_deviation
from .recovery import (
    autocorrelation_spectrum,
    default_reference_vectors,
    jackknife_recovery,
    recover,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DIMENSION = 3
EXIT_TRAJECTORY = 4
EXIT_DATA = 5
EXIT_RECOVERY = 6
EXIT_NUMERIC = 7
EXIT_WORKER_LOST = 8

_ERROR_CODES = (
    ((ConfigError,), EXIT_CONFIG),
    ((DimensionLimitError,), EXIT_DIMENSION),
    ((TrajectoryBlowupError, PositivityViolationError), EXIT_TRAJECTORY),
    ((MissingDataError,), EXIT_DATA),
    ((DegenerateReferenceError, PhaseSingularityError), EXIT_RECOVERY),
    ((WorkerLostError,), EXIT_WORKER_LOST),
    ((SnbdError,), EXIT_NUMERIC),
)


def _exit_code(exc) -> int:
    for kinds, code in _ERROR_CODES:
        if isinstance(exc, kinds):
            return code
    return EXIT_INTERNAL


class _Reporter:
    def __init__(self, verbosity):
        self.verbosity = verbosity

    def info(self, message):
        if self.verbosity >= 0:
            print(message)

    def detail(self, message):
        if self.verbosity >= 1:
            print(message, file=sys.stderr)


def _recovery_refs(cfg):
    if not cfg.recovery.enabled:
        return None
    if cfg.recovery.reference_vectors is not None:
        return cfg.recovery.reference_vectors
    return default_reference_vectors(cfg.system)


def _run_ensemble_from_config(cfg, reporter):
    reporter.detail(
        f"running M={cfg.ensemble.m} trajectories, "
        f"{cfg.ensemble.worker_count} worker(s)")
    return run_ensemble(cfg.system, cfg.time, cfg.ensemble, cfg.observables,
                        _recovery_refs(cfg))


def _write_observables(writer, cfg, acc, name="observables.csv"):
    if "csv" not in cfg.output.formats or not cfg.observables:
        return
    header = ["t"]
    columns = [acc.times]
    for obs in cfg.observables:
        est = estimate_product_observable(acc, obs.name)
        header += [obs.name, f"{obs.name}_stderr"]
        columns += [est.mean, est.stderr]
    writer.write_csv(name, header, columns)


def _write_positivity(writer, cfg, acc):
    if "csv" not in cfg.output.formats:
        return
    # without an active trajectory no block has a minimum (each reads inf)
    acc.estimate_counts()
    mins = acc.min_eig.min(axis=0)  # worst over blocks: (T, N)
    header = ["t"] + [f"min_eig_{k}" for k in range(len(cfg.system.particles))]
    writer.write_csv("positivity.csv", header,
                     [acc.times] + [mins[:, k] for k in range(mins.shape[1])])


def _write_recovery(writer, cfg, record):
    if "csv" not in cfg.output.formats:
        return
    writer.write_csv(
        "recovery.csv",
        ["t", "theta", "autocorr_re", "autocorr_im", "phi_tilde_norm"],
        [record.t_grid, record.theta, record.autocorr.real,
         record.autocorr.imag, np.linalg.norm(record.phi_tilde, axis=1)])


def _run_diagnostics(writer, cfg, acc):
    writer.add_diagnostics(
        trajectories=acc.count,
        max_trace_deviation=carried_trace_deviation(cfg.system),
        max_hermiticity_deviation=0.0,   # by construction: propagator._upper_map
        skipped_blowups=len(acc.blowups),
        skipped_positivity=len(acc.positivity_skips),
    )


def cmd_run(cfg, writer, reporter):
    acc = _run_ensemble_from_config(cfg, reporter)
    _run_diagnostics(writer, cfg, acc)
    _write_observables(writer, cfg, acc)
    _write_positivity(writer, cfg, acc)
    if cfg.ensemble.full_density and "bin" in cfg.output.formats:
        writer.write_density_bin("density.bin", estimate_density(acc))
    if cfg.recovery.enabled:
        record = recover(acc, cfg.system)
        _write_recovery(writer, cfg, record)
    reporter.info(f"run complete: {acc.count} trajectories, "
                  f"{len(acc.times)} recorded times")
    return acc


def _oracle_states(cfg, pure=False):
    times = cfg.time.times
    return times, propagate_exact(cfg.system, times, pure=pure)


def cmd_oracle(cfg, writer, reporter):
    times, states = _oracle_states(cfg)
    if "csv" in cfg.output.formats and cfg.observables:
        header = ["t"]
        columns = [times]
        for obs in cfg.observables:
            header.append(obs.name)
            columns.append(exact_observable(states, obs, cfg.system.dims))
        writer.write_csv("oracle_observables.csv", header, columns)
    if "bin" in cfg.output.formats:
        writer.write_density_bin(
            "oracle_density.bin", np.stack([s.rhoN for s in states]))
    reporter.info(f"oracle complete: {len(times)} times, "
                  f"dimension {cfg.system.full_dim}")
    return states


def cmd_compare(cfg, writer, reporter):
    if not cfg.ensemble.full_density:
        raise ConfigError(
            "compare needs ensemble.full_density=true for the trace-distance "
            "metric", path="ensemble.full_density")
    acc = _run_ensemble_from_config(cfg, reporter)
    _run_diagnostics(writer, cfg, acc)
    _write_observables(writer, cfg, acc)
    _write_positivity(writer, cfg, acc)
    pure = cfg.recovery.enabled
    times, states = _oracle_states(cfg, pure=pure)
    oracle = np.stack([s.rhoN for s in states])
    if "bin" in cfg.output.formats:
        writer.write_density_bin("density.bin", estimate_density(acc))
        writer.write_density_bin("oracle_density.bin", oracle)

    header = ["t", "trace_distance", "trace_distance_se"]
    td, td_se = jackknife_density_scalar(
        acc, lambda rhos: trace_distances(rhos, oracle))
    columns = [acc.times, td, td_se]
    for obs in cfg.observables:
        est = estimate_product_observable(acc, obs.name)
        exact = exact_observable(states, obs, cfg.system.dims)
        header += [f"{obs.name}_abs_err", f"{obs.name}_stderr"]
        columns += [np.abs(est.mean - exact), est.stderr]
    if cfg.recovery.enabled:
        oracle_psi = np.stack([s.psiN for s in states])

        def fidelity(record):
            return np.abs(np.sum(oracle_psi.conj() * record.psi, axis=1))

        record = recover(acc, cfg.system)
        fid, fid_se = jackknife_recovery(acc, cfg.system, fidelity, record)
        _write_recovery(writer, cfg, record)
        header += ["fidelity", "fidelity_se"]
        columns += [fid, fid_se]
    if "csv" in cfg.output.formats:
        writer.write_csv("compare.csv", header, columns)
    worst = float(np.max(td))
    writer.add_diagnostics(worst_trace_distance=worst)
    reporter.info(f"compare complete: worst trace distance {worst:.3e}")
    return td, td_se


def cmd_spectrum(cfg, writer, reporter):
    if cfg.recovery.spectrum_source == "oracle":
        times, states = _oracle_states(cfg, pure=True)
        psi = np.stack([s.psiN for s in states])
    else:
        if not cfg.recovery.enabled:
            raise ConfigError(
                "spectrum with spectrum_source='recovery' needs "
                "recovery.enabled=true", path="recovery.enabled")
        acc = _run_ensemble_from_config(cfg, reporter)
        _run_diagnostics(writer, cfg, acc)
        record = recover(acc, cfg.system)
        _write_recovery(writer, cfg, record)
        times, psi = record.t_grid, record.psi
    e_grid, intensity = autocorrelation_spectrum(
        psi, times, window=cfg.recovery.window)
    if "csv" in cfg.output.formats:
        writer.write_csv("spectrum.csv", ["E", "intensity"],
                         [e_grid, intensity])
    reporter.info(f"spectrum complete: {len(e_grid)} energies over "
                  f"[{e_grid[0]:.4g}, {e_grid[-1]:.4g}]")
    return e_grid, intensity


def execute(cfg, subcommand, verbosity=0):
    """Run one subcommand for a validated config; returns the exit status."""
    reporter = _Reporter(verbosity)
    if subcommand == "validate":
        reporter.info("configuration valid")
        return EXIT_OK
    writer = RunWriter(
        directory=cfg.output.directory,
        config_hash=config_digest(cfg),
        master_seed=cfg.ensemble.master_seed,
        code_version=__version__,
        subcommand=subcommand,
    )
    handlers = {
        "run": cmd_run,
        "oracle": cmd_oracle,
        "compare": cmd_compare,
        "spectrum": cmd_spectrum,
    }
    try:
        handlers[subcommand](cfg, writer, reporter)
    except BaseException:
        writer.finalize("incomplete")
        raise
    writer.finalize("complete")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="snbd",
        description="Stochastic one-body unraveling of pairwise-interacting "
                    "quantum N-body dynamics, with an exact desk-scale oracle.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("run", "run the stochastic ensemble and write time series"),
        ("oracle", "run the exact reference propagation"),
        ("compare", "run both and write difference metrics"),
        ("spectrum", "extract the eigenspectrum from the autocorrelation"),
        ("validate", "validate the configuration and exit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override ensemble.master_seed")
        p.add_argument("--workers", type=int, default=None,
                       help="override ensemble.worker_count")
        p.add_argument("--out", default=None,
                       help="override output.directory")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--verbose", action="store_true",
                           help="progress details on stderr")
        group.add_argument("--quiet", action="store_true",
                           help="suppress the summary line")
    return parser


def _collect_overrides(extras):
    overrides = []
    for token in extras:
        if token.startswith("--") and "=" in token:
            dotted, _, value = token[2:].partition("=")
            if dotted and "." in dotted:
                overrides.append((dotted, value))
                continue
        raise ConfigError(
            f"unrecognized argument {token!r}; dotted overrides look like "
            f"--ensemble.M=4000")
    return overrides


def main(argv=None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    verbosity = (1 if args.verbose else 0) - (1 if args.quiet else 0)

    # SIGTERM takes SIGINT's path: KeyboardInterrupt, exit 130
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        overrides = _collect_overrides(extras)
        cfg = parse_config(args.config)
        if overrides or args.seed is not None or args.workers is not None \
                or args.out is not None:
            data = serialize_config(cfg)
            for dotted, value in overrides:
                apply_override(data, dotted, value)
            if args.seed is not None:
                data["ensemble"]["master_seed"] = args.seed
            if args.workers is not None:
                data["ensemble"]["worker_count"] = args.workers
            if args.out is not None:
                data["output"]["directory"] = args.out
            cfg = parse_config_dict(data, source=args.config)
        return execute(cfg, args.subcommand, verbosity)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except SnbdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PositivityViolationError):
            print(
                "note: trajectory densities develop negative eigenvalues at "
                "a rate set by the interaction strength; this is intrinsic "
                "to the stochastic decomposition, not an integrator fault. "
                "Raise ensemble.positivity_tol or set "
                "ensemble.blowup_policy='skip' to proceed.",
                file=sys.stderr)
        return _exit_code(exc)
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
