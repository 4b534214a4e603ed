"""Command-line entry point.

Subcommands: ``simulate`` (run a joint/decoupled experiment or an ablation
grid), ``analyze`` (epsilon sweep and angular statistics of a prototype
file), ``export-kde`` (PCA + planar and angular density CSVs), and
``cluster-stream`` (standalone streaming mixture over a feature file).

Every command accepts ``--seed`` and is bitwise reproducible under it: it
runs under ``cores.one_blas_thread``, and the manifest records the BLAS and
its threads.  ``analyze`` runs the epsilon sweep on the calling thread
while the helper takes angle tasks from the front, and the calling thread
then takes the rest from the back (``cores.from_both_ends``); ``export-kde``
evaluates its angular density in two halves (``cores.in_halves``).
``-v/--log-level`` (before the subcommand) sets which log messages reach
stderr; ``-v info`` shows the mixture's split events.  Exit codes: 0 success,
2 user error, 3 I/O failure, 4 degenerate data, 1 and a traceback otherwise.
A JSON run manifest is written next to the outputs on success and any failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, cores
from .analysis import DegenerateRankError, export_prototype_kde
from .checkpoint import atomic_open, load_matrix, save_checkpoint, write_csv
from .collapse import DEFAULT_EPSILON_GRID, angle_tasks, epsilon_sweep, normalize_rows
from .datagen import run_horizon, shuffled_batches
from .mixture import DegenerateComponentError, GmmConfig, gmm_update, init_mixture
from .settings import ConfigError, config_to_mapping, with_settings
from .simulate import run_experiment, sim_config_from_text

EXIT_OK = 0
EXIT_USER = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4

ABLATION_TOGGLES = ("forgetting", "annealing", "resurrect")


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except KeyError:  # a build that records no BLAS
        vendor = "unknown"
    threads = cores.openblas_threads()
    return {"vendor": vendor,
            "threads": threads[0]() if threads else
            "not pinned: no OpenBLAS thread-count symbol"}


def _write_manifest(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    payload["blas"] = _blas_info()
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _run_with_manifest(manifest_path: Path, info: dict, body) -> int:
    """Run a command body and always write its manifest; other errors re-raise."""
    started = time.time()
    status, error, code, failure = "ok", None, EXIT_OK, None
    outputs: list = []
    try:
        outputs = body()
    except ValueError as err:  # ConfigError and CheckpointError included
        status, error, code = "error", str(err), EXIT_USER
    except (DegenerateRankError, DegenerateComponentError) as err:
        status, error, code = "error", str(err), EXIT_DEGENERATE
    except OSError as err:
        status, error, code = "error", str(err), EXIT_IO
    except Exception as err:  # a bug or a dead worker: re-raised below
        status, error, code, failure = "error", f"{type(err).__name__}: {err}", 1, err
    info.update(
        status=status,
        error=error,
        exit_code=code,
        wall_clock_s=round(time.time() - started, 3),
        outputs=[str(p) for p in outputs],
    )
    try:
        _write_manifest(manifest_path, info)
    except OSError as err:
        print(f"error: cannot write manifest: {err}", file=sys.stderr)
        error, code = None, EXIT_IO
    if failure is not None:
        raise failure
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def _simulate_one(job):
    """Run one ``(config, out_dir)`` job; module-level so process pools can
    pickle it.  Returns only what the manifest reads: the ``gmm.total_steps``
    the run resolved, the telemetry row count and the paths written."""
    config, out_dir = job
    result = run_experiment(config, out_dir=out_dir)
    return (result.state.config.gmm.total_steps, len(result.telemetry),
            [result.telemetry_path, *result.snapshot_paths])


def _check_flags(*checks) -> None:
    """Raise ``ConfigError`` naming the first (flag, value, low) below low."""
    for flag, value, low in checks:
        if value < low:
            raise ConfigError(flag, f"must be at least {low}, got {value}")


def cmd_simulate(args, info: dict) -> list:
    info.update(config_path=str(args.config), grid=bool(args.grid))
    _check_flags(("--workers", args.workers, 1))
    out_dir = Path(args.out)
    runs = [({}, out_dir)]  # (settings, output directory)
    if args.grid:
        combos = itertools.product((False, True), repeat=len(ABLATION_TOGGLES))
        runs = []
        for values in combos:
            toggles = dict(zip(ABLATION_TOGGLES, values))
            name = "_".join(f"{k[:3]}{int(v)}" for k, v in toggles.items())
            runs.append(({f"gmm.{k}": v for k, v in toggles.items()},
                         out_dir / name))
        info["grid_runs"] = [str(run_dir) for _, run_dir in runs]
    # every config is built and checked here, before any worker starts
    config = sim_config_from_text(Path(args.config).read_text())
    if args.seed is not None:
        config = with_settings(config, {"sim.seed": args.seed})
    jobs = [(with_settings(config, toggles), run_dir) for toggles, run_dir in runs]
    results = cores.process_map(_simulate_one, jobs, args.workers)
    # the config the runs share: init_sim resolves gmm.total_steps the same
    # in every run, and a grid run's toggles are spelled by its directory
    horizon, info["epochs_logged"] = results[0][:2]
    info["config"] = {**config_to_mapping(config), "gmm.total_steps": str(horizon)}
    return [path for _, _, paths in results for path in paths]


def _parse_epsilons(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("epsilons", f"not a number list: {text!r}") from None
    if not values:
        raise ConfigError("epsilons", "empty epsilon list")
    return values


def cmd_analyze(args, info: dict) -> list:
    info["protos_path"] = str(args.protos)
    epsilons = _parse_epsilons(args.epsilons)
    protos = normalize_rows(load_matrix(args.protos))
    # both only read the rows, and numpy releases the GIL in their GEMMs and
    # ufuncs, so the sweep and the angle tasks share the two cores
    tasks, merge_angles = angle_tasks(protos) if protos.k >= 2 else ([], None)
    parts, reports = cores.from_both_ends(tasks, lambda: epsilon_sweep(protos, epsilons))
    stats = merge_angles(parts) if merge_angles else None
    out_csv = Path(args.out)
    write_csv(out_csv, ("epsilon", "unique_count", "unique_fraction"),
              ((r.epsilon, r.unique_count, r.unique_fraction) for r in reports))
    outputs = [out_csv]
    info["epsilons"] = epsilons
    info["prototype_count"] = protos.k
    info["unique_counts"] = {str(r.epsilon): r.unique_count for r in reports}
    if stats is not None:
        angles_csv = out_csv.with_name(out_csv.stem + "_angles.csv")
        edges = stats.hist_edges_deg
        write_csv(angles_csv, ("angle_deg", "count"),
                  zip(0.5 * (edges[:-1] + edges[1:]), stats.hist_counts))
        outputs.append(angles_csv)
        info.update(min_angle_deg=stats.min_deg, mean_angle_deg=stats.mean_deg,
                    pairs_used=stats.n_pairs_used, pairs_subsampled=stats.subsampled)
    return outputs


def cmd_export_kde(args, info: dict) -> list:
    info.update(protos_path=str(args.protos), kappa=args.kappa)
    result = export_prototype_kde(load_matrix(args.protos), Path(args.out_prefix),
                                  kappa=args.kappa)
    info["explained_variance"] = list(result["explained_variance"])
    info["bandwidth"] = list(result["bandwidth"])
    return [result["gaussian_csv"], result["vmf_csv"]]


def cmd_cluster_stream(args, info: dict) -> list:
    info.update(features_path=str(args.features), components=args.components,
                batch_size=args.batch_size, epochs=args.epochs)
    _check_flags(("--components", args.components, 1),
                 ("--batch-size", args.batch_size, 1),
                 ("--epochs", args.epochs, 0),
                 ("--seed", args.seed or 0, 0))
    features = load_matrix(args.features)
    horizon = run_horizon(len(features), args.batch_size, args.epochs)
    flags = {k: v for k, v in vars(args).items() if k.startswith("gmm.")}
    config = with_settings(GmmConfig(total_steps=horizon, rng_seed=args.seed or 0),
                           flags)
    info["config"] = config_to_mapping(config)
    state = init_mixture(args.components, features, config,
                         np.random.default_rng([config.rng_seed, 1]))
    ll_rows = []
    for epoch in range(args.epochs):
        order_rng = np.random.default_rng([config.rng_seed, 2, epoch])
        for batch in shuffled_batches(features, args.batch_size, order_rng):
            update = gmm_update(state, batch, config)
            ll_rows.append((state.step, update.log_likelihood()))
            state = update.state
    out_ckpt = Path(args.out)
    save_checkpoint(state, out_ckpt)
    ll_path = Path(str(out_ckpt) + ".loglik.csv")
    write_csv(ll_path, ("step", "avg_loglik"), ll_rows)
    info["final_avg_loglik"] = ll_rows[-1][1] if ll_rows else None
    info["steps"] = state.step
    return [out_ckpt, ll_path]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protostream",
        description="Streaming prototype estimation, collapse diagnostics, "
                    "and joint-vs-decoupled simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="lowest level of log messages printed on stderr "
                             "(default: warning; info shows mixture splits)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run a simulator experiment from a config file")
    p_sim.add_argument("--config", required=True, help="key=value config file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--grid", action="store_true",
                       help="run all 8 mixture-toggle combinations, one "
                            "sub-directory each")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes for --grid; they are "
                            "spawned, so a program that calls cli.main with "
                            "more than 1 needs an if __name__ == '__main__' "
                            "guard")
    p_sim.set_defaults(func=cmd_simulate, manifest=lambda a: Path(a.out) / "manifest.json")

    p_an = sub.add_parser("analyze", parents=[common],
                          help="epsilon sweep and angular stats of a prototype file")
    p_an.add_argument("--protos", required=True,
                      help="checkpoint or CSV prototype matrix")
    p_an.add_argument("--out", required=True, help="output CSV path")
    p_an.add_argument("--epsilons",
                      default=",".join(str(e) for e in DEFAULT_EPSILON_GRID),
                      help="comma-separated, strictly ascending epsilon grid; each "
                           "value 0 or at least (D + 3) * 2**-51, about 3e-14 at D=64")
    p_an.set_defaults(func=cmd_analyze,
                      manifest=lambda a: Path(f"{Path(a.out)}.manifest.json"))

    p_kde = sub.add_parser("export-kde", parents=[common],
                           help="PCA projection and KDE CSV exports")
    p_kde.add_argument("--protos", required=True)
    p_kde.add_argument("--out-prefix", required=True)
    p_kde.add_argument("--kappa", type=float, default=20.0,
                       help="von Mises-Fisher concentration")
    p_kde.set_defaults(func=cmd_export_kde,
                       manifest=lambda a: Path(f"{Path(a.out_prefix)}_manifest.json"))

    p_cs = sub.add_parser("cluster-stream", parents=[common],
                          help="stream a feature file through the mixture")
    p_cs.add_argument("--features", required=True,
                      help="CSV (d0..dN header) or checkpoint feature file")
    p_cs.add_argument("--out", required=True, help="output checkpoint path")
    p_cs.add_argument("--components", "-k", type=int, default=8)
    p_cs.add_argument("--batch-size", type=int, default=64)
    p_cs.add_argument("--epochs", type=int, default=20)
    # each mixture flag stores its value under its settings key, and an
    # omitted one leaves the GmmConfig field's own default in place
    gmm_flag = functools.partial(p_cs.add_argument, default=argparse.SUPPRESS)
    gmm_flag("--eta-start", type=float, dest="gmm.eta.start")
    gmm_flag("--eta-end", type=float, dest="gmm.eta.end")
    gmm_flag("--beta", type=float, dest="gmm.beta")
    gmm_flag("--resurrect-threshold", type=float, dest="gmm.resurrect_threshold")
    gmm_flag("--init-variance", type=float, dest="gmm.init_variance",
             help="initial variance of every component")
    gmm_flag("--no-annealing", action="store_false", dest="gmm.annealing")
    gmm_flag("--no-forgetting", action="store_false", dest="gmm.forgetting")
    gmm_flag("--no-resurrect", action="store_false", dest="gmm.resurrect")
    p_cs.set_defaults(func=cmd_cluster_stream,
                      manifest=lambda a: Path(f"{Path(a.out)}.manifest.json"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the bare message format is what unconfigured logging prints for warnings;
    # basicConfig does nothing once the root logger has a handler, so the
    # package logger's level is what lets records reach a host's handlers
    logging.basicConfig(level=args.log_level.upper(), format="%(message)s")
    logging.getLogger(__package__).setLevel(args.log_level.upper())
    # each subparser sets func, its body, which records its own fields in
    # info and returns the paths it wrote, and manifest, its manifest path
    info = {"command": args.command, "seed": args.seed}
    with cores.one_blas_thread():
        return _run_with_manifest(args.manifest(args), info,
                                  lambda: args.func(args, info))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
