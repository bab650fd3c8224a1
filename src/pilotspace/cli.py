"""Command-line surface: pilot design, CRB evaluation, experiment reproduction.

Commands
--------
design                 build the optimal observation matrix for a model
crb                    evaluate the CRB of a (model, theta, M) triple
identify               identifiability verdict only
experiment single-path reproduce the single-path bound curves (CSV)
experiment multipath   reproduce the Monte-Carlo multipath curves (CSV)

Exit codes: 0 success (a non-identifiable CRB is an answer, not a
failure); 1 I/O, parse and value errors (run config, ``--seed -1``, a
non-finite ``--sigma2``/``--power``, ``--report`` without ``--output``);
2 rank-deficient variation space in ``design``, and argparse usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import fileio
from .crb import NoiseModel, check_identifiability, crb_min, crb_via_variation_space
from .experiments import DrawError, ExperimentConfig, run_multipath, run_single_path
from .models import (
    UlaGeometry,
    angle_constrained_model,
    estimated_variation_space,
    ls_model,
    physical_model,
)
from .pilot import design_observation_matrix, verify_optimality_certificates
from .rlinalg import RankDeficientError
from .variation import canonical_decompose, variation_space

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def load_run_config(path, seed_override=None):
    """Parse a run-configuration JSON file; ``ExperimentConfig`` checks the
    values, and its message gets the path prefixed."""
    try:
        doc = fileio.read_json(path)
    except ValueError as err:       # invalid JSON; the message names the file
        raise ConfigError(str(err)) from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "schema_version" not in doc:
        raise ConfigError(f"{path}: missing required key 'schema_version'")
    if doc["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema_version {doc['schema_version']} "
            f"(expected {CONFIG_SCHEMA_VERSION})"
        )
    unknown_top = set(doc) - {"schema_version", "experiment"}
    if unknown_top:
        raise ConfigError(f"{path}: unknown top-level key(s) {sorted(unknown_top)}")
    section = doc.get("experiment", {})
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: 'experiment' must be an object")
    unknown = set(section) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown experiment key(s) {sorted(unknown)}")
    if seed_override is not None:
        section = {**section, "seed": seed_override}
    try:
        return ExperimentConfig(**section)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_azimuths_deg(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"cannot parse azimuth list '{text}': {err}") from err
    if not values:
        raise ConfigError("azimuth list is empty")
    return np.radians(values)


def _model_from_args(args, n_params_hint=None):
    """Build (model, design_basis_factory) from CLI model flags."""
    geom = UlaGeometry(args.nt)
    if args.model == "ls":
        model = ls_model(args.nt)
        basis = lambda: variation_space(model, np.zeros(model.n_params))
        return model, basis
    if args.azimuths is None:
        if args.model == "physical" and n_params_hint is not None:
            if n_params_hint % 3 != 0:
                raise ConfigError(
                    f"theta length {n_params_hint} is not a multiple of 3"
                )
            model = physical_model(geom, n_params_hint // 3)
            return model, None
        raise ConfigError(f"--azimuths is required for model '{args.model}'")
    azimuths = _parse_azimuths_deg(args.azimuths)
    if args.model == "physical":
        model = physical_model(geom, azimuths.shape[0])
        basis = lambda: estimated_variation_space(geom, azimuths)
        return model, basis
    if args.model == "angle-constrained":
        model = angle_constrained_model(geom, azimuths)
        basis = lambda: variation_space(model, np.zeros(model.n_params))
        return model, basis
    raise ConfigError(f"unknown model '{args.model}'")


def cmd_design(args):
    if args.report and not args.output:
        raise ConfigError("--report needs --output (without it the design goes to stdout)")
    _, basis_factory = _model_from_args(args)
    basis = basis_factory()
    decomp = canonical_decompose(basis)
    design = design_observation_matrix(decomp, args.power, sigma2=args.sigma2)
    certs = verify_optimality_certificates(design)
    ref = crb_min(decomp.c, decomp.n_params, NoiseModel(args.sigma2), args.power)
    report = {
        "model": args.model,
        "n_antennas": args.nt,
        "n_params": decomp.n_params,
        "n_columns": design.n_columns,
        "power": args.power,
        "sigma2": args.sigma2,
        "c": [float(v) for v in decomp.c],
        "epsilon": decomp.epsilon,
        "C": design.C_norm,
        "achieved_crb": design.achieved_crb,
        "crb_min": ref.value,
        "crb_min_lower_bound": ref.lower_bound,
        "crb_min_upper_bound": ref.upper_bound,
        "column_powers": [float(v) for v in certs["column_powers"]],
        "column_powers_expected": [float(v) for v in certs["column_powers_expected"]],
        "certificates": {
            "diagonal_residual": certs["diagonal_residual"],
            "dk_residual": certs["dk_residual"],
            "total_power": certs["total_power"],
        },
    }
    if args.output:
        fileio.write_matrix(args.output, design.M)
        report_path = args.report or _derived_report_path(args.output)
        fileio.write_json(report_path, report)
        print(f"wrote {args.output} and {report_path}", file=sys.stderr)
    else:
        json.dump(
            {"matrix": fileio.matrix_to_json_obj(design.M), "report": report},
            sys.stdout,
            indent=1,
        )
        print()
    return 0


def _derived_report_path(matrix_path):
    if matrix_path.endswith(".json"):
        return matrix_path[: -len(".json")] + ".report.json"
    return matrix_path + ".report.json"


def _load_theta(path):
    values = fileio.read_json(path)
    if not isinstance(values, list) or not all(map(fileio.is_number, values)):
        raise ConfigError(f"{path}: theta must be a JSON array of numbers")
    if not all(map(fileio.finite_number, values)):
        raise ConfigError(
            f"{path}: theta has non-finite entries (NaN, Infinity or beyond double range)"
        )
    return np.asarray(values, dtype=float)


def _crb_payload(args):
    M = fileio.read_matrix(args.m)
    theta = None
    if args.theta is not None:
        theta = _load_theta(args.theta)
    model, basis_factory = _model_from_args(
        args, n_params_hint=None if theta is None else theta.shape[0]
    )
    if M.shape[0] != model.n_dims:
        raise ConfigError(
            f"{args.m}: M has {M.shape[0]} rows, but the model's ambient "
            f"dimension is {model.n_dims}"
        )
    if theta is not None:
        if theta.shape[0] != model.n_params:
            raise ConfigError(
                f"theta has length {theta.shape[0]}, model expects {model.n_params}"
            )
        basis = variation_space(model, theta)
    elif basis_factory is not None:
        basis = basis_factory()
    else:
        raise ConfigError("--theta is required for this model")
    report = crb_via_variation_space(basis, M, NoiseModel(args.sigma2))
    verdict = check_identifiability(basis, M)
    payload = {
        "crb": "inf" if math.isinf(report.value) else report.value,
        "identifiable": report.identifiable,
        "min_eig": report.min_eig_compression,
        "nm_required": verdict.n_obs_required,
        "nm_given": verdict.n_obs_given,
    }
    return payload, verdict


def cmd_crb(args):
    payload, _ = _crb_payload(args)
    json.dump(payload, sys.stdout, indent=1)
    print()
    return 0


def cmd_identify(args):
    payload, verdict = _crb_payload(args)
    del payload["crb"]
    payload["message"] = verdict.message
    json.dump(payload, sys.stdout, indent=1)
    print()
    return 0


def cmd_experiment(args):
    config = load_run_config(args.config, seed_override=args.seed)
    if args.kind == "single-path":
        table = run_single_path(config)
    else:
        try:
            table, info = run_multipath(config)
        except DrawError as err:
            raise ConfigError(f"{args.config}: {err}") from err
        print(f"redraws: {info['redraws']}", file=sys.stderr)
    if args.output:
        fileio.write_curve_table(args.output, table)
        print(f"wrote {args.output}", file=sys.stderr)
        if args.plot_script:
            with open(args.plot_script, "w") as fh:
                fh.write(fileio.gnuplot_script(args.output, table))
            print(f"wrote {args.plot_script}", file=sys.stderr)
    else:
        sys.stdout.write(fileio.curve_table_csv(table))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pilotspace",
        description="Cramer-Rao bounds and optimal minimal-length pilot design "
        "for parametric channel models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", required=True,
                       choices=["ls", "physical", "angle-constrained"])
        p.add_argument("--nt", type=int, required=True, help="number of antennas")
        p.add_argument("--azimuths",
                       help="comma-separated azimuths in degrees (physical / "
                            "angle-constrained models)")
        p.add_argument("--sigma2", type=float, default=1.0, help="noise variance")

    p_design = sub.add_parser("design", help="build the optimal observation matrix")
    add_model_flags(p_design)
    p_design.add_argument("--power", type=float, required=True,
                          help="observation power ||M||_F^2")
    p_design.add_argument("--output", help="matrix JSON path (stdout if omitted)")
    p_design.add_argument("--report", help="report JSON path "
                          "(default: derived from --output)")
    p_design.set_defaults(func=cmd_design)

    for name, func in (("crb", cmd_crb), ("identify", cmd_identify)):
        p = sub.add_parser(name, help=f"{name} of a (model, theta, M) triple")
        add_model_flags(p)
        p.add_argument("--theta", help="JSON array file of parameter values")
        p.add_argument("--m", required=True, help="observation matrix JSON file")
        p.set_defaults(func=func)

    p_exp = sub.add_parser("experiment", help="reproduce bound-comparison curves")
    p_exp.add_argument("kind", choices=["single-path", "multipath"])
    p_exp.add_argument("--config", required=True, help="run configuration JSON")
    p_exp.add_argument("--output", help="CSV output path (stdout if omitted)")
    p_exp.add_argument("--seed", type=int,
                       help="override the config seed (nonnegative)")
    p_exp.add_argument("--plot-script",
                       help="also write a gnuplot script to this path")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankDeficientError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:     # ConfigError, invalid files
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
