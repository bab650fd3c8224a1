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
non-finite ``--sigma2``/``--power``, ``--report`` or ``--plot-script``
without ``--output``, ``--report`` or ``--plot-script`` naming the
``--output`` file, ``--azimuths`` with ``--theta`` for ``--model physical``,
``--azimuths`` for ``--model ls``;
``design`` and ``experiment`` leave none of their files when one cannot
be written);
2 rank-deficient variation space in ``design``, ``crb`` or ``identify``,
and argparse usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
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
from .rlinalg import RankDeficientError, finite_number, is_number
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
    version = doc["schema_version"]
    if type(version) is not int or version != CONFIG_SCHEMA_VERSION:    # not true, not 1.0
        raise ConfigError(
            f"{path}: unsupported schema_version {version!r} (expected {CONFIG_SCHEMA_VERSION})"
        )
    unknown_top = set(doc) - {"schema_version", "experiment"}
    if unknown_top:
        raise ConfigError(f"{path}: unknown top-level key(s) {sorted(unknown_top)}")
    section = doc.get("experiment", {})
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: 'experiment' must be an object")
    unknown = set(section) - set(ExperimentConfig._fields)
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
    return np.radians(values)


def _variation_basis(args, theta=None, M=None):
    """``RBasis`` of the model flags' variation space: at ``theta`` (zeros
    for the linear models), or for ``physical`` without it, estimated from
    ``--azimuths``.  ``physical`` takes its azimuths from one of the two,
    never both, and ``ls`` takes none.  ``M``'s row count is checked
    against ``--nt`` after the flags and before any basis is built.  A
    model is built only where its variation space is the answer: not for
    ``physical`` with ``--azimuths``.
    """
    geom = UlaGeometry(args.nt)
    model = None
    if args.model == "physical" and theta is not None:
        if args.azimuths is not None:
            raise ConfigError("--azimuths and --theta both give the azimuths of "
                              "model 'physical': pass one of them")
        if theta.shape[0] % 3 != 0:
            raise ConfigError(f"theta length {theta.shape[0]} is not a multiple of 3")
        model = physical_model(geom, theta.shape[0] // 3)
    elif args.model == "ls":
        if args.azimuths is not None:
            raise ConfigError("--azimuths does not apply to model 'ls', whose "
                              "variation space has no azimuths: drop it")
        model = ls_model(args.nt)
    elif args.azimuths is None:
        raise ConfigError(f"--azimuths is required for model '{args.model}'")
    else:
        azimuths = _parse_azimuths_deg(args.azimuths)
        if args.model != "physical":
            model = angle_constrained_model(geom, azimuths)
    if M is not None and M.shape[0] != args.nt:
        raise ConfigError(
            f"{args.m}: M has {M.shape[0]} rows, but the model's ambient "
            f"dimension is {args.nt}"
        )
    if model is None:
        return estimated_variation_space(geom, azimuths)
    return variation_space(model, np.zeros(model.n_params) if theta is None else theta)


def _write_all(*outputs):
    """Run each ``write(path, obj)`` in order, all or nothing: when one
    raises OSError, the files already written are removed."""
    written = []
    try:
        for write, path, obj in outputs:
            write(path, obj)
            written.append(path)
    except OSError:
        for path in written:
            os.remove(path)
        raise


def _check_side_file(flag, path, output, what):
    """Refuse the side file ``path`` of option ``flag`` without an
    ``--output`` (``what`` then goes to stdout) or when it names the
    ``--output`` file."""
    if path and not output:
        raise ConfigError(f"{flag} needs --output (without it {what} goes to stdout)")
    if path and _same_file(path, output):
        raise ConfigError(f"{flag} {path} and --output {output} name the same file")


def cmd_design(args):
    report_path = args.report or (_derived_report_path(args.output) if args.output else None)
    _check_side_file("--report", report_path, args.output, "the design")
    decomp = canonical_decompose(_variation_basis(args))
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
        _write_all((fileio.write_matrix, args.output, design.M),
                   (fileio.write_json, report_path, report))
        print(f"wrote {args.output} and {report_path}", file=sys.stderr)
    else:
        sys.stdout.write(fileio.json_text({"matrix": fileio.matrix_to_json_obj(design.M),
                                           "report": report}))
    return 0


def _same_file(a, b):
    """Whether two paths name one file: equal once symlinks are resolved,
    or two existing links to one inode (hard links)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _derived_report_path(matrix_path):
    if matrix_path.endswith(".json"):
        return matrix_path[: -len(".json")] + ".report.json"
    return matrix_path + ".report.json"


def _load_theta(path):
    values = fileio.read_json(path)
    if not isinstance(values, list) or not all(map(is_number, values)):
        raise ConfigError(f"{path}: theta must be a JSON array of numbers")
    if not all(map(finite_number, values)):
        raise ConfigError(
            f"{path}: theta has non-finite entries (NaN, Infinity or beyond double range)"
        )
    return np.asarray(values, dtype=float)


def _crb_inputs(args):
    """(basis, M, noise) of ``crb`` or ``identify`` (which checks
    ``--sigma2`` too, though its verdict does not use it)."""
    M = fileio.read_matrix(args.m)
    theta = None if args.theta is None else _load_theta(args.theta)
    basis = _variation_basis(args, theta, M)
    return basis, M, NoiseModel(args.sigma2)


def cmd_crb(args):
    basis, M, noise = _crb_inputs(args)
    report = crb_via_variation_space(basis, M, noise)
    sys.stdout.write(fileio.json_text({
        "crb": "inf" if math.isinf(report.value) else report.value,
        "identifiable": report.identifiable,
        "min_eig": report.min_eig_compression,
        "nm_required": math.ceil(basis.dim / 2),
        "nm_given": M.shape[1],
    }))
    return 0


def cmd_identify(args):
    basis, M, _ = _crb_inputs(args)
    verdict = check_identifiability(basis, M)
    sys.stdout.write(fileio.json_text({
        "identifiable": verdict.identifiable,
        "min_eig": verdict.min_eig,
        "nm_required": verdict.n_obs_required,
        "nm_given": verdict.n_obs_given,
        "message": verdict.message,
    }))
    return 0


def cmd_experiment(args):
    _check_side_file("--plot-script", args.plot_script, args.output, "the CSV")
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
        outputs = [(fileio.write_curve_table, args.output, table)]
        if args.plot_script:
            outputs.append((fileio.write_text, args.plot_script,
                            fileio.gnuplot_script(args.output, table)))
        _write_all(*outputs)
        for _, path, _ in outputs:
            print(f"wrote {path}", file=sys.stderr)
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
                            "angle-constrained models); a list that starts "
                            "with a negative value needs the = form: "
                            "--azimuths=-30,5,41")
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
