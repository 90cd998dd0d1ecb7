"""Command-line pipeline: synth | ingest | stats | label | features | select | evaluate.

Subcommands chain through files. Every command echoes its effective
configuration to <out>/config.json, and identical flags always reproduce
byte-identical outputs; all randomness derives from --seed.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path

from .cohort import (
    Cohort,
    CohortError,
    apply_followup_filter,
    apply_inclusion_filters,
    inclusion_mask,
    parse_iso_date,
    read_cohort,
    write_cohort,
)
from .classifiers import Hyperparameters
from .evaluation import (
    cohort_stats,
    run_sweep,
    write_consistency_csv,
    write_results_csv,
    write_stats_csv,
    write_summary_csv,
)
from .features import build_matrix, read_features_csv, write_features_csv
from .labeling import FAR_DAYS_DEFAULT, DiagnosisWindow, Version, label_cohort, write_labels_csv
from .ranges import SOFT_MARGIN_DEFAULT
from .selection import select_top_k, write_ranking_csv
from .synth import GeneratorConfig, generate, read_generator_config, write_generator_config
from .tables import write_json


def _parse_window(text: str) -> DiagnosisWindow:
    try:
        start_raw, end_raw = text.split(":")
        return DiagnosisWindow(int(start_raw), int(end_raw))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window must look like '-60:+30', got {text!r}") from exc


def _parse_versions(text: str) -> tuple[Version, ...]:
    versions = []
    for token in text.split(","):
        token = token.strip().lower()
        try:
            version = Version(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"unknown version {token!r}; expected v1..v6")
        if version not in versions:
            versions.append(version)
    return tuple(versions)


def _echo_config(args, cohort: Cohort | None = None, **effective) -> None:
    """Write <out>/config.json: the command, --out, `effective` and the labeling flags the command parsed.

    With `cohort`, the one the command read, also --in and the data_end_date it resolved.
    """
    out = Path(args.out)
    payload = {"command": args.command, "out": str(out), **effective}
    if cohort is not None:
        payload.update({"in": args.in_dir, "data_end_date": cohort.data_end_date.isoformat()})
    if "window_close" in args:
        payload["window_close"] = [args.window_close.start_offset_days, args.window_close.end_offset_days]
    payload.update({name: getattr(args, name) for name in ("window_far_days", "soft_margin") if name in args})
    write_json(out / "config.json", payload)


def _load_cohort(args) -> Cohort:
    end = None
    if args.data_end_date:
        try:
            end = parse_iso_date(args.data_end_date)
        except ValueError as exc:
            raise ValueError(f"--data-end-date must be a YYYY-MM-DD date, got {args.data_end_date!r}: {exc}") from None
    return read_cohort(args.in_dir, data_end_date=end)


def _add_cohort_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="in_dir", required=True, help="cohort directory (patients.csv, observations.csv)")
    parser.add_argument(
        "--data-end-date", default=None, help="extract end date YYYY-MM-DD (default: meta.json in --in)"
    )


def _add_window_flags(parser: argparse.ArgumentParser, far: bool = True) -> None:
    parser.add_argument("--window-close", type=_parse_window, default=DiagnosisWindow(), help="close window, e.g. -60:+30")
    if far:
        parser.add_argument("--window-far-days", type=int, default=FAR_DAYS_DEFAULT, help="far horizon in days for V3/V6")
    parser.add_argument("--soft-margin", type=float, default=SOFT_MARGIN_DEFAULT, help="soft-range margin fraction")


def _add_hyperparameter_flags(parser: argparse.ArgumentParser) -> None:
    # one flag per field, --tree-max-depth for tree_max_depth, typed by its default
    for field in fields(Hyperparameters):
        parser.add_argument("--" + field.name.replace("_", "-"), type=type(field.default), default=field.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbcsurv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort")
    p_synth.add_argument("--n", type=int, default=None, help="number of patients")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--config", default=None, help="generator config JSON; flags override it")
    p_synth.add_argument("--p-death", default=None, help="G1,G2,G3 two-year mortality, e.g. 0.38,0.46,0.53")
    p_synth.add_argument("--p-oor-risk", type=float, default=None, help="per-observation OOR prob for high-risk patients")
    p_synth.add_argument("--p-oor-norisk", type=float, default=None, help="per-observation OOR prob otherwise")
    p_synth.add_argument("--latent-risk", type=float, default=None, help="latent high-risk prevalence")
    p_synth.add_argument("--window-bias", type=float, default=None, help="prob an OOR result lands in the close window")
    p_synth.add_argument("--sex-delta", type=float, default=None, help="mortality shift: +delta male, -delta female")
    p_synth.add_argument("--female-g3-boost", type=float, default=None)

    p_ingest = sub.add_parser("ingest", help="validate a cohort and report the inclusion filters")
    _add_cohort_input(p_ingest)
    p_ingest.add_argument("--out", required=True)

    p_stats = sub.add_parser("stats", help="history-group vs living-status tables")
    _add_cohort_input(p_stats)
    p_stats.add_argument("--out", required=True)
    _add_window_flags(p_stats, far=False)
    p_stats.add_argument(
        "--pre-filter-stats",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="compute on the pre-panel-filter cohort (default) or only fully filtered patients",
    )

    p_label = sub.add_parser("label", help="emit the six scheme labels per patient-measure")
    _add_cohort_input(p_label)
    p_label.add_argument("--out", required=True)
    _add_window_flags(p_label)

    p_feat = sub.add_parser("features", help="build the deterministic feature matrix")
    _add_cohort_input(p_feat)
    p_feat.add_argument("--out", required=True)
    p_feat.add_argument("--version", type=Version, default=Version.V1, help="labeling scheme v1..v6")
    p_feat.add_argument("--extra-version", type=Version, default=None, help="append a second scheme's columns")
    _add_window_flags(p_feat)

    p_select = sub.add_parser("select", help="rank features by chi-squared")
    p_select.add_argument("--features", required=True, help="features.csv path")
    p_select.add_argument("--k", type=int, default=None, help="selected prefix length (default: all columns)")
    p_select.add_argument("--out", required=True)

    p_eval = sub.add_parser("evaluate", help="run the full cross-validated sweep")
    _add_cohort_input(p_eval)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--jobs", type=int, default=1, help="parallel fold workers; outputs are jobs-independent")
    p_eval.add_argument("--versions", type=_parse_versions, default=tuple(Version), help="comma list, e.g. v1,v4")
    p_eval.add_argument("--k-min", type=int, default=5)
    p_eval.add_argument("--k-max", type=int, default=25)
    _add_window_flags(p_eval)
    _add_hyperparameter_flags(p_eval)

    return parser


# synth flags that replace one GeneratorConfig field as given: flag dest -> field
_SYNTH_OVERRIDES = {
    "n": "n_patients",
    "seed": "seed",
    "latent_risk": "p_latent_high_risk",
    "window_bias": "window_placement_bias",
    "sex_delta": "sex_mortality_delta",
    "female_g3_boost": "female_g3_boost",
}


def _cmd_synth(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = read_generator_config(args.config) if args.config else GeneratorConfig()
    overrides = {name: getattr(args, dest) for dest, name in _SYNTH_OVERRIDES.items() if getattr(args, dest) is not None}
    if args.p_death is not None:
        try:
            g1, g2, g3 = map(float, args.p_death.split(","))
        except ValueError:  # a value that is not a number, or not three values
            raise ValueError(f"--p-death needs three comma-separated probabilities, got {args.p_death!r}") from None
        overrides["p_death_2y_by_group"] = (g1, g2, g3)
    if args.p_oor_risk is not None:
        overrides["p_oor_given_risk"] = dict.fromkeys(config.p_oor_given_risk, args.p_oor_risk)
    if args.p_oor_norisk is not None:
        overrides["p_oor_given_no_risk"] = dict.fromkeys(config.p_oor_given_no_risk, args.p_oor_norisk)
    config = replace(config, **overrides)
    cohort = generate(config)
    out = Path(args.out)
    write_cohort(cohort, out)
    write_generator_config(config, out / "generator_config.json")
    _echo_config(args, generator=config.to_dict())
    print(f"wrote {len(cohort)} patients to {out}")
    return 0


def _cmd_ingest(args) -> int:
    cohort = _load_cohort(args)
    _, report = inclusion_mask(cohort)  # the report only: ingest writes the whole cohort
    out = Path(args.out)
    write_cohort(cohort, out, source=Path(args.in_dir))
    report.write(out / "filter_report.json")
    _echo_config(args, cohort)
    print(
        f"validated {len(cohort)} patients; {report.retained} pass filters "
        f"({report.removed_insufficient_followup} insufficient follow-up, "
        f"{report.removed_incomplete_panel} incomplete panel)"
    )
    return 0


def _cmd_stats(args) -> int:
    cohort = _load_cohort(args)
    if args.pre_filter_stats:
        working = apply_followup_filter(cohort)
    else:
        working, _ = apply_inclusion_filters(cohort)
    rows = cohort_stats(working, window=args.window_close, margin=args.soft_margin)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_stats_csv(rows, out / "stats.csv")
    _echo_config(args, cohort, pre_filter_stats=args.pre_filter_stats)
    print(f"wrote stats for {len(working)} patients to {out / 'stats.csv'}")
    return 0


def _cmd_label(args) -> int:
    cohort = _load_cohort(args)
    filtered, report = apply_inclusion_filters(cohort)
    labels = label_cohort(filtered, args.window_close, args.window_far_days, args.soft_margin)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_labels_csv(filtered, labels, out / "labels.csv")
    report.write(out / "filter_report.json")
    _echo_config(args, cohort)
    print(f"wrote labels for {report.retained} patients to {out / 'labels.csv'}")
    return 0


def _cmd_features(args) -> int:
    cohort = _load_cohort(args)
    filtered, report = apply_inclusion_filters(cohort)
    labels = label_cohort(filtered, args.window_close, args.window_far_days, args.soft_margin)
    matrix = build_matrix(filtered, labels, args.version, args.extra_version)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_features_csv(matrix, out / "features.csv")
    report.write(out / "filter_report.json")
    _echo_config(
        args, cohort, version=args.version.value, extra_version=args.extra_version.value if args.extra_version else None
    )
    print(f"wrote {len(matrix.column_names)}-column matrix for {report.retained} patients")
    return 0


def _cmd_select(args) -> int:
    matrix = read_features_csv(args.features)
    k = args.k if args.k is not None else len(matrix.column_names)
    ranking = select_top_k(matrix, k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ranking_csv(ranking, out / "ranking.csv")
    _echo_config(args, features=args.features, k=k)
    print(f"wrote top-{k} ranking to {out / 'ranking.csv'}")
    return 0


def _cmd_evaluate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    cohort = _load_cohort(args)
    filtered, report = apply_inclusion_filters(cohort)
    if not len(filtered):
        raise ValueError("empty cohort after inclusion filters")
    if args.k_min < 1 or args.k_min > args.k_max:
        raise ValueError(f"invalid k range [{args.k_min}, {args.k_max}]")
    hp = Hyperparameters(**{field.name: getattr(args, field.name) for field in fields(Hyperparameters)})
    sweep = run_sweep(
        filtered,
        versions=args.versions,
        k_values=tuple(range(args.k_min, args.k_max + 1)),
        hp=hp,
        seed=args.seed,
        window=args.window_close,
        far_days=args.window_far_days,
        margin=args.soft_margin,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(sweep, out / "results.csv")
    write_summary_csv(sweep, out / "summary.csv")
    write_consistency_csv(sweep, out / "consistency.csv")
    report.write(out / "filter_report.json")
    _echo_config(
        args,
        cohort,
        seed=args.seed,
        jobs=args.jobs,
        versions=[v.value for v in args.versions],
        k_min=args.k_min,
        k_max=args.k_max,
        hyperparameters=hp.to_dict(),
    )
    best = max(sweep.summary(), key=lambda row: row[3])
    print(
        f"evaluated {sweep.n_patients} patients; majority baseline {sweep.majority_baseline:.3f}; "
        f"best cell {best[0]}/{best[1]}/k={best[2]} mean accuracy {best[3]:.3f}"
    )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "label": _cmd_label,
    "features": _cmd_features,
    "select": _cmd_select,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CohortError, ValueError, OSError, KeyError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
