"""Command-line entry points for end-to-end experiments.

Subcommands: cohort, pipeline, enroll, verify, roc, report. Every command
takes --config (a JSON path or builtin:<name>), writes into --out, and is
fully deterministic for a fixed config: identical reruns produce byte
identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 insufficient data,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import metrics, pipeline
from ._artifacts import write_json
from .auth import (VerifyPolicy, append_audit, calibrate_drift_offset, load_templates,
                   save_templates, score_step, verify_series)
from .config import SUMMARY, _read_json, load_experiment
from .errors import ConfigurationError, InsufficientDataError, IntegrationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _plan(args):
    return pipeline.RunPlan(load_experiment(args.config, seed_override=args.seed_override))


def cmd_cohort(args) -> int:
    paths = pipeline.write_cohort_artifacts(_plan(args), args.out)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    plan = _plan(args)
    cfg, result = plan.config, pipeline.run_pipeline(plan)
    out_csv = os.path.join(args.out, "outputs.csv")
    feat_csv = os.path.join(args.out, "features.csv")
    pipeline.write_outputs_csv(out_csv, result)
    pipeline.write_features_csv(feat_csv, result)
    manifest = {
        "config_hash": cfg.config_hash,
        "params_hash": cfg.params_hash,
        "n_individuals": len(result.profiles),
        "steps": plan.schedule.steps,
        "channels": [ch.name for ch in plan.channels],
        "n_outputs": plan.grouping.n_outputs,
    }
    mpath = os.path.join(args.out, "pipeline_manifest.json")
    write_json(mpath, manifest)
    for p in (out_csv, feat_csv, mpath):
        print(f"wrote {p}")
    return EXIT_OK


def cmd_enroll(args) -> int:
    plan = _plan(args)
    pipeline.check_registration_fits(plan)
    templates = pipeline.enroll_templates(pipeline.run_pipeline(plan), plan.auth)
    path = os.path.join(args.out, "templates.json")
    save_templates(path, templates, config_hash=plan.config.config_hash,
                   params_hash=plan.config.params_hash)
    print(f"wrote {path} ({len(templates)} templates)")
    return EXIT_OK


def cmd_verify(args) -> int:
    plan = _plan(args)
    pipeline.check_registration_fits(plan)
    if args.templates:  # one template of the plan's S outputs per member, before integration
        loaded = load_templates(args.templates)
        for idx, tpl in enumerate(loaded):
            if tpl.dim != plan.grouping.n_outputs:
                raise ConfigurationError(f"{args.templates}[{idx}]: template dimension "
                                         f"{tpl.dim} != {plan.grouping.n_outputs} outputs")
        templates = {t.user_id: t for t in loaded}
        missing = [m for *_, ids in plan.groups for m in ids if m not in templates]
        if missing:
            raise ConfigurationError(f"{args.templates}: no template for {missing[0]}")
    result, auth = pipeline.run_pipeline(plan), plan.auth
    if not args.templates:
        templates = {t.user_id: t for t in pipeline.enroll_templates(result, auth)}
    k_reg = auth["k_reg"]
    audit_rows = []
    for i, profile in enumerate(result.profiles):
        tpl = templates[profile.id]
        reg_scores = [score_step(tpl, y) for y in result.outputs[i, :k_reg]]
        policy = VerifyPolicy(accept_thr=auth["accept_thr"], reject_thr=auth["reject_thr"],
                              drift_offset=calibrate_drift_offset(reg_scores, auth["drift_margin"]))
        decision = verify_series(tpl, result.outputs[i, k_reg:], policy)
        last_t = result.timestamps[k_reg + decision.steps_read - 1] if decision.steps_read else 0.0
        audit_rows.append((last_t, profile.id, decision.statistic, decision.verdict))
        print(f"{profile.id}: {decision.verdict} (statistic {decision.statistic:.3f})")
    path = os.path.join(args.out, "audit.csv")
    append_audit(path, audit_rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_roc(args) -> int:
    plan = _plan(args)
    summary, curves, _ = pipeline.run_auth_eval(plan)
    for label, curve in curves.items():
        path = os.path.join(args.out, f"roc_{label}.csv")
        metrics.write_roc_csv(path, curve, config_hash=plan.config.config_hash)
        print(f"wrote {path}")
    spath = os.path.join(args.out, "summary.json")
    metrics.write_summary_json(spath, summary)
    print(f"wrote {spath}")
    print(f"k1 AUC={summary['k1']['auc']:.4f} EER={summary['k1']['eer']:.4f} | "
          f"accumulated AUC={summary['accumulated']['auc']:.4f} "
          f"EER={summary['accumulated']['eer']:.4f}")
    return EXIT_OK


def cmd_report(args) -> int:
    """Aggregate summary.json files under --out into a single report."""
    found = []
    for root, _, files in os.walk(args.out):
        for name in sorted(files):
            if name == "summary.json":
                path = os.path.join(root, name)
                found.append({"path": path, "summary": _read_json(path, SUMMARY)})
    if not found:
        raise InsufficientDataError(f"no summary.json files under {args.out}")
    report = {"n_experiments": len(found), "experiments": found}
    path = os.path.join(args.out, "report.json")
    write_json(path, report)
    for item in found:
        s = item["summary"]
        print(f"{s.get('experiment', '?')}: mode={s.get('mode')} "
              f"k1 AUC={s['k1']['auc']:.4f} EER={s['k1']['eer']:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sweatauth",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {
        "cohort": (cmd_cohort, "generate cohort CSVs and a manifest"),
        "pipeline": (cmd_pipeline, "run the full pipeline to output streams"),
        "enroll": (cmd_enroll, "enroll per-individual templates"),
        "verify": (cmd_verify, "verify continuation streams against templates"),
        "roc": (cmd_roc, "run the authentication evaluation (ROC/AUC/EER)"),
        "report": (cmd_report, "aggregate summaries under --out"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name != "report":
            p.add_argument("--config", required=True,
                           help="experiment JSON path or builtin:<name>")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed-override", type=int, default=None,
                       help="rewrite all cohort seeds from this master seed")
        # runs are single-threaded; the option stays so callers passing 1 still parse
        p.add_argument("--jobs", type=int, choices=[1], default=1, help=argparse.SUPPRESS)
        if name == "verify":
            p.add_argument("--templates", default=None,
                           help="reuse templates.json from a previous enroll run")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
