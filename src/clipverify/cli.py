"""Command line front end: verify one property of one network.

Loads a model and a property from JSON, runs branch and bound with the
requested clipping configuration, prints a machine-readable report to
stdout and exits 0 (verified), 1 (falsified), 2 (unknown), 3 (usage or
input errors, or an --output file that cannot be written) or 4
(disagreement with the exhaustive oracle when --oracle-check is given).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bab import BabConfig, run_bab
from .crown import AlphaPolicy
from .network import ModelFormatError, canonicalize, load_model, load_property
from .oracle import FEAS_TOL, BudgetError, exact_verify


def parse_alpha(text: str) -> AlphaPolicy:
    """Parse an --alpha value: 'root', 'adaptive', 'fixed' or 'fixed:V'
    with V in [0,1]."""
    if text == "root":
        return AlphaPolicy.root()
    if text == "adaptive":
        return AlphaPolicy.adaptive()
    if text == "fixed":
        return AlphaPolicy.fixed()
    if text.startswith("fixed:"):
        try:
            return AlphaPolicy.fixed(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"expected 'root', 'adaptive', 'fixed' or 'fixed:V', got {text!r}"
    )


def format_alpha(alpha: AlphaPolicy) -> str:
    """The --alpha value of ``alpha``."""
    return f"fixed:{alpha.value!r}" if alpha.kind == "fixed" else alpha.kind


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clipverify",
        description="Verify that every property row is nonnegative over the input box.",
    )
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--property", required=True, help="property JSON file")
    parser.add_argument("--mode", choices=("input", "activation"), default="input",
                        help="branching strategy (default: input)")
    parser.add_argument("--clip", choices=("none", "relaxed", "complete", "both"),
                        default="both", help="constraint handling (default: both)")
    parser.add_argument("--batch", type=int, default=16,
                        help="subdomains popped per round; their children, at most twice "
                             "this, are bounded together in one pass.  A round with more than "
                             "half this many splits each once; one with fewer splits (bisects "
                             "or pins) deeper, into at most this many (default: 16)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="wall-clock budget in seconds (default: 60)")
    parser.add_argument("--alpha", type=parse_alpha, default=AlphaPolicy.root(),
                        help="lower ReLU slope policy: root (the adaptive rule on the root "
                             "box's intervals, for the whole search), adaptive, fixed or "
                             "fixed:V (default: root)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the falsification sampler (default: 0)")
    parser.add_argument("--oracle-check", action="store_true",
                        help="cross-check the verdict against exhaustive enumeration")
    parser.add_argument("--output", default=None, help="also write the report here")
    return parser


def _json_safe(value):
    """Recursively convert to JSON types; non-finite floats become null."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def build_report(outcome, args, time_s: float) -> dict:
    """Assemble the run report with a stable field order."""
    return _json_safe(
        {
            "status": outcome.status,
            "bound": outcome.bound,
            "counterexample": outcome.counterexample,
            "value": outcome.value,
            "stats": {
                "domains_visited": outcome.stats.domains_visited,
                "max_depth": outcome.stats.max_depth,
                "bound_history": outcome.stats.bound_history,
            },
            "time_s": time_s,
            "config": {
                "model": args.model,
                "property": args.property,
                "mode": args.mode,
                "clip": args.clip,
                "batch": args.batch,
                "timeout": args.timeout,
                "alpha": format_alpha(args.alpha),
                "seed": args.seed,
            },
        }
    )


def emit_report(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, allow_nan=False)
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into this tool's usage-error code.
        return 0 if not exc.code else 3

    try:
        model = load_model(args.model)
        prop = load_property(args.property)
        problem = canonicalize(model, prop)
    except (OSError, ModelFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        cfg = BabConfig(
            mode=args.mode,
            clip=args.clip,
            batch=args.batch,
            timeout=args.timeout,
            alpha=args.alpha,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    outcome = run_bab(problem, cfg)
    report = build_report(outcome, args, outcome.stats.wall_time)
    try:
        emit_report(report, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    code = {"verified": 0, "falsified": 1, "unknown": 2}[outcome.status]
    if args.oracle_check:
        code = _oracle_check(problem, outcome, code)
    return code


def _oracle_check(problem, outcome, code: int) -> int:
    """Compare the verdict against exhaustive enumeration where affordable."""
    try:
        exact = exact_verify(problem)
    except BudgetError as exc:
        print(f"oracle check skipped: {exc}", file=sys.stderr)
        return code
    omin = exact.min_value
    # The enumeration accepts vertices up to FEAS_TOL outside a cell, so a
    # minimum of exactly 0 can come back slightly negative.
    if outcome.status == "verified" and omin < -FEAS_TOL:
        print(
            f"oracle mismatch: verified but exhaustive minimum is {omin!r}",
            file=sys.stderr,
        )
        return 4
    if outcome.status == "falsified" and omin >= 0.0:
        print(
            f"oracle mismatch: falsified but exhaustive minimum is {omin!r}",
            file=sys.stderr,
        )
        return 4
    print(f"oracle check passed: exhaustive minimum {omin!r}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
