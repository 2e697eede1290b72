"""Command-line entry points.

Four subcommands: ``iou`` evaluates a single box pair, ``gradcheck`` runs the
finite-difference and bound audits, ``assign`` dumps the label assignment for
a scene file, and ``fit`` runs the gradient-descent harness from a config
file. Exit codes: 0 on success, 1 when a requested check fails or a fit
diverges, 2 for malformed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assignment import assign_dcla
from .geometry import Box3D, _check_volume, mc_iou_oracle, rotated_iou_exact, rwiou
from .gradients import gradient_bound_audit, gradient_check
from .harness import DivergenceError, PlacementError, load_scene, run_fit_config

_BOX_FIELDS = ("x", "y", "z", "l", "w", "h", "yaw")


class CliError(Exception):
    """Invalid command-line input; rendered on stderr with exit code 2."""


def _parse_box(text: str, label: str) -> Box3D:
    parts = text.split(",")
    if len(parts) != 7:
        raise CliError(
            f"{label}: expected 7 comma-separated values "
            f"({','.join(_BOX_FIELDS)}), got {len(parts)}"
        )
    values = []
    for field, part in zip(_BOX_FIELDS, parts):
        try:
            values.append(float(part))
        except ValueError:
            raise CliError(
                f"{label}: field '{field}' is not a number: {part.strip()!r}"
            ) from None
    try:
        box = Box3D(*values)
        _check_volume(box)
    except ValueError as exc:
        raise CliError(f"{label}: {exc}") from None
    return box


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise CliError(f"--seed must be >= 0, got {seed}")


def _load_json(path: str, label: str) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise CliError(f"{label}: cannot read {path}: {exc.strerror}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{label}: {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{label}: {path} must contain a JSON object")
    return data


def _cmd_iou(args: argparse.Namespace) -> int:
    box1 = _parse_box(args.box1, "box1")
    box2 = _parse_box(args.box2, "box2")
    if not 0.0 <= args.alpha <= 1.0:
        raise CliError(f"--alpha must lie in [0, 1], got {args.alpha}")
    if args.mode == "rwiou":
        value = rwiou(box1, box2, alpha=args.alpha)
        print(f"rwiou {value:.6f}")
    elif args.mode == "mc":
        if args.samples < 10_000:
            raise CliError(f"--samples must be >= 10000 for mc, got {args.samples}")
        _check_seed(args.seed)
        estimate = mc_iou_oracle(
            box1, box2, n_samples=args.samples, seed=args.seed
        )
        print(f"mc {estimate.value:.6f} stderr {estimate.stderr:.6f}")
    else:
        value = rotated_iou_exact(box1, box2)
        print(f"exact {value:.6f}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.samples < 100:
        raise CliError(f"--samples must be >= 100, got {args.samples}")
    _check_seed(args.seed)
    if not 0.0 <= args.alpha <= 1.0:
        raise CliError(f"--alpha must lie in [0, 1], got {args.alpha}")
    check = gradient_check(n_samples=args.samples, seed=args.seed, alpha=args.alpha)
    audit = gradient_bound_audit(
        n_samples=args.samples, seed=args.seed, alpha=args.alpha
    )
    payload = {
        "finite_difference": check.to_json_dict(),
        "bound_audit": audit.to_json_dict(),
        "passed": check.passed and audit.passed,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload["passed"] else 1


def _cmd_assign(args: argparse.Namespace) -> int:
    scene = _load_json(args.scene, "scene")
    if args.r < 0:
        raise CliError(f"--r must be >= 0, got {args.r}")
    try:
        grid, gts, preds = load_scene(scene, r=args.r)
        result = assign_dcla(grid, gts, preds, r=args.r)
    except ValueError as exc:
        raise CliError(f"scene: {exc}") from None
    payload = result.to_json_dict()
    payload["grid"] = grid.to_json_dict()
    payload["n_ground_truths"] = len(gts)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    config = _load_json(args.config, "config")
    try:
        aggregate = run_fit_config(config, out_dir=args.out)
    except (ValueError, PlacementError) as exc:
        # Messages about the config's own keys already name it.
        raise CliError(f"config: {str(exc).removeprefix('config: ')}") from None
    except OSError as exc:
        raise CliError(f"output: {exc}") from None
    except DivergenceError as exc:
        print(f"fit diverged: {exc}", file=sys.stderr)
        return 1
    print(
        f"fit complete: {len(aggregate['seeds'])} seeds, "
        f"mean final IoU {aggregate['mean_final_iou']:.4f}, "
        f"worst seed mean {aggregate['min_seed_mean']:.4f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevbox",
        description="Oriented-box overlap, label assignment, and fitting tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iou = sub.add_parser("iou", help="overlap between two boxes")
    p_iou.add_argument("box1", help="comma-separated x,y,z,l,w,h,yaw")
    p_iou.add_argument("box2", help="comma-separated x,y,z,l,w,h,yaw")
    p_iou.add_argument("--alpha", type=float, default=0.5,
                       help="rotation weight strength for --rwiou")
    mode = p_iou.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const",
                      const="exact", help="exact rotated IoU (default)")
    mode.add_argument("--rwiou", dest="mode", action="store_const",
                      const="rwiou", help="rotation-weighted IoU")
    mode.add_argument("--mc", dest="mode", action="store_const",
                      const="mc", help="Monte Carlo estimate")
    p_iou.set_defaults(mode="exact")
    p_iou.add_argument("--samples", type=int, default=200_000,
                       help="sample count for --mc")
    p_iou.add_argument("--seed", type=int, default=0, help="seed for --mc")
    p_iou.set_defaults(func=_cmd_iou)

    p_grad = sub.add_parser(
        "gradcheck", help="finite-difference and bound audit of the gradients"
    )
    p_grad.add_argument("--samples", type=int, default=1000)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--alpha", type=float, default=0.5)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_assign = sub.add_parser("assign", help="label assignment for a scene file")
    p_assign.add_argument("scene", help="path to a scene JSON file")
    p_assign.add_argument("--r", type=int, default=1, help="cross radius")
    p_assign.set_defaults(func=_cmd_assign)

    p_fit = sub.add_parser("fit", help="gradient-descent fit from a config file")
    p_fit.add_argument("config", help="path to a fit configuration JSON file")
    p_fit.add_argument("--out", default=None,
                       help="output directory override for CSV and JSON reports")
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
