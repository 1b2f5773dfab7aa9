"""Command-line front end: simulate, probe, reduce, plan."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .attacks import reduce_gba_to_bba
from .bench import ATTACK_KINDS, ExperimentConfig, FailedCellError, read_column, run_experiment
from .filters import attacker_count
from .mechanism import Budget
from .protocol import ConfigurationError, GroupFilterInput, dap_plan


def _parse_dataset(text: str) -> dict:
    """Dataset spec from ``beta:a,b,n`` or ``csv:path[:column[:lo:hi]]``;
    any other text raises ConfigurationError naming ``--dataset``."""
    kind, _, rest = text.partition(":")
    parts = rest.split(":")
    try:
        if kind == "beta":
            a, b, n = rest.split(",")
            return {"type": "beta", "a": float(a), "b": float(b), "n": int(n)}
        if kind == "csv" and len(parts) in (1, 2, 4):
            spec = {"type": "csv", "path": parts[0]}
            if len(parts) > 1:
                spec["column"] = parts[1]
            if len(parts) > 3:
                spec["clip"] = [float(parts[2]), float(parts[3])]
            return spec
    except ValueError:
        pass
    raise ConfigurationError(
        f"--dataset must be beta:a,b,n or csv:path[:column[:lo:hi]], got {text!r}"
    )


def _parse_numbers(flag: str, text: str) -> list[float]:
    """Comma-separated numbers; any other text raises ConfigurationError naming ``flag``."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"{flag} must be a comma-separated list of numbers, got {text!r}"
        ) from None


# Defaults of the simulate flags that no ExperimentConfig field declares; a
# left-out flag that sets a field takes ExperimentConfig's default.
_FLAG_DEFAULTS = {"dataset": "beta:2,5,100000", "eps": "1.0"}


def _cmd_simulate(args) -> int:
    # The simulate parser leaves out every flag not given, so ``flags`` holds
    # exactly the simulate flags on the command line.
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    out = flags.pop("out", None)
    if "config" in flags:
        path = flags.pop("config")
        if flags:
            given = ", ".join(f"--{k}" for k in sorted(flags))
            raise ConfigurationError(
                f"--config takes no other simulate flag than --out, got {given}"
            )
        cfg = ExperimentConfig.from_file(path)
        if out:
            cfg.out = out
    else:
        flags = _FLAG_DEFAULTS | flags
        attack = {"kind": flags.pop("dist")} if "dist" in flags else {}
        if "range" in flags:
            text = flags.pop("range")
            ends = text.split(":")
            if len(ends) != 2:
                raise ConfigurationError(f"--range must have the form lo:hi, got {text!r}")
            attack |= {"lo": ends[0], "hi": ends[1]}
        if "schemes" in flags:
            flags["schemes"] = flags["schemes"].split(",")
        cfg = ExperimentConfig(
            dataset=_parse_dataset(flags.pop("dataset")),
            eps_list=_parse_numbers("--eps", flags.pop("eps")),
            out=out,
            **flags,
        )
        # A given --dist or --range replaces the config's attack; --range
        # alone keeps its kind.  Either way the kind's factory checks the keys.
        if attack:
            cfg.attack = {"kind": cfg.attack["kind"]} | attack
        if not cfg.gamma > 0:
            cfg.attack = {"kind": "none"}
    result = run_experiment(cfg)  # writes the outputs when cfg.out is set
    if cfg.out:
        from pathlib import Path

        csv_path = Path(cfg.out)
        print(f"wrote {csv_path} and {csv_path.with_suffix('.json')}")
    for eps in cfg.eps_list:
        for scheme in cfg.schemes:
            print(f"mse scheme={scheme} eps={eps:g}: {result.cell_mse(scheme, eps):.6g}")
    failed = result.failed_cells()
    if failed:
        cells = ", ".join(f"scheme={scheme} eps={eps:g}" for scheme, eps in failed)
        raise FailedCellError(f"every trial failed in {cells}")
    return 0


def _cmd_probe(args) -> int:
    # Reports are already perturbed values; read them raw, no normalization.
    reports = read_column(args.reports, args.column)
    group = GroupFilterInput.from_reports(reports, Budget(args.eps))
    gamma_hat = group.probe.winning_pair.poison_mass
    print(
        json.dumps(
            {
                "side": group.probe.side,
                "gamma_hat": gamma_hat,
                "m_hat": attacker_count(gamma_hat, group.counts.n_reports),
                "var_left": group.probe.var_left,
                "var_right": group.probe.var_right,
                "n_reports": group.counts.n_reports,
            },
            indent=2,
        )
    )
    return 0


def _cmd_reduce(args) -> int:
    if args.values_file:
        values = read_column(args.values_file, 0)
    else:
        values = np.array(_parse_numbers("--values", args.values))
    reduced = reduce_gba_to_bba(values, args.ref)
    print(
        json.dumps(
            {
                "input_count": int(values.size),
                "output_count": int(reduced.size),
                "deviation_sum": float(np.sum(values - args.ref)),
                "reduced_deviation_sum": float(np.sum(reduced - args.ref)),
                "reduced_values": reduced.tolist(),
            },
            indent=2,
        )
    )
    return 0


def _cmd_plan(args) -> int:
    rng = np.random.default_rng(args.seed)
    plan = dap_plan(args.n, args.eps, args.eps0, rng)
    print(f"h={plan.h}")
    for t in range(plan.h):
        size = plan.group_members(t).size
        print(
            f"group {t}: eps={plan.budgets[t]:g} users={size} "
            f"reports_per_user={plan.reports_per_user[t]} "
            f"expected_reports={plan.expected_reports(t)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dapmean", description="LDP mean estimation under poisoning")
    sub = p.add_subparsers(dest="command", required=True)

    # A flag left out is absent from the parsed namespace, not set to a
    # default: _cmd_simulate tells given flags from the rest that way.
    sim = sub.add_parser(
        "simulate",
        help="run a full defense-vs-attack experiment",
        argument_default=argparse.SUPPRESS,
    )
    sim.add_argument("--config", help="JSON config file (no other flag but --out)")
    sim.add_argument("--dataset", help="beta:a,b,n or csv:path[:column[:lo:hi]]")
    sim.add_argument("--eps", help="comma-separated budget list")
    sim.add_argument("--eps0", type=float)
    sim.add_argument("--gamma", type=float)
    sim.add_argument("--range", help="poison range lo:hi (exprs in C, O)")
    sim.add_argument("--dist", choices=list(ATTACK_KINDS))
    sim.add_argument("--schemes")
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--workers", type=int)
    sim.add_argument("--out", help="output CSV path (JSON summary written alongside)")
    sim.set_defaults(func=_cmd_simulate)

    probe = sub.add_parser("probe", help="probe attacker features from a CSV of reports")
    probe.add_argument("--reports", required=True)
    probe.add_argument("--column", default="0")
    probe.add_argument("--eps", type=float, required=True)
    probe.set_defaults(func=_cmd_probe)

    red = sub.add_parser("reduce", help="merge a two-sided trace into a one-sided one")
    source = red.add_mutually_exclusive_group(required=True)
    source.add_argument("--values", help="comma-separated values")
    source.add_argument("--values-file", help="CSV file, one value per line (a header is skipped)")
    red.add_argument("--ref", type=float, default=0.0)
    red.set_defaults(func=_cmd_reduce)

    plan = sub.add_parser("plan", help="print the group plan for given budgets")
    plan.add_argument("--eps", type=float, required=True)
    plan.add_argument("--eps0", type=float, required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--seed", type=int, default=0)
    plan.set_defaults(func=_cmd_plan)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
