"""Command-line interface.

Subcommands:
  solve CONFIG    multistart search; writes orbit files and a summary
  ledger CONFIG   sampled inequality checks; writes a ledger report
  export ORBIT    sample an orbit file's trajectory to CSV

Exit codes: 0 success, 1 ledger checks failed, 2 invalid configuration,
orbit file, or environment, or an output path that cannot be written,
3 solve kept no orbits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigInvalid, OrbitactError, OrbitFileInvalid
from .orbitfile import export_trajectory, orbit_payload, save_canonical
from .runconfig import load_config, resolved_dict
from .solver import multistart
from .verify import coercivity_bound, run_inequality_ledger
from .version import __version__

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NO_ORBITS = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID_INPUT


def _audit_coercivity(cfg, result):
    """Check every recorded iterate inside the sublevel {f <= K} against the
    kinetic-energy bound A(K), K being the largest kept action value."""
    if not result.records:
        return None
    K = float(max(r.action_value for r in result.records))
    A = float(coercivity_bound(cfg.spec, K))
    checked = 0
    violations = 0
    for start in result.reports:
        rep = start.report
        inside = rep.ps_trace[:, 0] <= K
        checked += int(inside.sum())
        violations += int((rep.kinetic_trace[inside] > A).sum())
    return {"K": K, "A": A, "iterates_checked": checked, "violations": violations}


def run_solve(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigInvalid as exc:
        return _fail(str(exc))
    # Made before the search, so an unwritable path fails before the work.
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot write {out_dir}: {exc}")
    try:
        result = multistart(
            cfg.spec,
            cfg.winding_classes,
            cfg.starts_per_class,
            cfg.options,
            dim=cfg.dim,
            harmonics=cfg.harmonics,
            n_t=cfg.n_t,
            action_rel_tol=cfg.action_rel_tol,
            path_tol=cfg.path_tol,
            el_residual_tol=cfg.el_residual_tol,
        )
    except OrbitactError as exc:
        return _fail(str(exc))

    resolved = resolved_dict(cfg)
    payloads = {}
    orbit_rows = []
    for index, record in enumerate(result.records):
        name = f"orbit_{index:03d}.json"
        payloads[name] = payload = orbit_payload(record, resolved)
        diagnostics = {k: v for k, v in payload["diagnostics"].items() if k != "kinetic"}
        orbit_rows.append({"file": name, **diagnostics})
    coercivity = _audit_coercivity(cfg, result)
    summary = {
        "format": "orbitact.summary/1",
        "tool_version": __version__,
        "resolved_config": resolved,
        "n_started": result.n_started,
        "n_converged": result.n_converged,
        "n_dropped_unconverged": result.n_dropped_unconverged,
        "n_dropped_residual": result.n_dropped_residual,
        "orbits": orbit_rows,
        "coercivity": coercivity,
    }
    try:
        for name, payload in payloads.items():
            save_canonical(out_dir / name, payload)
        save_canonical(out_dir / "summary.json", summary)
    except OSError as exc:
        return _fail(f"cannot write {out_dir}: {exc}")

    print(
        f"starts: {result.n_started}  converged: {result.n_converged}  "
        f"kept orbits: {len(result.records)}  "
        f"(dropped: {result.n_dropped_unconverged} unconverged, "
        f"{result.n_dropped_residual} residual)"
    )
    for row in orbit_rows:
        print(
            f"{row['file']}: action={row['action']!r} "
            f"winding_seed={row['winding_seed_class']} el_residual={row['el_residual']:.3e}"
        )
    if coercivity is not None:
        print(
            f"coercivity: K={coercivity['K']!r} A={coercivity['A']!r} "
            f"iterates={coercivity['iterates_checked']} violations={coercivity['violations']}"
        )
    print(f"wrote {len(orbit_rows)} orbit file(s) and summary.json to {out_dir}")
    if not result.records:
        print("no orbit passed the convergence and residual filters", file=sys.stderr)
        return EXIT_NO_ORBITS
    return EXIT_OK


def run_ledger(config_path: str, samples: int, seed: int, out: str | None) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigInvalid as exc:
        return _fail(str(exc))
    if samples < 0:
        return _fail("--samples must be >= 0")
    if seed < 0:
        return _fail("--seed must be >= 0")
    # Made before sampling, so an unwritable path fails before the work.
    out_path = Path(out) if out else Path(cfg.output_dir) / "ledger.json"
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}")
    if samples == 0:
        print(
            "warning: 0 samples requested; every check passes vacuously",
            file=sys.stderr,
        )
    report = run_inequality_ledger(cfg.spec, cfg.dim, cfg.harmonics, samples, seed)
    for check in report.checks:
        tag = "PASS" if check.passed else "FAIL"
        print(
            f"[{tag}] {check.name}: samples={check.samples} "
            f"worst_slack={check.worst_slack!r} tol={check.tolerance!r}"
        )
    n_pass = sum(1 for c in report.checks if c.passed)
    print(f"ledger: {'PASS' if report.passed else 'FAIL'} ({n_pass}/{len(report.checks)} checks)")

    payload = {
        "format": "orbitact.ledger/1",
        "tool_version": __version__,
        "resolved_config": resolved_dict(cfg),
    }
    payload.update(report.to_dict())
    try:
        save_canonical(out_path, payload)
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}")
    print(f"wrote {out_path}")
    return EXIT_OK if report.passed else EXIT_CHECKS_FAILED


def run_export(orbit_path: str, samples: int, out: str | None) -> int:
    try:
        target = export_trajectory(orbit_path, out, samples)
    except OrbitFileInvalid as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot write the CSV: {exc}")
    print(f"wrote {target}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitact",
        description="Minimize the action of antiperiodic N-body loops and audit the results.",
    )
    parser.add_argument("--version", action="version", version=f"orbitact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the multistart search for a config")
    p_solve.add_argument("config", help="path to a JSON run configuration")

    p_ledger = sub.add_parser("ledger", help="run the sampled inequality checks")
    p_ledger.add_argument("config", help="path to a JSON run configuration")
    p_ledger.add_argument("--samples", type=int, default=1000, help="samples per check")
    p_ledger.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_ledger.add_argument("--out", default=None, help="report path (default: <output dir>/ledger.json)")

    p_export = sub.add_parser("export", help="sample an orbit file to CSV")
    p_export.add_argument("orbit", help="path to an orbit JSON file")
    p_export.add_argument("--samples", type=int, default=256, help="rows to sample")
    p_export.add_argument("--out", default=None, help="CSV path (default: orbit path with .csv)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return run_solve(args.config)
    if args.command == "ledger":
        return run_ledger(args.config, args.samples, args.seed, args.out)
    if args.command == "export":
        return run_export(args.orbit, args.samples, args.out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
