"""Command-line interface.

Subcommands: ``fit`` (one model from a config), ``experiment`` (full
protocol), ``diagnose`` (verification suites), ``emit`` (re-render
tables from a saved report). Exit codes: 0 success, 1 configuration
error, 2 data error, 3 numerical failure. A usage error (a missing or
unknown option, a bad option value, an unknown command) is a
configuration error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys

import click

from .errors import ConfigError, DataError, NumericalError
from .experiment import (ExperimentConfig, emit_tables, read_json, run_diagnose,
                         run_experiment, run_fit, write_json_atomic)

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


@contextlib.contextmanager
def _exit_codes():
    # Every failure's exit code. Click's own usage-error code, 2, is the
    # data-error code here.
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG
        raise
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


class _Main(click.Group):
    # The CLI's only error boundary: these two methods parse the group's
    # arguments, resolve the command, parse its arguments and run it.

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _load_config(path, seed=None, out=None) -> ExperimentConfig:
    # replace re-runs the config's validation on the overridden values.
    overrides = {k: v for k, v in (("seed", seed), ("out", out)) if v is not None}
    return dataclasses.replace(ExperimentConfig.from_json(path), **overrides)


@click.group(cls=_Main)
def main():
    """Kernel-weight learning for ridge regression."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Config file (JSON).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
def fit(config_path, seed, out):
    """Fit a single model and write its summary."""
    cfg = _load_config(config_path, seed=seed, out=out)
    summary = run_fit(cfg)
    if cfg.out:
        path = write_json_atomic(summary, os.path.join(cfg.out, "fit.json"))
        click.echo(path)
    else:
        click.echo(json.dumps({"converged": summary.get("converged"),
                               "objective": summary.get("objective")}))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Config file (JSON).")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
def experiment(config_path, seed, out):
    """Run the full cross-validated experiment protocol."""
    cfg = _load_config(config_path, seed=seed, out=out)
    report = run_experiment(cfg)
    if cfg.out:
        click.echo(os.path.join(cfg.out, "report.json"))
    else:
        for method, entry in report["methods"].items():
            click.echo(f"{method}: mean={entry['mean']} std={entry['std']}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Diagnose config (JSON).")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
def diagnose(config_path, out):
    """Run the numerical verification suites."""
    result = run_diagnose(read_json(config_path, ConfigError, "config"))
    if out:
        path = write_json_atomic(result, os.path.join(out, "diagnose.json"))
        click.echo(path)
    else:
        click.echo(json.dumps({k: "ok" for k in result}))


@main.command()
@click.option("--report", "report_path", required=True, type=click.Path(), help="Saved report JSON.")
@click.option("--out", type=click.Path(), required=True, help="Output directory.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def emit(report_path, out, fmt):
    """Re-render metric tables from a saved report."""
    written = emit_tables(read_json(report_path, DataError, "report"), out, fmt=fmt)
    for name, path in written.items():
        click.echo(f"{name}: {path}")


if __name__ == "__main__":
    main()
