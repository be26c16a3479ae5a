"""Batch driver: finite-size tables and reports as text, CSV, or JSON.

Every subcommand runs a sweep of the corresponding measurement and emits one
row per size (plus an extrapolation row where it applies).  Rows are plain
scalars so the same data serializes to all three formats; JSON reports are
versioned (see ``report_schema.json`` next to this module).

Threading: set ``LOOPCELLS_THREADS`` to bound the BLAS/OpenMP thread count;
it is applied before any numerical library is imported, which is why all
heavy imports in this module are deferred.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

SCHEMA_ID = "loopcells-report/1"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _configure_threads() -> None:
    budget = os.environ.get("LOOPCELLS_THREADS")
    if budget:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, budget)


_configure_threads()


# ---------------------------------------------------------------------------
# Argument handling


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc


def _parse_params(pairs: list[str] | None) -> dict:
    params: dict = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"--model-param needs key=value, got {pair!r}")
        try:
            params[key] = float(value)
        except ValueError:
            try:
                params[key] = complex(value)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"--model-param {key} needs a number, got {value!r}"
                ) from None
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcells",
        description="Jordan cells, logarithmic couplings, and boundary entropies "
        "of lattice loop models and spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, sizes=None, keys=(), tol=False) -> None:
        """One subcommand with the options it reads.

        ``--sizes`` with its default widths for a sweep, ``--model-param``
        with its keys, ``--tol`` if it reads a cluster tolerance.
        """
        p = sub.add_parser(name, help=summary)
        if sizes:
            p.add_argument(
                "--sizes",
                type=_parse_sizes,
                help="comma- or space-separated system widths",
            )
        if keys:
            p.add_argument(
                "--model-param",
                action="append",
                metavar="KEY=VALUE",
                help=f"model parameter override ({', '.join(keys)}); repeatable",
            )
        if tol:
            p.add_argument("--tol", type=float, default=None, help="cluster tolerance override")
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(sizes=sizes, model_param=None, param_keys=keys)

    command("xxz-b", "coupling b of the spin chain", [4, 8, 12], ("q",), tol=True)
    command("polymer-b", "coupling b of dilute polymers", [2, 4, 6, 8, 10], ("x",))
    command("deformed-b", "coupling b of the y-deformed chain", [4, 8], ("y",), tol=True)
    command("percolation-check", "Jordan structure of the geometric chain", [4, 6, 8], tol=True)
    command("ising-entropy", "boundary entropies of the Ising ring", [12, 14, 16, 18])
    command("loop-entropy", "boundary entropy of the dense loop model", [12, 14, 16, 18], ("n", "n1"))
    command("fixtures", "re-verify all embedded reference values")
    return parser


# ---------------------------------------------------------------------------
# Commands (heavy imports deferred so the thread budget is honored)


def _require_sizes(parser: argparse.ArgumentParser, args) -> list[int]:
    """The sweep's widths; none, or a repeated one where no fit reads them, is a usage error."""
    if not args.sizes:
        parser.error("at least one size is required")
    if args.command in ("deformed-b", "percolation-check"):
        try:
            _distinct_widths(args.sizes, fitted=False)
        except ValueError as exc:
            parser.error(str(exc))
    return args.sizes


def _distinct_widths(sizes: list[int], fitted: bool) -> list[int]:
    """``sizes`` as given, refused with ``ValueError`` before any width is solved if one repeats.

    Every sweep solves each width once and prints one row per width; a
    ``fitted`` sweep also extrapolates over its distinct sizes.
    """
    if len(set(sizes)) < len(sizes):
        need = ", and the extrapolation needs three sizes, all distinct" if fitted else ""
        raise ValueError(f"repeated widths: each width is solved once{need}, got {sizes}")
    return sizes


def cmd_xxz_b(args, params: dict) -> list[dict]:
    from . import observables

    kwargs = {}
    if args.tol is not None:
        kwargs["cluster_tol"] = args.tol
    rows = []
    measurements = []
    for L in _distinct_widths(args.sizes, fitted=True):
        m = observables.b_xxz(L, q=params.get("q"), **kwargs)
        measurements.append(m)
        rows.append(_b_row(m, form="spin-bilinear"))
    rows.extend(_extrapolation_row(measurements, "xxz"))
    return rows


def cmd_polymer_b(args, params: dict) -> list[dict]:
    from . import observables

    rows = []
    measurements = []
    for L in _distinct_widths(args.sizes, fitted=True):
        m = observables.b_polymer(L, x=params.get("x"))
        measurements.append(m)
        rows.append(_b_row(m, form="dilute-gram"))
    rows.extend(_extrapolation_row(measurements, "polymer"))
    return rows


def cmd_deformed_b(args, params: dict) -> list[dict]:
    from . import observables

    y = params.get("y", 2.0)
    kwargs = {}
    if args.tol is not None:
        kwargs["cluster_tol"] = args.tol
    rows = []
    for L in args.sizes:
        m = observables.b_deformed(L, y, **kwargs)
        rows.append(_b_row(m, form=f"link-gram(y={y})"))
    return rows


def cmd_percolation_check(args, params: dict) -> list[dict]:
    from . import observables

    kwargs = {}
    if args.tol is not None:
        kwargs["cluster_tol"] = args.tol
    rows = []
    for L in args.sizes:
        report = observables.percolation_check(L, **kwargs)
        row = {
            "L": L,
            "level": f"{report.level.real:+.12g}",
            "cluster_size": report.cluster_size,
            "geometric_multiplicity": report.geometric_multiplicity,
            "nilpotent_norm": report.nilpotent_norm,
            "diagonalizable": "yes" if report.diagonalizable else "no",
        }
        for y, genuine in report.deformed_genuine.items():
            row[f"jordan_cell_y={y:g}"] = "yes" if genuine else "no"
        rows.append(row)
    return rows


def cmd_ising_entropy(args, params: dict) -> list[dict]:
    from . import fixtures, observables

    rows = []
    fits = observables.ising_boundary_entropies(tuple(args.sizes))
    for bc, target in (("fixed", fixtures.ISING_FIXED_ENTROPY), ("free", 0.0)):
        fit = fits[bc]
        rows.append(
            {
                "bc": bc,
                "s": fit.value,
                "uncertainty": fit.uncertainty,
                "target": target,
                "difference": abs(fit.value - target),
                "ansatz": fit.ansatz,
            }
        )
    return rows


def cmd_loop_entropy(args, params: dict) -> list[dict]:
    from . import observables

    n = float(params.get("n", 1.0))
    n1 = float(params.get("n1", 1.0))
    report = observables.loop_boundary_entropy(n, n1, tuple(args.sizes))
    return [
        {
            "n": n,
            "n1": n1,
            "s_lattice": report.fit.value,
            "s_exact": report.exact,
            "difference": report.difference,
            "uncertainty": report.fit.uncertainty,
            "ansatz": report.fit.ansatz,
        }
    ]


def cmd_fixtures(args, params: dict) -> list[dict]:
    rows = []
    for name, ok, detail in run_fixture_checks():
        rows.append({"fixture": name, "status": "ok" if ok else "MISMATCH", "detail": detail})
    if all(row["status"] == "ok" for row in rows):
        rows.append({"fixture": "ALL", "status": "all fixtures pass", "detail": ""})
    return rows


def _b_row(m, form: str) -> dict:
    return {
        "model": m.model,
        "L": m.L,
        "b": m.value,
        "delta": m.delta,
        "gauge_sensitivity": m.gauge_sensitivity,
        "level": f"{m.level.real:+.12g}",
        "convention": m.convention,
        "form": form,
    }


def _extrapolation_row(measurements, model: str) -> list[dict]:
    if len(measurements) < 3:
        return []
    from . import observables

    fit = observables.extrapolate_b(
        [m.L for m in measurements], [m.value for m in measurements]
    )
    return [
        {
            "model": model,
            "L": "inf",
            "b": fit.value,
            "uncertainty": fit.uncertainty,
            "ansatz": fit.ansatz,
            "residual": fit.residual,
        }
    ]


# ---------------------------------------------------------------------------
# Fixture verification


def run_fixture_checks() -> list[tuple[str, bool, str]]:
    """Rebuild every embedded reference object and compare entrywise."""
    import numpy as np

    from . import fixtures as fx
    from . import models, observables, spectral, tl

    results: list[tuple[str, bool, str]] = []

    def check(name: str, built, expected, tol: float = 1e-12, up_to_sign: bool = False):
        built = np.asarray(built)
        expected = np.asarray(expected)
        diff = float(np.max(np.abs(built - expected))) if built.shape == expected.shape else np.inf
        if up_to_sign and built.shape == expected.shape:
            diff = min(diff, float(np.max(np.abs(built + expected))))
        ok = diff <= tol
        results.append((name, ok, f"max deviation {diff:.3g}"))

    H = models.build_xxz(4)[0].toarray()
    check("spin L=4 hamiltonian", H, fx.SPIN_L4_HAMILTONIAN)
    clusters = spectral.full_spectrum(H)
    check(
        "spin L=4 distinct levels",
        np.array([c.value for c in clusters]),
        np.asarray(fx.SPIN_L4_EIGENVALUES, dtype=complex),
        tol=1e-10,
    )
    check(
        "spin L=4 level multiplicities",
        np.array([c.size for c in clusters]),
        np.array([1, 1, 1, 2, 1]),
    )
    _, v0 = spectral.ground_state(H, "min", gram=np.eye(6))
    check("spin L=4 ground state", v0, fx.SPIN_L4_GROUND, tol=1e-10, up_to_sign=True)
    shifted = H - fx.SPIN_L4_JORDAN_LEVEL * np.eye(6)
    check("spin L=4 level-3 eigenvector", shifted @ fx.SPIN_L4_LEVEL3, np.zeros(6))
    check("spin L=4 Jordan partner", shifted @ fx.SPIN_L4_JORDAN_PARTNER, fx.SPIN_L4_LEVEL3)
    check(
        "spin L=4 cell pairing",
        fx.SPIN_L4_LEVEL3 @ fx.SPIN_L4_JORDAN_PARTNER,
        -0.75,
    )
    check(
        "spin L=4 trousers state",
        observables.trousers_xxz(4).vector,
        fx.SPIN_L4_TROUSERS,
        tol=1e-10,
        up_to_sign=True,
    )

    row = models.build_dilute_T(2)
    x = fx.X_CRITICAL
    t2 = row.ket_row.matrix()
    ml2 = row.bra_row.matrix()
    check("dilute L=2 transfer matrix", t2, fx.dilute_T2())
    states = fx.dilute_T2_states()
    lam1 = x**4
    check("dilute L=2 right ground", (t2 - np.eye(3)) @ states["right_ground"], np.zeros(3))
    check(
        "dilute L=2 right cell",
        (t2 - lam1 * np.eye(3)) @ states["right_partner"],
        states["right_level1"],
    )
    check(
        "dilute L=2 right level-1",
        (t2 - lam1 * np.eye(3)) @ states["right_level1"],
        np.zeros(3),
    )
    check("dilute L=2 left ground", (ml2 - np.eye(3)) @ states["left_ground"], np.zeros(3))
    check(
        "dilute L=2 left cell",
        (ml2 - lam1 * np.eye(3)) @ states["left_partner"],
        states["left_level1"],
    )

    for n in (1.0, 0.3):
        check(
            f"open L=4 generators at n={n:g}",
            np.stack([e.toarray() for e in tl.open_generators(4, n)]),
            np.stack(fx.open_L4_generators(n)),
        )
    for y in (2.0, -1.0, 0.5):
        check(
            f"deformed L=4 generators at y={y:g}",
            np.stack([e.toarray() for e in tl.open_generators(4, 1.0, y)]),
            np.stack(fx.deformed_L4_generators(y)),
        )
    for n in (0.3, 2.0):
        p = fx.block_change_of_basis(n)
        check(
            f"block decomposition at n={n:g}",
            np.stack([tl.conjugate(e, p) for e in tl.open_generators(4, n)]),
            np.stack(fx.block_forms(n)),
            tol=1e-10,
        )
    for y in (2.0, -1.0, 0.5):
        p_y = fx.deformed_change_of_basis(y)
        check(
            f"deformed block decomposition at y={y:g}",
            np.stack([tl.conjugate(e, p_y) for e in tl.open_generators(4, 1.0, y)]),
            np.stack(fx.deformed_block_forms()),
            tol=1e-10,
        )

    check("b table entry L=4 (spin)", fx.B_XXZ_L4_EXACT, fx.B_XXZ_TABLE[4], tol=1e-5)
    check(
        "b table entry L=2 (polymer)",
        fx.b_polymer_l2_exact(),
        fx.B_POLYMER_TABLE[2],
        tol=1e-5,
    )
    return results


# ---------------------------------------------------------------------------
# Output


def _emit(rows: list[dict], args, command: str, params: dict) -> None:
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    if args.format == "json":
        payload = {
            "schema": SCHEMA_ID,
            "command": command,
            "params": {k: repr(v) if isinstance(v, complex) else v for k, v in params.items()},
            "sizes": list(args.sizes or []),
            "rows": rows,
        }
        text = json.dumps(payload, indent=2, default=str) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        cells = [[_fmt(row.get(k, ""), k) for k in keys] for row in rows]
        widths = [max(len(k), *(len(c[i]) for c in cells)) if cells else len(k) for i, k in enumerate(keys)]
        lines = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


#: Text-report columns that are rounding noise below 1e-12 and print as ``<1e-12``.
_NOISE_COLUMNS = ("gauge_sensitivity", "residual", "nilpotent_norm")


def _fmt(value, key: str = "") -> str:
    if isinstance(value, float):
        if key in _NOISE_COLUMNS and abs(value) < 1e-12:
            return "<1e-12"
        return f"{value:.8g}"
    return str(value)


_COMMANDS = {
    "xxz-b": cmd_xxz_b,
    "polymer-b": cmd_polymer_b,
    "deformed-b": cmd_deformed_b,
    "percolation-check": cmd_percolation_check,
    "ising-entropy": cmd_ising_entropy,
    "loop-entropy": cmd_loop_entropy,
    "fixtures": cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _parse_params(args.model_param)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    unknown = sorted(set(params) - set(args.param_keys))
    if unknown:
        parser.error(f"{args.command} reads no --model-param {', '.join(unknown)}")
    if args.command != "fixtures":
        _require_sizes(parser, args)
    try:
        rows = _COMMANDS[args.command](args, params)
    except Exception as exc:  # surface pipeline failures as exit 1, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(rows, args, args.command, params)
    if args.command == "fixtures" and any(r["status"] == "MISMATCH" for r in rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
