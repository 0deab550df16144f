"""Command-line surface for scripted runs of every operation.

Inputs and outputs use the canonical matrix CSV format. Query/key/value
may be given explicitly (used as-is) or derived from a single feature map
with seeded random transforms plus unit-normalization and amplification,
mirroring how the block consumes one input.

Exit codes: 0 success, 1 usage problem (bad flags, unreadable or
malformed files) or a closed stdout (a reader that quit early, as in
`enlca flops | head -1`; this exit prints nothing), 2 numeric failure
(shape mismatch, overflow).

The default seed is 0, overridable through the ENLCA_SEED environment
variable; an explicit --seed always wins. Stream layout per invocation:
derived transform weights come from stream offset 1, the attention
projection from offset 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    approximation_error_sweep,
    consecutive_ratios,
    flop_count,
    flop_table,
    runtime_scaling,
    variance_sweep_k,
    write_sweep_csv,
)
from .contrastive import ContrastiveConfig, contrastive_loss, reconstruction_loss, relevance_scores, total_loss
from .enla import EnlaConfig, enla_forward, enlca_block, normalize_and_scale, random_block_params
from .exact import correlation_map, exact_attention, shannon_entropy
from .features import kernel_variance_empirical, phi, sample_projection
from .matrices import (
    FormatError,
    NumericError,
    RngSpec,
    ShapeError,
    read_matrix_csv,
    write_matrix_csv,
)
from .pgm import export_correlation_pgm

__all__ = ["main"]

SEED_ENV_VAR = "ENLCA_SEED"


class UsageError(Exception):
    """Invalid invocation: bad flags, unreadable or malformed inputs."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must hold an integer, got {raw!r}") from None


def _load_matrix(path: str) -> np.ndarray:
    try:
        return read_matrix_csv(path)
    except OSError as exc:
        raise UsageError(f"cannot read '{path}': {exc.strerror or exc}") from None
    except FormatError as exc:
        raise FormatError(f"malformed CSV '{path}': {exc}") from None


def _emit_matrix(a: np.ndarray, out: Optional[str]) -> None:
    if out is None:
        write_matrix_csv(a, sys.stdout)
    else:
        write_matrix_csv(a, out)


def _parse_list(raw: str, flag: str, kind=int) -> list:
    try:
        values = [kind(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated {kind.__name__}s, got {raw!r}") from None
    if not values:
        raise UsageError(f"{flag} must name at least one value")
    return values


def _enla_config(args, base: RngSpec) -> EnlaConfig:
    """Forward settings from the shared flags; the projection stream is offset 2."""
    return EnlaConfig(
        rng=base.stream(2),
        m=args.m,
        k_amp=args.k_amp,
        orthogonal=args.orthogonal,
        epsilon=args.epsilon,
    )


def _derived_maps(args, base: RngSpec):
    """q, k, v from a single feature map via seeded random transforms."""
    x = _load_matrix(args.features)
    c_in = x.shape[0]
    c_embed = args.c_embed if args.c_embed is not None else min(64, c_in)
    config = _enla_config(args, base)
    params = random_block_params(base.stream(1), c_in, c_embed, config)
    q, k = normalize_and_scale(params.w_theta.T @ x, params.w_delta.T @ x, config.k_amp, config.epsilon)
    v = params.w_psi.T @ x
    return q, k, v, config, params, x


def _resolve_qkv(args, base: RngSpec):
    if args.features is not None:
        q, k, v, config, _, _ = _derived_maps(args, base)
        return q, k, v, config
    missing = [flag for flag, val in (("--q", args.q), ("--k", args.k), ("--v", args.v)) if val is None]
    if missing:
        raise UsageError(f"give --features or all of --q/--k/--v (missing {', '.join(missing)})")
    return _load_matrix(args.q), _load_matrix(args.k), _load_matrix(args.v), _enla_config(args, base)


def _cmd_exact(args) -> int:
    base = RngSpec(_resolve_seed(args))
    q, k, v, _ = _resolve_qkv(args, base)
    result = exact_attention(q, k, v, keep_weights=args.weights_out is not None)
    _emit_matrix(result.y, args.out)
    if args.weights_out is not None:
        write_matrix_csv(result.weights, args.weights_out)
    return 0


def _cmd_enla(args) -> int:
    base = RngSpec(_resolve_seed(args))
    q, k, v, config = _resolve_qkv(args, base)
    _emit_matrix(enla_forward(q, k, v, config), args.out)
    return 0


def _cmd_block(args) -> int:
    base = RngSpec(_resolve_seed(args))
    if args.features is None:
        raise UsageError("block derives everything from one input: give --features")
    _, _, _, _, params, x = _derived_maps(args, base)
    _emit_matrix(enlca_block(x, params), args.out)
    return 0


def _cmd_phi(args) -> int:
    base = RngSpec(_resolve_seed(args))
    u = _load_matrix(args.input)
    projection = sample_projection(base.stream(2), args.m, u.shape[0], args.orthogonal)
    features = phi(projection, u)
    write_matrix_csv(features.values, args.out)
    print(f"log_shift {_fmt(features.log_shift)}")
    return 0


def _cmd_variance(args) -> int:
    base = RngSpec(_resolve_seed(args))
    u = np.zeros(args.c)
    u[0] = np.sqrt(args.k_amp)
    report = kernel_variance_empirical(u, u, args.m, args.trials, base.stream(2), args.orthogonal)
    print(f"theory {_fmt(report.theoretical)}")
    print(f"empirical {_fmt(report.empirical)}")
    print(f"rel_gap {_fmt(report.rel_gap)}")
    return 0


def _cmd_approx_sweep(args) -> int:
    base = RngSpec(_resolve_seed(args))
    m_list = _parse_list(args.m_list, "--m-list")
    result = approximation_error_sweep(
        args.n, args.c, args.cout, m_list, args.k_amp, args.trials, base
    )
    write_sweep_csv(result, sys.stdout if args.out is None else args.out)
    return 0


def _cmd_variance_sweep(args) -> int:
    base = RngSpec(_resolve_seed(args))
    k_list = _parse_list(args.k_list, "--k-list", float)
    result = variance_sweep_k(k_list, args.c, args.m, args.trials, base)
    write_sweep_csv(result, sys.stdout if args.out is None else args.out)
    return 0


def _cmd_flops(args) -> int:
    if args.method is None:
        print(f"{'method':<14}{'MACs':>16}{'GFLOPs':>10}")
        for row in flop_table(n=args.n, c=args.c, c_out=args.cout):
            label = row.method if row.m is None else f"{row.method}-m{row.m}"
            print(f"{label:<14}{row.macs:>16,}{row.gflops:>10.2f}")
        return 0
    try:
        model = flop_count(args.method, args.n, args.c, args.cout, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"{model.gflops:.2f} GFLOPs")
    return 0


def _cmd_contrastive(args) -> int:
    cfg = ContrastiveConfig(n1=args.n1, n2=args.n2, b=args.b)
    if args.t is not None:
        scores = _load_matrix(args.t)
    elif args.q is not None and args.k is not None:
        scores = relevance_scores(_load_matrix(args.q), _load_matrix(args.k), args.k_amp)
    else:
        raise UsageError("give --t, or both --q and --k")
    cl = contrastive_loss(scores, cfg)
    print(f"contrastive_loss {_fmt(cl)}")
    if (args.sr is None) != (args.hr is None):
        raise UsageError("--sr and --hr come together")
    if args.sr is not None:
        rec = reconstruction_loss(_load_matrix(args.sr), _load_matrix(args.hr))
        print(f"reconstruction_loss {_fmt(rec)}")
        print(f"total_loss {_fmt(total_loss(rec, cl, args.lambda_cl))}")
    return 0


def _cmd_corr_map(args) -> int:
    base = RngSpec(_resolve_seed(args))
    if args.features is not None:
        q, k, _, _, _, _ = _derived_maps(args, base)
    elif args.q is not None and args.k is not None:
        q, k = _load_matrix(args.q), _load_matrix(args.k)
    else:
        raise UsageError("give --features, or both --q and --k")
    cmap = correlation_map(q, k, args.query_index)
    print(f"entropy {_fmt(shannon_entropy(cmap))}")
    if args.out is not None:
        if args.height is None or args.width is None:
            raise UsageError("--out needs --height and --width to shape the image")
        export_correlation_pgm(cmap, args.height, args.width, args.out)
    if args.csv_out is not None:
        write_matrix_csv(cmap[None, :], args.csv_out)
    return 0


def _cmd_bench(args) -> int:
    base = RngSpec(_resolve_seed(args))
    n_list = _parse_list(args.n_list, "--n-list")
    result = runtime_scaling(n_list, args.c, args.cout, args.m, args.repeats, base)
    for label in ("exact", "enla"):
        for n, seconds in zip(result.column("x"), result.column(label)):
            print(f"{label} n={int(n)} seconds={_fmt(seconds)}")
    for label in ("exact", "enla"):
        for n0, n1, ratio in consecutive_ratios(result, label):
            print(f"{label} ratio {int(n0)}->{int(n1)} {_fmt(ratio)}")
    if args.out is not None:
        write_sweep_csv(result, args.out)
    return 0


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed (default: ${SEED_ENV_VAR} or 0)")


def _add_enla_flags(parser) -> None:
    parser.add_argument("--m", type=int, default=128, help="random sample count")
    parser.add_argument("--k-amp", type=float, default=6.0, dest="k_amp",
                        help="amplification factor for derived features")
    parser.add_argument("--orthogonal", action="store_true",
                        help="orthogonalize the projection rows")
    parser.add_argument("--epsilon", type=float, default=1e-12,
                        help="normalizer / column-norm floor")


def _add_qkv_inputs(parser) -> None:
    parser.add_argument("--q", help="query matrix CSV (used as-is)")
    parser.add_argument("--k", help="key matrix CSV (used as-is)")
    parser.add_argument("--v", help="value matrix CSV")
    parser.add_argument("--features", help="single feature map CSV; q/k/v are derived")
    parser.add_argument("--c-embed", type=int, default=None, dest="c_embed",
                        help="embedding width for derived q/k (default min(64, c_in))")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="enlca", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact quadratic attention")
    _add_qkv_inputs(p)
    _add_enla_flags(p)
    _add_seed(p)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.add_argument("--weights-out", dest="weights_out", help="also write the N x N weight matrix")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("enla", help="randomized linear-complexity attention")
    _add_qkv_inputs(p)
    _add_enla_flags(p)
    _add_seed(p)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_enla)

    p = sub.add_parser("block", help="residual attention block over one feature map")
    _add_qkv_inputs(p)
    _add_enla_flags(p)
    _add_seed(p)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("phi", help="apply the positive feature map to a matrix")
    p.add_argument("--input", required=True, help="input matrix CSV (c x N)")
    _add_enla_flags(p)
    _add_seed(p)
    p.add_argument("--out", required=True,
                   help="stabilized feature CSV; exact features = out * exp(log_shift)")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("variance", help="estimator variance on amplified aligned vectors")
    p.add_argument("--c", type=int, default=8, help="feature dimension")
    p.add_argument("--trials", type=int, default=10_000)
    _add_enla_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("approx-sweep", help="oracle error of the randomized forward vs m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--cout", type=int, default=8)
    p.add_argument("--m-list", dest="m_list", required=True, help="comma-separated sample counts")
    p.add_argument("--k-amp", type=float, default=6.0, dest="k_amp")
    p.add_argument("--trials", type=int, default=8)
    _add_seed(p)
    p.add_argument("--out", help="sweep CSV (default stdout)")
    p.set_defaults(func=_cmd_approx_sweep)

    p = sub.add_parser("variance-sweep", help="estimator variance vs amplification, theory and measurement")
    p.add_argument("--k-list", dest="k_list", default="1,2,4,6,8",
                   help="comma-separated ascending amplification factors")
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--trials", type=int, default=20_000)
    _add_seed(p)
    p.add_argument("--out", help="sweep CSV (default stdout)")
    p.set_defaults(func=_cmd_variance_sweep)

    p = sub.add_parser("flops", help="multiply-accumulate cost model")
    p.add_argument("--method", choices=("nla", "enlca", "conv3x3"),
                   help="one method (default: the whole comparison table)")
    p.add_argument("--n", type=int, default=10_000, help="spatial size (default 100x100)")
    p.add_argument("--c", type=int, default=64)
    p.add_argument("--cout", type=int, default=64)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("contrastive", help="contrastive separation loss")
    p.add_argument("--t", help="relevance matrix CSV (skips q/k)")
    p.add_argument("--q", help="query matrix CSV")
    p.add_argument("--k", help="key matrix CSV")
    p.add_argument("--k-amp", type=float, default=6.0, dest="k_amp")
    p.add_argument("--n1", type=float, default=0.02)
    p.add_argument("--n2", type=float, default=0.08)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--lambda-cl", type=float, default=1e-3, dest="lambda_cl")
    p.add_argument("--sr", help="restored image CSV (with --hr prints the total loss)")
    p.add_argument("--hr", help="reference image CSV")
    p.set_defaults(func=_cmd_contrastive)

    p = sub.add_parser("corr-map", help="correlation map of one query position")
    _add_qkv_inputs(p)
    _add_enla_flags(p)
    _add_seed(p)
    p.add_argument("--query-index", type=int, default=0, dest="query_index")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--out", help="PGM image path (needs --height/--width)")
    p.add_argument("--csv-out", dest="csv_out", help="also write the raw map as a 1 x N CSV")
    p.set_defaults(func=_cmd_corr_map)

    p = sub.add_parser("bench", help="wall-clock scaling of exact vs randomized attention")
    p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated input sizes")
    p.add_argument("--c", type=int, default=16)
    p.add_argument("--cout", type=int, default=16)
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--repeats", type=int, default=3)
    _add_seed(p)
    p.add_argument("--out", help="timing CSV")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so that the flush at
        # interpreter exit does not raise again and print a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ShapeError, NumericError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
