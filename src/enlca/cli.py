"""Command-line surface for scripted runs of every operation.

Inputs and outputs use the canonical matrix CSV format. Query/key/value
may be given explicitly (used as-is) or derived from a single feature map
with seeded random transforms plus unit-normalization and amplification,
mirroring how the block consumes one input; each input mode refuses the
flags of the other. Flags are spelled in full: no prefix stands for one.

Exit codes: 0 success, 1 usage problem (bad flags, unreadable or
malformed files, out-of-range values, a request larger than memory holds)
or a closed stdout (a reader that quit early, as in `enlca flops |
head -1`; this exit prints nothing), 2 numeric failure (shape mismatch,
overflow). Flag pairings are checked before anything is computed, and
results and files are complete before the first print, so a failed call
prints no partial result.

The base seed is --seed, 0 by default. Stream layout per invocation:
derived transform weights come from stream offset 1, the attention
projection from offset 2. `exact` and `corr-map` with explicit inputs
draw nothing and refuse --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    _aligned_vector,
    approximation_error_sweep,
    consecutive_ratios,
    flop_count,
    flop_table,
    runtime_scaling,
    variance_sweep_k,
    write_sweep_csv,
)
from .contrastive import ContrastiveConfig, contrastive_loss, reconstruction_loss, relevance_scores, total_loss
from .enla import EnlaConfig, block_inputs, enla_forward, enlca_block, random_block_params
from .exact import attention_weights, correlation_map, exact_attention, shannon_entropy
from .features import kernel_variance_empirical
from .matrices import (
    FormatError,
    NumericError,
    RngSpec,
    ShapeError,
    check_settings,
    read_matrix_csv,
    write_matrix_csv,
)
from .pgm import export_correlation_pgm

__all__ = ["main"]


class UsageError(Exception):
    """Invalid invocation: bad flags, unreadable or malformed inputs."""


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # subparsers too: --k is not read as --k-amp
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _load_matrix(path: str) -> np.ndarray:
    try:
        return read_matrix_csv(path)
    except OSError as exc:
        raise UsageError(f"cannot read '{path}': {exc.strerror or exc}") from None
    except FormatError as exc:
        raise FormatError(f"malformed CSV '{path}': {exc}") from None
    except NumericError as exc:
        raise NumericError(f"'{path}': {exc}") from None


def _emit_matrix(a: np.ndarray, out: Optional[str]) -> None:
    write_matrix_csv(a, sys.stdout if out is None else out)


def _parse_list(raw: str, flag: str, kind=int) -> list:
    tokens = raw.split(",")
    if not any(tokens):
        raise UsageError(f"{flag} must name at least one value")
    try:  # an empty entry, as in "4,,8", is not a number either
        return [kind(tok) for tok in tokens]
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated {kind.__name__}s, got {raw!r}") from None


def _refuse(args, mode: str, flags) -> None:
    """UsageError naming the first of `flags` given on the command line
    although `mode` has no use for it; each of them defaults to None."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"{flag} does not apply with {mode}")


def _k_amp(args) -> float:
    """--k-amp, 6 by default: its parser default is None, so modes can refuse it."""
    return 6.0 if args.k_amp is None else args.k_amp


def _base(args) -> RngSpec:
    """The base stream of --seed, 0 by default: its parser default is None,
    so modes that draw nothing can refuse it."""
    return RngSpec(0 if args.seed is None else args.seed)


def _block_params(args, **settings):
    """The --features map and block weights drawn from stream offset 1;
    `settings` are the forward flags the subcommand takes."""
    base = _base(args)
    x = _load_matrix(args.features)
    c_embed = args.c_embed if args.c_embed is not None else min(64, x.shape[0])
    config = EnlaConfig(rng=base.stream(2), k_amp=_k_amp(args), **settings)
    return x, random_block_params(base.stream(1), x.shape[0], c_embed, config)


def _resolve_inputs(args, names, **settings):
    """((q, k, v), config): q, k, v derived from --features as the block
    derives them, or else the matrices given by the flags `names` (q, k
    and, if taken, v) used as given. Each mode refuses the other's flags.
    A subcommand without forward `settings` gets no config from explicit
    inputs, which draw nothing there, and so refuses --seed."""
    flags = [f"--{name}" for name in names]
    if args.features is not None:
        _refuse(args, "--features", flags)
        x, params = _block_params(args, **settings)
        return block_inputs(x, params), params.config
    _refuse(args, f"explicit {'/'.join(flags)}", ("--c-embed", "--k-amp") + (() if settings else ("--seed",)))
    paths = [getattr(args, name) for name in names]
    missing = [flag for flag, path in zip(flags, paths) if path is None]
    if missing:
        raise UsageError(f"give --features or all of {'/'.join(flags)} (missing {', '.join(missing)})")
    config = EnlaConfig(rng=_base(args).stream(2), **settings) if settings else None
    return [_load_matrix(path) for path in paths], config


def _cmd_exact(args) -> int:
    (q, k, v), _ = _resolve_inputs(args, "qkv")
    y = exact_attention(q, k, v)
    if args.weights_out is not None:  # a second oracle pass, the one that holds N_q x N_k
        write_matrix_csv(attention_weights(q, k), args.weights_out)
    _emit_matrix(y, args.out)
    return 0


def _cmd_enla(args) -> int:
    (q, k, v), config = _resolve_inputs(args, "qkv", m=args.m, orthogonal=args.orthogonal)
    _emit_matrix(enla_forward(q, k, v, config), args.out)
    return 0


def _cmd_block(args) -> int:
    x, params = _block_params(args, m=args.m, orthogonal=args.orthogonal)
    _emit_matrix(enlca_block(x, params), args.out)
    return 0


def _cmd_variance(args) -> int:
    u = _aligned_vector(args.c, args.k_amp)
    report = kernel_variance_empirical(u, u, args.m, args.trials, _base(args).stream(2), args.orthogonal)
    print(f"theory {_fmt(report.theoretical)}")
    print(f"empirical {_fmt(report.empirical)}")
    print(f"rel_gap {_fmt(report.rel_gap)}")
    return 0


def _cmd_approx_sweep(args) -> int:
    m_list = _parse_list(args.m_list, "--m-list")
    result = approximation_error_sweep(args.n, args.c, args.cout, m_list, args.k_amp, args.trials,
                                       _base(args))
    write_sweep_csv(result, sys.stdout if args.out is None else args.out)
    return 0


def _cmd_variance_sweep(args) -> int:
    k_list = _parse_list(args.k_list, "--k-list", float)
    result = variance_sweep_k(k_list, args.c, args.m, args.trials, _base(args))
    write_sweep_csv(result, sys.stdout if args.out is None else args.out)
    for k_amp in result.skipped:
        print(f"warning: skipped k_amp={_fmt(k_amp)}: variance beyond float range", file=sys.stderr)
    return 0


def _cmd_flops(args) -> int:
    if args.m is not None and args.method != "enlca":
        check_settings(m=args.m)  # a count below 1 is named as such first
        raise UsageError("--m needs --method enlca")
    if args.method is None:
        rows = flop_table(n=args.n, c=args.c, c_out=args.cout)
        print(f"{'method':<14}{'MACs':>16}{'GFLOPs':>10}")
        for row in rows:
            label = row.method if row.m is None else f"{row.method}-m{row.m}"
            print(f"{label:<14}{row.macs:>16,}{row.gflops:>10.2f}")
        return 0
    print(f"{flop_count(args.method, args.n, args.c, args.cout, args.m).gflops:.2f} GFLOPs")
    return 0


def _cmd_contrastive(args) -> int:
    if (args.sr is None) != (args.hr is None):
        raise UsageError("--sr and --hr come together")
    if args.lambda_cl is not None and args.sr is None:
        raise UsageError("--lambda-cl needs --sr and --hr")
    cfg = ContrastiveConfig(n1=args.n1, n2=args.n2, b=args.b)
    if args.t is not None:
        _refuse(args, "--t", ("--q", "--k", "--k-amp"))
        scores = _load_matrix(args.t)
    elif args.q is not None and args.k is not None:
        scores = relevance_scores(_load_matrix(args.q), _load_matrix(args.k), _k_amp(args))
    else:
        raise UsageError("give --t, or both --q and --k")
    cl = contrastive_loss(scores, cfg)
    lines = [f"contrastive_loss {_fmt(cl)}"]
    if args.sr is not None:
        rec = reconstruction_loss(_load_matrix(args.sr), _load_matrix(args.hr))
        lambda_cl = 1e-3 if args.lambda_cl is None else args.lambda_cl
        lines += [f"reconstruction_loss {_fmt(rec)}",
                  f"total_loss {_fmt(total_loss(rec, cl, lambda_cl))}"]
    print("\n".join(lines))
    return 0


def _cmd_corr_map(args) -> int:
    image = (args.out, args.height, args.width)
    if None in image and image != (None, None, None):
        raise UsageError("--out, --height and --width come together")
    (q, k, *_), _ = _resolve_inputs(args, "qk")
    try:
        cmap = correlation_map(q, k, args.query_index)
    except IndexError as exc:
        raise UsageError(str(exc)) from None
    entropy = shannon_entropy(cmap)
    if args.out is not None:
        export_correlation_pgm(cmap, args.height, args.width, args.out)
    if args.csv_out is not None:
        write_matrix_csv(cmap[None, :], args.csv_out)
    print(f"entropy {_fmt(entropy)}")
    return 0


def _cmd_bench(args) -> int:
    n_list = _parse_list(args.n_list, "--n-list")
    result = runtime_scaling(n_list, args.c, args.cout, args.m, args.repeats, _base(args))
    if args.out is not None:
        write_sweep_csv(result, args.out)
    for label in ("exact", "enla"):
        for n, seconds in zip(result.column("x"), result.column(label)):
            print(f"{label} n={int(n)} seconds={_fmt(seconds)}")
    for label in ("exact", "enla"):
        for n0, n1, ratio in consecutive_ratios(result, label):
            print(f"{label} ratio {int(n0)}->{int(n1)} {_fmt(ratio)}")
    return 0


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base seed (default 0)")


def _add_projection_flags(parser) -> None:
    parser.add_argument("--m", type=int, default=128, help="random sample count")
    parser.add_argument("--orthogonal", action="store_true",
                        help="orthogonalize the projection rows")


def _add_derivation_flags(parser, required: bool = False) -> None:
    parser.add_argument("--features", required=required,
                        help="single feature map CSV; q/k/v are derived")
    parser.add_argument("--c-embed", type=int, default=None, dest="c_embed",
                        help="embedding width for derived q/k (default min(64, c_in))")
    parser.add_argument("--k-amp", type=float, default=None, dest="k_amp",
                        help="amplification factor for derived features (default 6)")


def _add_inputs(parser, *names) -> None:
    for name in names:
        parser.add_argument(f"--{name}", help=f"{name} matrix CSV, used as given")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="enlca", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact quadratic attention")
    _add_inputs(p, "q", "k", "v")
    _add_derivation_flags(p)
    _add_seed(p)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.add_argument("--weights-out", dest="weights_out", help="also write the N_q x N_k weight matrix")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("enla", help="randomized linear-complexity attention")
    _add_inputs(p, "q", "k", "v")
    _add_derivation_flags(p)
    _add_projection_flags(p)
    _add_seed(p)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_enla)

    p = sub.add_parser("block", help="residual attention block over one feature map")
    _add_derivation_flags(p, required=True)
    _add_projection_flags(p)
    _add_seed(p)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("variance", help="estimator variance on amplified aligned vectors")
    p.add_argument("--c", type=int, default=8, help="feature dimension")
    p.add_argument("--trials", type=int, default=10_000)
    _add_projection_flags(p)
    p.add_argument("--k-amp", type=float, default=6.0, dest="k_amp")
    _add_seed(p)
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("approx-sweep", help="oracle error of the randomized forward vs m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, default=8)
    p.add_argument("--cout", type=int, default=8)
    p.add_argument("--m-list", dest="m_list", required=True, help="comma-separated ascending sample counts")
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
    p.add_argument("--m", type=int, default=None, help="sample count (only with --method enlca)")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("contrastive", help="contrastive separation loss")
    p.add_argument("--t", help="relevance matrix CSV (instead of --q/--k)")
    p.add_argument("--q", help="query matrix CSV")
    p.add_argument("--k", help="key matrix CSV")
    p.add_argument("--k-amp", type=float, default=None, dest="k_amp",
                   help="q/k cosine amplification (default 6)")
    p.add_argument("--n1", type=float, default=0.02)
    p.add_argument("--n2", type=float, default=0.08)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--lambda-cl", type=float, default=None, dest="lambda_cl",
                   help="contrastive weight in the total loss (default 0.001)")
    p.add_argument("--sr", help="restored image CSV (with --hr prints the total loss)")
    p.add_argument("--hr", help="reference image CSV")
    p.set_defaults(func=_cmd_contrastive)

    p = sub.add_parser("corr-map", help="correlation map of one query position")
    _add_inputs(p, "q", "k")
    _add_derivation_flags(p)
    _add_seed(p)
    p.add_argument("--query-index", type=int, default=0, dest="query_index")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--out", help="PGM image path (with --height/--width)")
    p.add_argument("--csv-out", dest="csv_out", help="also write the raw map as a 1 x N CSV")
    p.set_defaults(func=_cmd_corr_map)

    p = sub.add_parser("bench", help="wall-clock scaling of exact vs randomized attention")
    p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated ascending input sizes")
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
    # ShapeError (exit 2) and FormatError (exit 1) are both ValueErrors: order matters.
    except (ShapeError, NumericError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # sizes past what the machine holds are out-of-range values
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
