"""``python -m repro.service`` — boot the chase service.

Also installed as the ``repro-serve`` console script.  Knobs mirror the
service defaults: bind address, hard atom and round ceilings, the default
per-request wall envelope, and the default storage backend.
"""

from __future__ import annotations

import argparse

from repro.service.session import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_ROUNDS,
    DEFAULT_WALL_SECONDS,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve chase sessions with incremental resume over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--max-atoms",
        type=int,
        default=DEFAULT_MAX_ATOMS,
        help="hard per-session instance ceiling",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=DEFAULT_MAX_ROUNDS,
        help="hard per-session round ceiling",
    )
    parser.add_argument(
        "--wall-seconds",
        type=float,
        default=DEFAULT_WALL_SECONDS,
        help="default per-request wall budget (requests may set their own)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help=(
            "default instance storage backend for new sessions "
            "(memory | sqlite; sessions may request their own). "
            "Unset, the CHASE_BACKEND environment variable applies."
        ),
    )
    args = parser.parse_args(argv)
    if not args.wall_seconds >= 0:  # also refuses NaN
        parser.error(f"--wall-seconds must be non-negative, got {args.wall_seconds}")

    from repro.service.http import run_server

    run_server(
        host=args.host,
        port=args.port,
        max_atoms=args.max_atoms,
        max_rounds=args.max_rounds,
        default_wall_seconds=args.wall_seconds,
        backend=args.backend,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
