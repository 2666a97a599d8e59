"""Start the ``repro`` CLI inside a benchmark run.

Usage::

    python3 perfbench/launch.py probe|trace OUT_DIR -- <repro CLI args>

``probe`` (the timed runs) installs one-shot instrumentation only: the
first entry into ``Simulator.run_until`` in each process — the CLI
process or a forked pool worker — writes ``probe-<pid>`` into
``OUT_DIR`` with its ``CLOCK_MONOTONIC`` timestamp, from which the
parent derives ``setup_s``.  ``trace`` installs :mod:`perfbench.tracer`
and writes span files into ``OUT_DIR``.

Either way the CLI runs as ``python -m repro`` would run it:
``repro.cli.main(argv)`` followed by ``sys.exit`` of its status.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _install_probe(out_dir: str) -> None:
    from perfbench import hook

    fired = [0]

    def patch(module) -> None:
        simulator = module.Simulator
        run_until = simulator.run_until

        def probed(self, *args, **kwargs):
            pid = os.getpid()
            if fired[0] != pid:
                fired[0] = pid
                now = time.monotonic_ns()
                with open(os.path.join(out_dir, f"probe-{pid}"), "w") as handle:
                    handle.write(str(now))
            return run_until(self, *args, **kwargs)

        simulator.run_until = probed

    hook.install({"repro.sim.engine": patch})


def main() -> None:
    mode, out_dir, separator, *cli_argv = sys.argv[1:]
    if separator != "--" or mode not in ("probe", "trace"):
        raise SystemExit(__doc__)
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]
    tracer = None
    if mode == "probe":
        _install_probe(out_dir)
    else:
        install_start = time.monotonic_ns()
        from perfbench import tracer

        tracer.install(out_dir)
        tracer.record("trace.install", install_start, time.monotonic_ns())

    import repro.cli

    entered = time.monotonic_ns()
    status = 1
    try:
        status = repro.cli.main(cli_argv)
    finally:
        returned = time.monotonic_ns()
        if tracer is not None:
            done = tracer.finish({"main_entered": entered, "main_returned": returned})
            with open(os.path.join(out_dir, "exit.txt"), "w") as handle:
                handle.write(str(done))
    sys.exit(status)


if __name__ == "__main__":
    main()
