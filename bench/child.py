"""One benchmark run: the ulws CLI commands of a plan, in one process.

    python3 bench/child.py SPEC.json

SPEC holds the source directory, the commands (argv and stdout file of
each), the function whose first call ends set-up (`first_work`), where to
write the result, and whether to trace. An untraced run records exactly
one timestamp, at that first call, and then restores the original
function; a traced run installs the span tracer instead.

The result file holds `t_first` and `t_done` (time.monotonic, which is
system-wide, so the parent can subtract its launch time) and the exit code
of every command.
"""

import contextlib
import importlib
import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import ulws.cli

    sys.path.insert(0, spec["bench"])
    import tracer

    module_name, fn_name = spec["first_work"].rsplit(".", 1)
    target = getattr(importlib.import_module(module_name), fn_name)
    result = {"codes": []}
    tracing = None
    if spec["trace"]:
        tracing = tracer.Tracer().install()
    else:
        def first_call(*args, **kwargs):
            result["t_first"] = time.monotonic()
            tracer.restore(undo)
            return target(*args, **kwargs)

        undo = tracer.patch_everywhere(target, first_call)

    for command in spec["commands"]:
        with open(command["stdout"], "w") as out, contextlib.redirect_stdout(out):
            result["codes"].append(ulws.cli.main(command["argv"]))
    result["t_done"] = time.monotonic()

    if tracing is not None:
        tracing.uninstall()
        first_name = spec["first_work"].replace("ulws.", "", 1)
        first = next((s for s in tracing.spans if s[0] == first_name), None)
        if first is not None:
            result["t_first"] = first[1]
        tracing.dump(spec["spans"])
        if tracing.config is not None:
            from ulws.complexity import count_flops

            result["rows"] = [{"layer": r.name, "flops": r.flops}
                              for r in count_flops(tracing.config).rows]
            result["config"] = tracing.config.to_dict()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in result["codes"]) else 1


if __name__ == "__main__":
    sys.exit(main())
