"""Run one `enlca` CLI call with the library traced, for the traced run
of the cli_enla workload.

    python cli_child.py SPANS_JSON <enlca arguments>

Times `import enlca.cli`, wraps the library (spans.py) including the
names the CLI imported, runs `cli.main` on the arguments and writes the
span summary, the import time and the count of NormalizerUnderflowWarnings
to SPANS_JSON. Exits with the CLI's status.
"""

import json
import sys
import time
import warnings
from types import SimpleNamespace


def main(argv) -> int:
    start = time.perf_counter()
    from enlca import cli

    import_s = time.perf_counter() - start
    from enlca import analysis, enla, exact, features, matrices

    import spans

    lib = SimpleNamespace(matrices=matrices, features=features, enla=enla, exact=exact,
                          analysis=analysis, cli=cli)
    tracer = spans.Tracer()
    spans.install(tracer, lib)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", enla.NormalizerUnderflowWarning)
        tracer.active = True
        status = cli.main(argv[1:])
        tracer.active = False
    floored = sum(issubclass(w.category, enla.NormalizerUnderflowWarning) for w in caught)
    with open(argv[0], "w") as fp:
        json.dump({"import_s": import_s, "floored": floored,
                   "spans": spans.summarize(tracer.take())}, fp)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
