"""Write pins.json: exit code and stdout SHA-256 of every kgw invocation
the cli workload can make, including each decompose literal it may draw.

    PYTHONPATH=src python3 perfbench/make_pins.py

The committed pins were taken at the seed commit.  ROADMAP requires
byte-identical output, so regenerate them only for a change that is
meant to alter kgw's output, and say so in that change.
"""

import json

from workloads import HERE, cli_commands, decompose_pool, kgw, pin


def main():
    pins = {}
    for _, key, argv in cli_commands(decompose_pool()):
        code, out, _ = kgw(argv, traced=False)
        pins[key] = pin(code, out)
    lines = ["  %s: %s" % (json.dumps(k), json.dumps(pins[k])) for k in sorted(pins)]
    (HERE / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print("%d pins written" % len(pins))


if __name__ == "__main__":
    main()
