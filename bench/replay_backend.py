"""Stdlib-only external segmentation backend that replays pre-cut answers.

Invoked once per tile through tileseg's external-process protocol:

    python3 replay_backend.py ANSWER_DIR {input} {output} {spec}

It reads the tile index from the spec JSON and copies
``ANSWER_DIR/tile_<index>.nii`` to ``{output}``.  The input tile is not
read: the answer stands in for a network's output.
"""

import json
import shutil
import sys
from pathlib import Path


def main(argv):
    if len(argv) != 4:
        print("usage: replay_backend.py ANSWER_DIR INPUT OUTPUT SPEC", file=sys.stderr)
        return 2
    answer_dir, _input, output, spec = argv
    index = json.loads(Path(spec).read_text())["index"]
    shutil.copyfile(Path(answer_dir) / f"tile_{index:03d}.nii", output)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
