#!/usr/bin/env python3
"""Build for the tip-decomposition benchmark.

Compiles the program (`src/main/scala`) together with the benchmark harness
(`tipbench/src`) into `<build dir>/tipbench/classes`, using the Scala
compiler that ships in Spark's `jars/` directory, so no build tool or
dependency download is needed. The build dir is `$CARGO_TARGET_DIR`, or
`.bench_build` at the repository root. A stamp of the sources skips the
compile when nothing changed.

    python3 tipbench/build.py
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


class BuildError(Exception):
    pass


def build_dir() -> pathlib.Path:
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "tipbench"


def spark_jars() -> pathlib.Path:
    """Spark's jar directory: `$SPARK_HOME/jars`, else next to `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        exe = shutil.which("spark-submit")
        if exe:
            home = str(pathlib.Path(exe).resolve().parent.parent)
    jars = pathlib.Path(home or "") / "jars"
    if not home or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("Spark jars with a Scala compiler not found (set SPARK_HOME)")
    return jars


def sources() -> list:
    main = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not main:
        raise BuildError(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}")
    return main + sorted((BENCH / "src").rglob("*.scala"))


def jvm_flags(tmp: pathlib.Path) -> list:
    """Flags for every JVM the benchmark starts: temp files stay in the build dir."""
    tmp.mkdir(parents=True, exist_ok=True)
    return ["-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]


def build() -> pathlib.Path:
    """Compiles if the sources changed; returns the classes directory."""
    jars = spark_jars()
    srcs = sources()
    out = build_dir()
    classes = out / "classes"
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    for j in sorted(jars.glob("*.jar")):
        h.update(j.name.encode() + b"\0")
    stamp = out / "classes.stamp"
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == h.hexdigest():
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    cmd = ["java", "-Xmx2g", *jvm_flags(out / "tmp"), "-cp", f"{jars}/*",
           "scala.tools.nsc.Main", "-nowarn", "-usejavacp", "-d", str(classes), *map(str, srcs)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise BuildError("scalac failed:\n" + r.stdout)
    stamp.write_text(h.hexdigest())
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"tipbench build: {e}")
