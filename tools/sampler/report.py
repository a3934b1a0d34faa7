#!/usr/bin/env python3
"""Flat profile of one libpqs_sampler run (see sampler.cpp).

    python3 tools/sampler/report.py prof.txt [--top N] [--symbolizer PATH]

Each sampled program counter is mapped to the object it fell in through
the run's /proc/self/maps, translated to that object's ELF virtual
address, and symbolized with llvm-symbolizer, one call per object. A
sample is charged to its outermost function: the function whose code
holds the PC, after inlining is unwound. The report lists functions, then
objects, by share of samples. Samples in objects without symbols, or
outside any mapped file, are charged to "?" in their object ("[anon]"
when no object is mapped there).
"""

import argparse
import collections
import json
import os
import shutil
import struct
import subprocess
import sys

PT_LOAD = 1


class Mapping:
    def __init__(self, start, end, offset, path):
        self.start = start
        self.end = end
        self.offset = offset
        self.path = path


def parse(path):
    """(header dict, [Mapping] of executable file mappings, [pc])."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("pqs_sampler "):
        raise SystemExit("%s: not a pqs_sampler output" % path)
    words = lines[0].split()
    header = dict(zip(words[2::2], (int(w) for w in words[3::2])))
    maps, pcs = [], []
    section = None
    for line in lines[1:]:
        if line in ("maps", "pcs"):
            section = line
        elif section == "maps":
            fields = line.split(None, 5)
            if len(fields) < 6 or "x" not in fields[1]:
                continue
            start, end = (int(a, 16) for a in fields[0].split("-"))
            maps.append(Mapping(start, end, int(fields[2], 16),
                                fields[5].strip()))
        elif section == "pcs" and line:
            pcs.append(int(line, 16))
    return header, maps, pcs


def load_segments(path):
    """[(p_offset, p_filesz, p_vaddr)] of an ELF64 little-endian file's
    PT_LOAD segments; [] when it is not one."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2 or ident[5] != 1:
                return []
            phoff, = struct.unpack_from("<Q", ident, 32)
            phentsize, phnum = struct.unpack_from("<HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = \
            struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == PT_LOAD:
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def locate(maps, pcs):
    """{pc: (object, ELF virtual address or None)} for each distinct PC;
    a PC outside every file mapping lands in "[anon]" (or the mapping's
    own name, such as "[vdso]") with no address."""
    where = {}
    segments = {}
    for pc in set(pcs):
        m = next((m for m in maps if m.start <= pc < m.end), None)
        if m is None or not m.path.startswith("/"):
            where[pc] = (m.path if m is not None and m.path else "[anon]",
                         None)
            continue
        if m.path not in segments:
            segments[m.path] = load_segments(m.path)
        file_offset = pc - m.start + m.offset
        vaddr = None
        for p_offset, p_filesz, p_vaddr in segments[m.path]:
            if p_offset <= file_offset < p_offset + p_filesz:
                vaddr = file_offset - p_offset + p_vaddr
                break
        where[pc] = (m.path, vaddr)
    return where


def symbolize(symbolizer, path, addresses):
    """{vaddr: outermost function name} for one object."""
    if not addresses:
        return {}
    done = subprocess.run(
        [symbolizer, "--obj=" + path, "--output-style=JSON", "--inlines",
         "--demangle"],
        input="".join("0x%x\n" % a for a in addresses),
        capture_output=True, text=True, check=False)
    names = {}
    for line in done.stdout.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        frames = entry.get("Symbol") or [{}]
        name = frames[-1].get("FunctionName") or "?"
        names[int(entry["Address"], 16)] = name
    return names


def profile(maps, pcs, symbolizer):
    """Counter of (function, object basename) over all samples."""
    where = locate(maps, pcs)
    wanted = collections.defaultdict(set)
    for path, vaddr in where.values():
        if vaddr is not None:
            wanted[path].add(vaddr)
    names = {path: symbolize(symbolizer, path, sorted(addrs))
             for path, addrs in wanted.items()}
    counts = collections.Counter()
    for pc in pcs:
        path, vaddr = where[pc]
        name = names.get(path, {}).get(vaddr, "?")
        counts[(name, os.path.basename(path))] += 1
    return counts


def render(header, counts, top, out):
    total = sum(counts.values())
    print("samples %d (dropped %d), timer interval %d us"
          % (total, header.get("dropped", 0), header.get("interval_us", 0)),
          file=out)
    if total == 0:
        return
    print("\n  share  samples  function [object]", file=out)
    for (name, obj), n in counts.most_common(top):
        print("%6.1f%% %8d  %s [%s]" % (100.0 * n / total, n, name, obj),
              file=out)
    objects = collections.Counter()
    for (_name, obj), n in counts.items():
        objects[obj] += n
    print("\n  share  samples  object", file=out)
    for obj, n in objects.most_common():
        print("%6.1f%% %8d  %s" % (100.0 * n / total, n, obj), file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("profile", help="file written by libpqs_sampler")
    parser.add_argument("--top", type=int, default=30,
                        help="functions to list (default 30)")
    parser.add_argument("--symbolizer",
                        default=shutil.which("llvm-symbolizer") or
                        "llvm-symbolizer",
                        help="llvm-symbolizer to run (default: from PATH)")
    args = parser.parse_args()
    header, maps, pcs = parse(args.profile)
    render(header, profile(maps, pcs, args.symbolizer), args.top,
           sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
