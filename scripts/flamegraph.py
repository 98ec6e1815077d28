#!/usr/bin/env python3
"""Render a parmem collapsed-stack profile as a flame-graph SVG.

Input is the collapsed output of core/profiler.hpp (PARMEM_PROFILE=...
or profiler::write_collapsed):

    # parmem-profile binary=/path/exe base=0x555555554000 samples=N drops=D
    <phase>;0x<root pc>;...;0x<leaf pc> <count>

Frames are raw addresses; this script symbolizes them offline with
addr2line against the binary/base recorded in the header (override with
--binary/--base), so static functions resolve even in PIE executables
where dladdr cannot see them. Stdlib-only; addr2line is optional --
without it the frames stay hex.

Usage:
    flamegraph.py prof.folded -o prof.svg
    flamegraph.py prof.folded --collapsed prof.sym.folded   # text only
"""

import argparse
import html
import shutil
import subprocess
import sys

PHASES = [
    "mutator", "leaf-GC", "join-GC", "internal-GC", "global-GC", "stw-GC",
    "promotion", "steal", "park", "gate-stall",
]

# Phase frame colors: mutator warm, GC phases red-orange family,
# scheduler phases cool.
PHASE_COLOR = {
    "mutator": "#7aa457",
    "leaf-GC": "#d9534f",
    "join-GC": "#c9302c",
    "internal-GC": "#b02a27",
    "global-GC": "#a8322d",
    "stw-GC": "#c23c35",
    "promotion": "#e0a030",
    "steal": "#5b84b1",
    "park": "#8a8a8a",
    "gate-stall": "#7d5ba6",
}


def parse_collapsed(path):
    """Return (meta dict, list of (frames_root_first, count))."""
    meta = {"binary": None, "base": 0, "samples": 0, "drops": 0}
    stacks = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("binary="):
                        meta["binary"] = tok[len("binary="):]
                    elif tok.startswith("base="):
                        meta["base"] = int(tok[len("base="):], 16)
                    elif tok.startswith("samples="):
                        meta["samples"] = int(tok[len("samples="):])
                    elif tok.startswith("drops="):
                        meta["drops"] = int(tok[len("drops="):])
                continue
            key, _, count = line.rpartition(" ")
            if not key:
                continue
            stacks.append((key.split(";"), int(count)))
    return meta, stacks


def symbolize(stacks, binary, base):
    """Map 0x... frames to function names via one addr2line batch."""
    if binary is None or shutil.which("addr2line") is None:
        return stacks
    addrs = sorted(
        {fr for frames, _ in stacks for fr in frames if fr.startswith("0x")})
    if not addrs:
        return stacks
    # addr2line wants file-relative addresses; the sampled values are
    # runtime addresses, so subtract the recorded load base. The -1
    # moves return addresses back inside the calling instruction.
    rel = [hex(max(int(a, 16) - base - 1, 0)) for a in addrs]
    try:
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", binary] + rel,
            capture_output=True, text=True, timeout=120, check=True).stdout
    except (subprocess.SubprocessError, OSError):
        return stacks
    lines = out.splitlines()
    name_of = {}
    for i, a in enumerate(addrs):
        fn = lines[2 * i] if 2 * i < len(lines) else "??"
        name_of[a] = fn if fn and fn != "??" else a
    return [([name_of.get(fr, fr) for fr in frames], count)
            for frames, count in stacks]


class Node:
    __slots__ = ("name", "value", "children")

    def __init__(self, name):
        self.name = name
        self.value = 0
        self.children = {}


def build_trie(stacks):
    root = Node("all")
    for frames, count in stacks:
        root.value += count
        node = root
        for fr in frames:
            node = node.children.setdefault(fr, Node(fr))
            node.value += count
    return root


def frame_color(name, phase):
    if name in PHASE_COLOR:
        return PHASE_COLOR[name]
    base = PHASE_COLOR.get(phase, "#c07830")
    # Deterministic per-name lightness jitter so adjacent frames differ.
    h = sum(name.encode()) % 5
    return base + ("", "e0", "c8", "f0", "d4")[h] if h else base

def render_svg(root, out_path, title):
    width = 1200
    row_h = 16
    min_px = 0.4

    def depth_of(node):
        return 1 + max((depth_of(c) for c in node.children.values()),
                       default=0)

    height = depth_of(root) * row_h + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width/2}" y="16" text-anchor="middle" '
        f'font-size="14">{html.escape(title)}</text>',
    ]
    total = root.value or 1

    def emit(node, x, y, w, phase):
        if w < min_px:
            return
        pct = 100.0 * node.value / total
        label = f"{node.name} ({node.value} samples, {pct:.2f}%)"
        color = frame_color(node.name, phase)
        parts.append(
            f'<g><title>{html.escape(label)}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_h - 1}"'
            f' fill="{color}" rx="1"/>')
        if w > 40:
            shown = node.name
            max_chars = max(int(w / 6.5) - 1, 1)
            if len(shown) > max_chars:
                shown = shown[:max_chars - 1] + ".."
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + row_h - 5}" '
                f'fill="#000000">{html.escape(shown)}</text>')
        parts.append('</g>')
        cx = x
        for child in sorted(node.children.values(), key=lambda n: -n.value):
            cw = w * child.value / node.value
            child_phase = child.name if child.name in PHASE_COLOR else phase
            emit(child, cx, y + row_h, cw, child_phase)
            cx += cw

    emit(root, 10, 28, width - 20, "mutator")
    parts.append("</svg>")
    with open(out_path, "w") as f:
        f.write("\n".join(parts) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", help="collapsed profile from PARMEM_PROFILE")
    ap.add_argument("-o", "--svg", help="write flame-graph SVG here")
    ap.add_argument("--collapsed",
                    help="write symbolized collapsed stacks here")
    ap.add_argument("--binary", help="override the header's binary path")
    ap.add_argument("--base", help="override the header's load base (hex)")
    ap.add_argument("--no-symbolize", action="store_true",
                    help="keep raw hex frames")
    ap.add_argument("--title", default=None)
    args = ap.parse_args()

    meta, stacks = parse_collapsed(args.input)
    if not stacks:
        print(f"{args.input}: no samples", file=sys.stderr)
        return 1
    binary = args.binary or meta["binary"]
    base = int(args.base, 16) if args.base else meta["base"]
    if not args.no_symbolize:
        stacks = symbolize(stacks, binary, base)

    if args.collapsed:
        with open(args.collapsed, "w") as f:
            f.write(f"# parmem-profile binary={binary} base=0x{base:x} "
                    f"samples={meta['samples']} drops={meta['drops']}\n")
            for frames, count in sorted(stacks):
                f.write(";".join(frames) + f" {count}\n")

    if args.svg or not args.collapsed:
        out = args.svg or (args.input + ".svg")
        title = args.title or (
            f"parmem profile: {meta['samples']} samples"
            + (f", {meta['drops']} dropped" if meta["drops"] else ""))
        render_svg(build_trie(stacks), out, title)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
