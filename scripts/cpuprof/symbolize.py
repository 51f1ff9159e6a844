#!/usr/bin/env python3
"""Report for a cpuprof sample file (see sampler.c).

    python3 scripts/cpuprof/symbolize.py prof.txt [prof2.txt ...] [--top 25] [--root DIR]

Symbolises every sampled address with addr2line (inlined frames expanded) and
prints the share of samples, summed over the files, in three tables:

  leaf         the function the CPU was in (memmove, crc32c_sse42, malloc...)
  repo frame   the first frame, from the leaf up, whose source file lies under
               the repository root: who in this code base spent the time
  leaf @ repo  the leaf, the first repository frame and the next repository
               function above it, so a memmove under Writer::raw is split by
               the encoder that called it

Each sample counts once per table, so the rows of one table add up to 100%
(the last row collects the rest). A stripped libc names its internal
memcpy/memmove variants after the nearest exported symbol (on this glibc,
__nss_database_lookup) and its malloc internals likewise.
"""
import argparse
import collections
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def parse(path):
    maps, samples = [], []
    section = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                section = {"# maps": "maps", "# samples": "samples"}.get(line, section)
                continue
            if section == "maps":
                parts = line.split()
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                parts = line.split()
                samples.append([int(x, 16) for x in parts[1:]])
    return maps, samples


def elf_is_pie_or_so(obj):
    try:
        with open(obj, "rb") as f:
            head = f.read(18)
        return len(head) == 18 and head[16] == 3  # e_type == ET_DYN
    except OSError:
        return False


def load_bases(path):
    """Load base of each mapped object: the start of its offset-0 mapping."""
    bases = {}
    section = None
    with open(path) as f:
        for line in f:
            if line.startswith("# "):
                section = line.strip()
                continue
            if section != "# maps":
                continue
            parts = line.split()
            if len(parts) >= 6 and int(parts[2], 16) == 0 and parts[5] not in bases:
                bases[parts[5]] = int(parts[0].split("-")[0], 16)
    return bases


def symbolise(addrs_by_obj, bases):
    """{(obj, addr): [(function, file), ...] innermost first}."""
    out = {}
    for obj, addrs in addrs_by_obj.items():
        addrs = sorted(addrs)
        base = bases.get(obj, 0) if elf_is_pie_or_so(obj) else 0
        args = ["addr2line", "-f", "-C", "-i", "-e", obj, "-a"] + ["%x" % (a - base) for a in addrs]
        try:
            r = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               text=True, check=False)
        except OSError:
            r = None
        frames = {}
        if r is not None:
            cur = None
            lines = r.stdout.splitlines()
            i = 0
            while i < len(lines):
                if lines[i].startswith("0x"):
                    cur = int(lines[i], 16) + base
                    frames[cur] = []
                    i += 1
                    continue
                fn = lines[i]
                loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
                frames.setdefault(cur, []).append((fn, loc.split(":")[0]))
                i += 2
        for a in addrs:
            got = frames.get(a) or [("??", "")]
            out[(obj, a)] = [(short(fn) if fn != "??" else
                              "%s+%x" % (os.path.basename(obj), a - base), src)
                             for fn, src in got]
    return out


def symbolised_stacks(path):
    """Each sample of one file as [(function, source file), ...], leaf first."""
    maps, samples = parse(path)
    bases = load_bases(path)

    def obj_of(addr):
        for lo, hi, _, obj in maps:
            if lo <= addr < hi:
                return obj
        return None

    # Drop the sampler's own frames and the signal trampoline; after the
    # interrupted PC, frames are return addresses: look up the call (addr-1).
    stacks = []
    for pcs in samples:
        k = 0
        while k < len(pcs) and (obj_of(pcs[k]) or "").endswith("libcpuprof.so"):
            k += 1
        k += 1  # the trampoline the kernel returns through (__restore_rt)
        pcs = pcs[k:]
        stacks.append([(obj_of(a), a if i == 0 else a - 1) for i, a in enumerate(pcs)])

    by_obj = collections.defaultdict(set)
    for st in stacks:
        for obj, a in st:
            if obj:
                by_obj[obj].add(a)
    sym = symbolise(by_obj, bases)
    out = []
    for st in stacks:
        frames = []
        for obj, a in st:
            frames.extend(sym.get((obj, a), [("??", "")]) if obj else [("??", "")])
        out.append(frames)
    return out


def short(fn):
    """Function name without its parameter list."""
    fn = fn.replace("(anonymous namespace)", "{anon}")
    cut = fn.find("(")
    return fn[:cut] if cut > 0 else fn


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--root", default=ROOT, help="repository root (default: this checkout)")
    args = ap.parse_args()
    root = os.path.realpath(args.root) + os.sep

    leaf, repo, pair = collections.Counter(), collections.Counter(), collections.Counter()
    total = 0
    for path in args.files:
        for frames in symbolised_stacks(path):
            repo_fns = []
            for fn, src in frames:
                if (os.path.isabs(src) and os.path.realpath(src).startswith(root)
                        and (not repo_fns or repo_fns[-1] != fn)):
                    repo_fns.append(fn)
            lf = frames[0][0] if frames else "??"
            rp = repo_fns[0] if repo_fns else "(no repo frame)"
            leaf[lf] += 1
            repo[rp] += 1
            pair["%s  @  %s" % (lf, "  <  ".join(repo_fns[:2]) or rp)] += 1
            total += 1

    print("# %d samples from %s" % (total, " ".join(args.files)))
    for title, ctr in (("leaf", leaf), ("repo frame", repo),
                       ("leaf @ repo frame < its repo caller", pair)):
        print("\n## by %s" % title)
        shown = 0
        for name, n in ctr.most_common(args.top):
            print("%6.2f%%  %6d  %s" % (100.0 * n / max(total, 1), n, name))
            shown += n
        if total > shown:
            print("%6.2f%%  %6d  (rest)" % (100.0 * (total - shown) / total, total - shown))
    return 0


if __name__ == "__main__":
    sys.exit(main())
