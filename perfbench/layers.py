"""Per-layer metrics from the probe's traced run (spans.tsv).

The probe calls each layer boundary of one request in turn, outermost
first, and records a span per call with the enclosing boundary as its
parent; a layer's self time is its span minus its children
(stats.self_times).  Per-request figures are medians unless named
otherwise; the read breakdown uses means, because means of self times
add up to the mean of the outer span and medians do not."""

import statistics

import stats

# The read breakdown, outermost layer first: span name -> layer.
BREAKDOWN = (("client", "socket"), ("handle_line", "dispatch"), ("pool", "pool IPC"),
             ("query_exec", "query_exec"), ("eval", "eval"), ("selectivity", "selectivity"),
             ("expand", "expand"), ("render", "render"))


def load(path):
    spans, counts = [], {}
    with open(path) as f:
        for line in f:
            row = line.rstrip("\n").split("\t")
            if row[0] == "span":
                spans.append((row[1], row[2], row[3], float(row[4]), float(row[5])))
            elif row[0] == "count":
                counts.setdefault(row[1], []).append(float(row[2]))
    return spans, counts


def med(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def per_layer(path, ext):
    """Every per-layer metric, from the spans file plus the figures the
    end-to-end phases measured (ext)."""
    spans, counts = load(path)
    own = stats.self_times(spans)

    def dur(name, prefix):
        return {rid: t1 - t0 for rid, n, _, t0, t1 in spans if n == name and rid.startswith(prefix)}

    def selfs(name, prefix="read:"):
        return [v for (rid, n), v in own.items() if n == name and rid.startswith(prefix)]

    def total(suffix, prefix):
        return sum(v for k, vs in counts.items() if k.startswith(prefix) and k.endswith(suffix) for v in vs)

    def one(name):
        return sum(counts.get(name, [0.0]))

    m = {}
    # Xmldoc.Parser, Sketch.Stable, Sketch.Build, Sketch.Serialize
    tsb = sum(dur("tsbuild", "build:").values())
    merges = total(".merges", "build:")
    m["parse.ns_per_byte"] = 1e9 * sum(dur("parse", "build:").values()) / total(".bytes", "build:")
    m["stable.ns_per_elem"] = 1e9 * sum(dur("stable", "build:").values()) / total(".elements", "build:")
    m["stable.nodes"] = total(".stable_nodes", "build:")
    m["tsbuild.s"] = tsb
    m["tsbuild.merges"] = merges
    m["tsbuild.us_per_merge"] = 1e6 * tsb / merges if merges else 0.0
    # of the in-process build (parse + stable + TSBUILD + save), so both
    # sides are timed in the same process a moment apart
    m["tsbuild.share"] = tsb / (sum(dur("build", "build:").values()) + sum(dur("save", "build:").values()))
    for scale in ("x1", "x2"):
        rid = f"scale:sprot_{scale}"
        t = sum(dur("tsbuild", rid).values())
        n = one(rid + ".merges")
        m[f"tsbuild.us_per_merge_{scale}"] = 1e6 * t / n if n else 0.0
    m["snapshot.save_ms"] = 1e3 * mean(list(dur("save", "build:").values()))
    m["snapshot.load_ms"] = 1e3 * mean(list(dur("load", "build:").values()))
    m["snapshot.bytes"] = mean([v for k, vs in counts.items() if k.endswith(".snapshot_bytes") for v in vs])

    # the read path, one request at a time
    us = 1e6
    ev = dur("eval", "read:")
    p50, tail, _, _ = stats.summary(list(ev.values()))
    m["eval.p50_us"], m["eval.tail_us"] = us * p50, us * tail
    m["eval.raw_nodes"] = mean([v for k, vs in counts.items() if k.endswith(".raw_nodes") for v in vs])
    exact = dur("exact", "read:")
    m["eval.speedup_vs_exact"] = (med(list(exact.values())) / med([ev[r] for r in exact])
                                  if exact else 0.0)
    m["selectivity.us"] = us * med(list(dur("selectivity", "read:").values()))
    m["expand.us"] = us * med(list(dur("expand", "read:").values()))
    m["answer.nodes"] = med([v for k, vs in counts.items() if k.endswith(".answer_nodes") for v in vs])
    m["render.bytes"] = med([v for k, vs in counts.items() if k.endswith(".render_bytes") for v in vs])
    m["query_exec.us"] = us * med(selfs("query_exec"))
    m["query_exec.degraded"] = one("query_exec.degraded")
    m["protocol.parse_us"] = us * med(list(dur("protocol", "read:").values()))
    m["catalog.refresh_us"] = us * med(list(dur("catalog", "read:").values()))
    m["pool.ipc_us"] = us * med(selfs("pool"))
    pool, conc = dur("pool", "read:"), dur("pool_conc", "read:")
    m["pool.wait_us"] = us * med([conc[r] - pool[r] for r in conc if r in pool])
    m["pool.kills"] = one("pool.kills")
    m["server.dispatch_us"] = us * med(selfs("handle_line"))
    m["server.errors"] = one("server.errors")
    m["server.degraded"] = one("server.degraded")
    m["socket.us"] = us * med(selfs("client"))

    # the read breakdown against the untraced pass over the same requests
    rids = dur("client", "read:")
    parts = {layer: sum(own.get((r, name), 0.0) for r in rids) / len(rids) for name, layer in BREAKDOWN}
    untraced = mean(counts.get("untraced.client_s", []))
    traced = mean(list(rids.values()))
    m["trace.breakdown_gap_pct"] = 100.0 * abs(sum(parts.values()) - untraced) / untraced
    m["trace.overhead_us"] = us * (traced - untraced)
    m["_breakdown"] = parts
    m["_untraced"] = (untraced, med(counts.get("untraced.client_s", [])))

    # the write path on a private copy of the data directory
    m["ingest.ack_us"] = us * med(list(dur("ack", "write:").values()))
    m["ingest.flush_ms"] = 1e3 * mean(list(dur("flush", "write:").values()))
    m["ingest.flushes"] = one("ingest.flushes")
    m["ingest.compact_s"] = mean(list(dur("compact", "write:").values()))
    m["ingest.compactions"] = one("ingest.compactions")
    m["level.compress_ms"] = 1e3 * mean(list(dur("compress", "write:").values()))
    m["levels.eval_us"] = us * med(list(dur("levels_eval", "write:").values()))
    m["levels.depth"] = mean([v for k, vs in counts.items() if k.endswith(".depth") for v in vs])
    m["prune.us"] = us * med(list(dur("prune", "write:").values()))
    m["wal.append_us"] = us * med(list(dur("wal_append", "write:").values()))
    records = one("wal.records")
    m["wal.bytes_per_record"] = one("wal.bytes") / records if records else 0.0
    m.update(ext)
    return m


def describe(m):
    """Human-readable lines for the breakdown; drops the private keys."""
    parts = m.pop("_breakdown")
    untraced_mean, untraced_median = m.pop("_untraced")
    lines = ["read breakdown (mean us per request, traced replay):"]
    lines += [f"  {layer:12s} {1e6 * v:10.1f}" for layer, v in parts.items()]
    lines.append(f"  {'sum':12s} {1e6 * sum(parts.values()):10.1f}   untraced mean "
                 f"{1e6 * untraced_mean:.1f}, median {1e6 * untraced_median:.1f}; "
                 f"gap {m['trace.breakdown_gap_pct']:.1f}%, tracing overhead "
                 f"{m['trace.overhead_us']:.1f} us")
    return lines
