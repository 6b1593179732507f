#include "obs/analysis.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/strings.h"
#include "metrics/table.h"
#include "obs/exporters.h"
#include "obs/json.h"
#include "simnet/cluster.h"
#include "topo/topology.h"

namespace spardl {

namespace {

// %.17g round-trips doubles exactly — the byte-identity guarantee of the
// JSON fragments rides on this (same convention as the exporters).
std::string Num(double value) { return StrFormat("%.17g", value); }

// The four leaf names that advance a worker's kStreamMain clock. The
// positive ones tile [0, final] per worker (envelope scopes and "send"
// instants ride on top of them), which is the tiling the backward walk
// consumes.
enum class LeafKind : uint8_t { kRecv, kCompute, kIdle, kBarrier };

struct Leaf {
  double t0 = 0.0;
  double t1 = 0.0;
  LeafKind kind = LeafKind::kCompute;
  Phase phase = Phase::kUntagged;
  /// recv ordinal (index into `recv_records`) or barrier ordinal.
  int ordinal = -1;
};

}  // namespace

std::string_view SegmentKindName(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kCompute:
      return "compute";
    case SegmentKind::kOverlapIdle:
      return "overlap-idle";
    case SegmentKind::kLinkQueue:
      return "link-queue";
    case SegmentKind::kLinkAlpha:
      return "link-alpha";
    case SegmentKind::kLinkSerialize:
      return "link-serialize";
    case SegmentKind::kNumSegmentKinds:
      break;
  }
  return "?";
}

CriticalPathReport ExtractCriticalPath(const Cluster& cluster) {
  CriticalPathReport report;
  report.makespan = cluster.MaxSimSeconds();
  const TraceRecorder* tracer = cluster.tracer();
  const int p = cluster.size();
  if (tracer == nullptr || p == 0) {
    report.identity_ok = report.makespan == 0.0;
    return report;
  }

  // Per-worker clock-advancing leaves, in recorded (chronological) order,
  // plus the published-clock table for barrier ordinals.
  std::vector<std::vector<Leaf>> leaves(static_cast<size_t>(p));
  std::vector<std::vector<double>> barrier_t0(static_cast<size_t>(p));
  for (int w = 0; w < p; ++w) {
    int recv_ordinal = 0;
    int barrier_ordinal = 0;
    for (const TraceSpan& span : tracer->worker_spans(w)) {
      if (span.stream != kStreamMain) continue;
      Leaf leaf;
      leaf.t0 = span.t0;
      leaf.t1 = span.t1;
      leaf.phase = span.phase;
      if (std::strcmp(span.name, "recv") == 0) {
        leaf.kind = LeafKind::kRecv;
        leaf.ordinal = recv_ordinal++;
      } else if (std::strcmp(span.name, "compute") == 0) {
        leaf.kind = LeafKind::kCompute;
      } else if (std::strcmp(span.name, "idle") == 0) {
        leaf.kind = LeafKind::kIdle;
      } else if (std::strcmp(span.name, "barrier-sync") == 0) {
        leaf.kind = LeafKind::kBarrier;
        leaf.ordinal = barrier_ordinal++;
        barrier_t0[static_cast<size_t>(w)].push_back(span.t0);
      } else {
        continue;  // envelope scopes / "send" instants
      }
      leaves[static_cast<size_t>(w)].push_back(leaf);
    }
  }

  // Walk start: the worker whose final clock set the makespan.
  int w = 0;
  double best = -std::numeric_limits<double>::infinity();
  for (int r = 0; r < p; ++r) {
    const double clock = cluster.comm(r).sim_now();
    if (clock > best) {
      best = clock;
      w = r;
    }
  }
  report.end_worker = w;

  // Backward walk. `t` only ever decreases, so one reverse cursor per
  // worker suffices. Every boundary the walk crosses is a propagated
  // *copy* of the same double (send stamps, published barrier clocks,
  // hop hand-offs), so chain continuity is checked with exact equality —
  // any mismatch is a real attribution gap, not float noise.
  double t = report.makespan;
  std::vector<size_t> cursor(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    cursor[static_cast<size_t>(r)] = leaves[static_cast<size_t>(r)].size();
  }
  std::vector<CriticalSegment> reversed;
  bool ok = true;
  // Attributes [s0, s1] (s1 must extend the chain exactly) and moves the
  // walk time down to s0. Zero-length intervals keep the chain intact
  // without emitting a segment.
  const auto attribute = [&](double s0, double s1, SegmentKind kind,
                             int worker, int link, Phase phase) {
    if (s1 != t || s0 > s1) {
      ok = false;
      return;
    }
    if (s1 > s0) {
      reversed.push_back(CriticalSegment{s0, s1, kind, worker, link, phase});
    }
    t = s0;
  };

  // Generous hard cap: every step either consumes a leaf or a barrier
  // ordinal, so a loop can only mean broken records.
  size_t budget = 16;
  for (int r = 0; r < p; ++r) {
    budget += 4 * leaves[static_cast<size_t>(r)].size();
  }
  for (const auto& [key, flow] : tracer->flow_records()) {
    (void)key;
    budget += flow.hops.size() + 1;
  }

  while (t > 0.0 && ok) {
    if (budget-- == 0) {
      ok = false;
      break;
    }
    const std::vector<Leaf>& ls = leaves[static_cast<size_t>(w)];
    size_t& cur = cursor[static_cast<size_t>(w)];
    while (cur > 0 && ls[cur - 1].t0 >= t) --cur;
    if (cur == 0) {
      // Nothing on this worker covers (0, t] — the tiling is broken.
      ok = false;
      break;
    }
    const Leaf& leaf = ls[cur - 1];
    switch (leaf.kind) {
      case LeafKind::kCompute:
        attribute(leaf.t0, t, SegmentKind::kCompute, w, -1, Phase::kCompute);
        break;
      case LeafKind::kIdle:
        attribute(leaf.t0, t, SegmentKind::kOverlapIdle, w, -1,
                  Phase::kOverlapIdle);
        break;
      case LeafKind::kBarrier: {
        // The released clock is the max over every worker's published
        // clock at this barrier ordinal; jump to the worker that set it
        // (smallest rank on ties). No time is attributed — the target's
        // own timeline explains (.., t] from here on.
        if (t != leaf.t1) {
          ok = false;
          break;
        }
        int target = -1;
        double target_t0 = -std::numeric_limits<double>::infinity();
        for (int u = 0; u < p; ++u) {
          const auto& published = barrier_t0[static_cast<size_t>(u)];
          if (leaf.ordinal >= static_cast<int>(published.size())) {
            ok = false;
            break;
          }
          const double t0 = published[static_cast<size_t>(leaf.ordinal)];
          if (t0 > target_t0) {
            target_t0 = t0;
            target = u;
          }
        }
        if (!ok || target < 0 || target_t0 != t) {
          ok = false;
          break;
        }
        w = target;
        break;
      }
      case LeafKind::kRecv: {
        const RecvRecord& rec =
            tracer->recv_records(w)[static_cast<size_t>(leaf.ordinal)];
        const FlowRecord* flow =
            rec.flow != 0 ? tracer->FindFlow(rec.flow) : nullptr;
        if (flow != nullptr && flow->arrival == t && !flow->hops.empty()) {
          // Event-engine decomposition. The body trails the last hop's
          // header by the bottleneck serialization; the hop hand-offs
          // are exact copies (enter[i+1] == head_out[i], enter[0] ==
          // sent_at), so the chain telescopes to the send instant.
          size_t bottleneck = 0;
          for (size_t i = 1; i < flow->hops.size(); ++i) {
            if (flow->hops[i].serialize >
                flow->hops[bottleneck].serialize) {
              bottleneck = i;
            }
          }
          attribute(flow->hops.back().head_out, t,
                    SegmentKind::kLinkSerialize, w,
                    flow->hops[bottleneck].link, leaf.phase);
          for (size_t i = flow->hops.size(); i-- > 0 && ok;) {
            const FlowHop& hop = flow->hops[i];
            attribute(hop.start, hop.head_out, SegmentKind::kLinkAlpha, w,
                      hop.link, leaf.phase);
            attribute(hop.enter, hop.start, SegmentKind::kLinkQueue, w,
                      hop.link, leaf.phase);
          }
          if (ok) {
            if (t != flow->sent_at) {
              ok = false;
              break;
            }
            w = flow->src;
          }
          break;
        }
        // No per-hop record: only the flat fabric's closed form may get
        // here, and it still yields an exact alpha/serialize split. The
        // chain continues at the send instant when the sender gated
        // delivery, else on this worker's own earlier timeline. Anything
        // else is a gap in the records and breaks the identity.
        if (rec.flow != 0 || cluster.network().event_ordered() ||
            t != leaf.t1) {
          ok = false;
          break;
        }
        const double s0 = rec.sent_at > leaf.t0 ? rec.sent_at : leaf.t0;
        const Topology& topology = cluster.topology();
        const double alpha =
            topology.base_cost().alpha * topology.NodeScale(w);
        double mid = s0 + alpha;
        if (mid > t) mid = t;
        attribute(mid, t, SegmentKind::kLinkSerialize, w, -1, leaf.phase);
        attribute(s0, mid, SegmentKind::kLinkAlpha, w, -1, leaf.phase);
        if (ok && rec.sent_at > leaf.t0) w = rec.src;
        break;
      }
    }
  }

  report.identity_ok = ok && t == 0.0;
  std::reverse(reversed.begin(), reversed.end());
  report.segments = std::move(reversed);

  double sum = 0.0;
  std::vector<LinkContribution> links;
  for (const CriticalSegment& segment : report.segments) {
    const double seconds = segment.seconds();
    sum += seconds;
    report.by_kind[static_cast<size_t>(segment.kind)] += seconds;
    report.by_phase[static_cast<size_t>(segment.phase)] += seconds;
    if (segment.link >= 0) {
      auto it = std::find_if(links.begin(), links.end(),
                             [&](const LinkContribution& c) {
                               return c.link == segment.link;
                             });
      if (it == links.end()) {
        LinkContribution contribution;
        contribution.link = segment.link;
        contribution.name =
            LinkDisplayName(cluster.topology(), segment.link);
        links.push_back(std::move(contribution));
        it = links.end() - 1;
      }
      switch (segment.kind) {
        case SegmentKind::kLinkQueue:
          it->queue_seconds += seconds;
          break;
        case SegmentKind::kLinkAlpha:
          it->alpha_seconds += seconds;
          break;
        default:
          it->serialize_seconds += seconds;
          break;
      }
    }
  }
  report.path_seconds = sum;
  std::sort(links.begin(), links.end(),
            [](const LinkContribution& a, const LinkContribution& b) {
              if (a.total() != b.total()) return a.total() > b.total();
              return a.link < b.link;
            });
  report.by_link = std::move(links);
  return report;
}

std::vector<WhatIfResult> EstimateWhatIfs(const CriticalPathReport& report,
                                          const Cluster& cluster) {
  const int p = cluster.size();
  const Topology& topology = cluster.topology();
  const auto is_trunk = [&](int link) {
    if (link < 0) return false;
    const LinkInfo info = topology.link_info(link);
    return info.tail >= p && info.head >= p;
  };
  // Each hypothetical maps a segment to its shrunk duration.
  struct Scenario {
    const char* name;
    double (*price)(const CriticalSegment&, bool trunk);
  };
  static constexpr Scenario kScenarios[] = {
      {"compute-free",
       [](const CriticalSegment& s, bool) {
         return s.kind == SegmentKind::kCompute ||
                        s.kind == SegmentKind::kOverlapIdle
                    ? 0.0
                    : s.seconds();
       }},
      {"alpha-zero",
       [](const CriticalSegment& s, bool) {
         return s.kind == SegmentKind::kLinkAlpha ? 0.0 : s.seconds();
       }},
      {"trunk-beta-half",
       [](const CriticalSegment& s, bool trunk) {
         return s.kind == SegmentKind::kLinkSerialize && trunk
                    ? s.seconds() / 2.0
                    : s.seconds();
       }},
      {"all-beta-half",
       [](const CriticalSegment& s, bool) {
         return s.kind == SegmentKind::kLinkSerialize ? s.seconds() / 2.0
                                                      : s.seconds();
       }},
  };
  std::vector<WhatIfResult> results;
  for (const Scenario& scenario : kScenarios) {
    WhatIfResult result;
    result.name = scenario.name;
    double priced = 0.0;
    for (const CriticalSegment& segment : report.segments) {
      priced += scenario.price(segment, is_trunk(segment.link));
    }
    result.path_seconds = priced;
    result.speedup =
        priced > 0.0 && report.path_seconds > 0.0
            ? report.path_seconds / priced
            : 1.0;
    results.push_back(std::move(result));
  }
  return results;
}

std::string CriticalPathTable(const CriticalPathReport& report,
                              size_t top_links) {
  std::string out = StrFormat(
      "critical path: makespan %.9f s, path %.9f s, %zu segments, "
      "identity %s (ends on w%d)\n",
      report.makespan, report.path_seconds, report.segments.size(),
      report.identity_ok ? "OK" : "BROKEN", report.end_worker);
  TablePrinter kinds({"kind", "seconds", "share"});
  for (size_t i = 0; i < kNumSegmentKinds; ++i) {
    const double seconds = report.by_kind[i];
    if (seconds == 0.0) continue;
    kinds.AddRow({std::string(SegmentKindName(static_cast<SegmentKind>(i))),
                  StrFormat("%.9f", seconds),
                  report.path_seconds > 0.0
                      ? StrFormat("%.1f%%",
                                  seconds / report.path_seconds * 100.0)
                      : "-"});
  }
  kinds.AddRow({"total (path)", StrFormat("%.9f", report.path_seconds),
                "100.0%"});
  out += kinds.ToString();
  if (!report.by_link.empty()) {
    out += "links on the critical path:\n";
    TablePrinter links(
        {"link", "queue (s)", "alpha (s)", "serialize (s)", "total (s)"});
    const size_t n = std::min(top_links, report.by_link.size());
    for (size_t i = 0; i < n; ++i) {
      const LinkContribution& c = report.by_link[i];
      links.AddRow({c.name, StrFormat("%.9f", c.queue_seconds),
                    StrFormat("%.9f", c.alpha_seconds),
                    StrFormat("%.9f", c.serialize_seconds),
                    StrFormat("%.9f", c.total())});
    }
    out += links.ToString();
  }
  return out;
}

std::string WhatIfTable(const std::vector<WhatIfResult>& results) {
  TablePrinter table({"what-if", "path (s)", "speedup"});
  for (const WhatIfResult& result : results) {
    table.AddRow({result.name, StrFormat("%.9f", result.path_seconds),
                  StrFormat("%.3fx", result.speedup)});
  }
  return table.ToString();
}

std::string AnalysisJson(const CriticalPathReport& report,
                         const std::vector<WhatIfResult>& what_ifs) {
  std::string out = StrFormat(
      "{\"schema\":\"spardl-analysis/1\",\"makespan_seconds\":%s,"
      "\"path_seconds\":%s,\"identity_ok\":%s,\"end_worker\":%d,"
      "\"segments\":%zu,",
      Num(report.makespan).c_str(), Num(report.path_seconds).c_str(),
      report.identity_ok ? "true" : "false", report.end_worker,
      report.segments.size());
  out += "\"by_kind\":{";
  bool first = true;
  for (size_t i = 0; i < kNumSegmentKinds; ++i) {
    if (report.by_kind[i] == 0.0) continue;
    if (!first) out.push_back(',');
    first = false;
    out += StrFormat(
        "\"%s\":%s",
        std::string(SegmentKindName(static_cast<SegmentKind>(i))).c_str(),
        Num(report.by_kind[i]).c_str());
  }
  out += "},\"by_phase\":{";
  first = true;
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (report.by_phase[i] == 0.0) continue;
    if (!first) out.push_back(',');
    first = false;
    out += StrFormat("\"%s\":%s",
                     std::string(PhaseName(static_cast<Phase>(i))).c_str(),
                     Num(report.by_phase[i]).c_str());
  }
  out += "},\"by_link\":[";
  for (size_t i = 0; i < report.by_link.size(); ++i) {
    const LinkContribution& c = report.by_link[i];
    if (i > 0) out.push_back(',');
    out += StrFormat(
        "{\"link\":%d,\"name\":\"%s\",\"queue_seconds\":%s,"
        "\"alpha_seconds\":%s,\"serialize_seconds\":%s}",
        c.link, JsonEscape(c.name).c_str(), Num(c.queue_seconds).c_str(),
        Num(c.alpha_seconds).c_str(), Num(c.serialize_seconds).c_str());
  }
  out += "],\"what_if\":[";
  for (size_t i = 0; i < what_ifs.size(); ++i) {
    const WhatIfResult& result = what_ifs[i];
    if (i > 0) out.push_back(',');
    out += StrFormat("{\"name\":\"%s\",\"path_seconds\":%s,\"speedup\":%s}",
                     JsonEscape(result.name).c_str(),
                     Num(result.path_seconds).c_str(),
                     Num(result.speedup).c_str());
  }
  out += "]}";
  return out;
}

FixedBucketHistogram::FixedBucketHistogram(size_t buckets)
    : buckets_(buckets == 0 ? 1 : buckets) {}

void FixedBucketHistogram::Add(double value) { values_.push_back(value); }

double FixedBucketHistogram::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  double lo = values_.front();
  double hi = values_.front();
  for (const double v : values_) {
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  if (q <= 0.0) return lo;
  if (q >= 1.0 || hi <= lo) return hi;
  // Fixed linear buckets over [lo, hi]; the quantile reports the lower
  // edge of the cell holding the q-th observation.
  std::vector<uint64_t> counts(buckets_, 0);
  const double width = (hi - lo) / static_cast<double>(buckets_);
  for (const double v : values_) {
    size_t cell = static_cast<size_t>((v - lo) / width);
    if (cell >= buckets_) cell = buckets_ - 1;
    ++counts[cell];
  }
  const double target = q * static_cast<double>(values_.size());
  uint64_t cumulative = 0;
  for (size_t cell = 0; cell < buckets_; ++cell) {
    cumulative += counts[cell];
    if (static_cast<double>(cumulative) >= target) {
      return lo + width * static_cast<double>(cell);
    }
  }
  return hi;
}

TimeSeriesReport BuildTimeSeries(const Cluster& cluster,
                                 double straggler_factor) {
  TimeSeriesReport report;
  report.workers = cluster.size();
  report.straggler_factor = straggler_factor;
  const TraceRecorder* tracer = cluster.tracer();
  const int p = cluster.size();
  if (tracer == nullptr || p == 0) return report;

  size_t iterations = std::numeric_limits<size_t>::max();
  for (int w = 0; w < p; ++w) {
    iterations = std::min(iterations, tracer->iteration_marks(w).size());
  }
  if (iterations == std::numeric_limits<size_t>::max() || iterations == 0) {
    return report;
  }
  report.iterations = static_cast<int>(iterations);

  for (size_t i = 0; i < iterations; ++i) {
    IterationStat stat;
    stat.iteration = static_cast<int>(i);
    std::vector<double> walls;
    walls.reserve(static_cast<size_t>(p));
    FixedBucketHistogram histogram;
    for (int w = 0; w < p; ++w) {
      const auto& marks = tracer->iteration_marks(w);
      const IterationMark& mark = marks[i];
      const IterationMark* prev = i > 0 ? &marks[i - 1] : nullptr;
      const double wall = mark.sim_now - (prev ? prev->sim_now : 0.0);
      walls.push_back(wall);
      histogram.Add(wall);
      stat.comm_mean +=
          mark.comm_seconds - (prev ? prev->comm_seconds : 0.0);
      stat.compute_mean +=
          mark.compute_seconds - (prev ? prev->compute_seconds : 0.0);
      for (size_t ph = 0; ph < kNumPhases; ++ph) {
        stat.phase_mean[ph] +=
            mark.phase_seconds[ph] - (prev ? prev->phase_seconds[ph] : 0.0);
      }
    }
    std::sort(walls.begin(), walls.end());
    stat.wall_min = walls.front();
    stat.wall_max = walls.back();
    stat.wall_median = walls[walls.size() / 2];
    stat.wall_p99 = histogram.Quantile(0.99);
    stat.comm_mean /= static_cast<double>(p);
    stat.compute_mean /= static_cast<double>(p);
    for (size_t ph = 0; ph < kNumPhases; ++ph) {
      stat.phase_mean[ph] /= static_cast<double>(p);
    }
    report.series.push_back(std::move(stat));
  }

  // Straggler report: a worker's mean iteration wall (telescoping: final
  // mark over the iteration count) against the cross-worker median.
  std::vector<double> means(static_cast<size_t>(p));
  for (int w = 0; w < p; ++w) {
    means[static_cast<size_t>(w)] =
        tracer->iteration_marks(w)[iterations - 1].sim_now /
        static_cast<double>(iterations);
  }
  std::vector<double> sorted = means;
  std::sort(sorted.begin(), sorted.end());
  report.median_worker_wall = sorted[sorted.size() / 2];
  if (report.median_worker_wall > 0.0) {
    for (int w = 0; w < p; ++w) {
      const double ratio =
          means[static_cast<size_t>(w)] / report.median_worker_wall;
      if (ratio > straggler_factor) {
        report.stragglers.push_back(
            StragglerEntry{w, means[static_cast<size_t>(w)], ratio});
      }
    }
    std::sort(report.stragglers.begin(), report.stragglers.end(),
              [](const StragglerEntry& a, const StragglerEntry& b) {
                if (a.ratio != b.ratio) return a.ratio > b.ratio;
                return a.worker < b.worker;
              });
  }
  return report;
}

std::string TimeSeriesJson(const TimeSeriesReport& report,
                           const std::string& label) {
  std::string out = StrFormat(
      "{\"schema\":\"spardl-timeseries/1\",\"label\":\"%s\","
      "\"workers\":%d,\"iterations\":%d,\"straggler_factor\":%s,"
      "\"median_worker_wall\":%s,\"series\":[",
      JsonEscape(label).c_str(), report.workers, report.iterations,
      Num(report.straggler_factor).c_str(),
      Num(report.median_worker_wall).c_str());
  for (size_t i = 0; i < report.series.size(); ++i) {
    const IterationStat& stat = report.series[i];
    if (i > 0) out.push_back(',');
    out += StrFormat(
        "\n{\"iteration\":%d,\"wall_min\":%s,\"wall_median\":%s,"
        "\"wall_max\":%s,\"wall_p99\":%s,\"comm_mean\":%s,"
        "\"compute_mean\":%s,\"phase_mean\":{",
        stat.iteration, Num(stat.wall_min).c_str(),
        Num(stat.wall_median).c_str(), Num(stat.wall_max).c_str(),
        Num(stat.wall_p99).c_str(), Num(stat.comm_mean).c_str(),
        Num(stat.compute_mean).c_str());
    bool first = true;
    for (size_t ph = 0; ph < kNumPhases; ++ph) {
      if (stat.phase_mean[ph] == 0.0) continue;
      if (!first) out.push_back(',');
      first = false;
      out += StrFormat(
          "\"%s\":%s",
          std::string(PhaseName(static_cast<Phase>(ph))).c_str(),
          Num(stat.phase_mean[ph]).c_str());
    }
    out += "}}";
  }
  out += "\n],\"stragglers\":[";
  for (size_t i = 0; i < report.stragglers.size(); ++i) {
    const StragglerEntry& entry = report.stragglers[i];
    if (i > 0) out.push_back(',');
    out += StrFormat(
        "{\"worker\":%d,\"mean_wall\":%s,\"ratio\":%s}", entry.worker,
        Num(entry.mean_wall).c_str(), Num(entry.ratio).c_str());
  }
  out += "]}\n";
  return out;
}

std::string TimeSeriesTable(const TimeSeriesReport& report) {
  TablePrinter table({"iter", "wall min (s)", "median (s)", "max (s)",
                      "p99 (s)", "comm mean (s)", "compute mean (s)"});
  for (const IterationStat& stat : report.series) {
    table.AddRow({StrFormat("%d", stat.iteration),
                  StrFormat("%.9f", stat.wall_min),
                  StrFormat("%.9f", stat.wall_median),
                  StrFormat("%.9f", stat.wall_max),
                  StrFormat("%.9f", stat.wall_p99),
                  StrFormat("%.9f", stat.comm_mean),
                  StrFormat("%.9f", stat.compute_mean)});
  }
  return table.ToString();
}

std::string StragglerTable(const TimeSeriesReport& report) {
  if (report.stragglers.empty()) {
    return StrFormat(
        "stragglers: none (no worker above %.2fx the median %.9f s)\n",
        report.straggler_factor, report.median_worker_wall);
  }
  std::string out =
      StrFormat("stragglers (above %.2fx the median %.9f s):\n",
                report.straggler_factor, report.median_worker_wall);
  TablePrinter table({"worker", "mean wall (s)", "vs median"});
  for (const StragglerEntry& entry : report.stragglers) {
    table.AddRow({StrFormat("w%d", entry.worker),
                  StrFormat("%.9f", entry.mean_wall),
                  StrFormat("%.3fx", entry.ratio)});
  }
  out += table.ToString();
  return out;
}

}  // namespace spardl
