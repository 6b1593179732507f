#include "obs/exporters.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "common/strings.h"
#include "metrics/table.h"
#include "obs/json.h"
#include "simnet/cluster.h"
#include "topo/topology.h"

namespace spardl {

namespace {

// Graph-node display name: workers are "w<rank>", switches "s<id>".
std::string NodeName(int node, int num_workers) {
  return node < num_workers ? StrFormat("w%d", node)
                            : StrFormat("s%d", node);
}

// Spans carry a static `name` plus small-int args; the human-facing label
// is composed here so recording stays allocation-free.
std::string SpanDisplayName(const TraceSpan& span) {
  if (span.stream == kStreamLink) {
    return StrFormat("w%d->w%d", span.a, span.b);
  }
  if (std::strcmp(span.name, "send") == 0) {
    return StrFormat("send->w%d", span.a);
  }
  if (std::strcmp(span.name, "recv") == 0) {
    return StrFormat("recv<-w%d", span.a);
  }
  if (span.a >= 0) return StrFormat("%s-%d", span.name, span.a);
  return span.name;
}

// %.17g round-trips doubles exactly, so identical spans render identical
// text — the byte-identity guarantee rides on this.
std::string Num(double value) { return StrFormat("%.17g", value); }

std::string Micros(double seconds) { return Num(seconds * 1e6); }

void AppendEvent(std::string* out, const std::string& event) {
  if (out->back() != '[') out->push_back(',');
  out->push_back('\n');
  out->append(event);
}

void AppendThreadName(std::string* out, int tid, const std::string& name,
                      int sort_index) {
  AppendEvent(
      out,
      StrFormat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                tid, JsonEscape(name).c_str()));
  AppendEvent(
      out,
      StrFormat("{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%d,\"args\":{\"sort_index\":%d}}",
                tid, sort_index));
}

void AppendSpan(std::string* out, const TraceSpan& span, int tid) {
  const std::string name = JsonEscape(SpanDisplayName(span));
  const std::string cat(PhaseName(span.phase));
  std::string args;
  if (span.bytes > 0) {
    args = StrFormat(",\"args\":{\"bytes\":%llu}",
                     static_cast<unsigned long long>(span.bytes));
  }
  if (span.t1 <= span.t0) {
    // Zero-duration marks (sends) render as instant events.
    AppendEvent(out, StrFormat("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":"
                               "\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":0,"
                               "\"tid\":%d%s}",
                               name.c_str(), cat.c_str(),
                               Micros(span.t0).c_str(), tid, args.c_str()));
    return;
  }
  AppendEvent(out, StrFormat("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                             "\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d%s}",
                             name.c_str(), cat.c_str(),
                             Micros(span.t0).c_str(),
                             Micros(span.t1 - span.t0).c_str(), tid,
                             args.c_str()));
}

}  // namespace

std::string LinkDisplayName(const Topology& topology, int link) {
  const LinkInfo info = topology.link_info(link);
  const int p = topology.num_workers();
  return StrFormat("%s->%s", NodeName(info.tail, p).c_str(),
                   NodeName(info.head, p).c_str());
}

std::string ChromeTraceJson(const Cluster& cluster, size_t max_link_tracks) {
  std::string out = "{\"traceEvents\":[";
  const TraceRecorder* tracer = cluster.tracer();
  const int p = cluster.size();
  AppendEvent(&out,
              "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
              "\"args\":{\"name\":\"spardl\"}}");
  if (tracer != nullptr) {
    // Worker tracks: tid = rank; overlapped-compute tracks: tid = P + rank
    // (only when that stream carries spans); link tracks: tid = 2P + slot.
    for (int w = 0; w < p; ++w) {
      AppendThreadName(&out, w, StrFormat("w%d", w), w);
      const auto& spans = tracer->worker_spans(w);
      const bool has_compute =
          std::any_of(spans.begin(), spans.end(), [](const TraceSpan& s) {
            return s.stream == kStreamCompute;
          });
      if (has_compute) {
        AppendThreadName(&out, p + w, StrFormat("w%d compute", w), p + w);
      }
      for (const TraceSpan& span : spans) {
        AppendSpan(&out, span,
                   span.stream == kStreamCompute ? p + w : w);
      }
    }
    // Hot links: busiest traffic-carrying links first (stable tie-break on
    // LinkId keeps the track set deterministic).
    std::vector<TraceSpan> link_spans = tracer->link_spans();
    std::stable_sort(link_spans.begin(), link_spans.end(),
                     [](const TraceSpan& a, const TraceSpan& b) {
                       if (a.t0 != b.t0) return a.t0 < b.t0;
                       if (a.track != b.track) return a.track < b.track;
                       return a.t1 < b.t1;
                     });
    std::unordered_map<int, double> busy;
    for (const TraceSpan& span : link_spans) {
      busy[span.track] += span.t1 - span.t0;
    }
    std::vector<std::pair<int, double>> hot(busy.begin(), busy.end());
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (hot.size() > max_link_tracks) hot.resize(max_link_tracks);
    std::unordered_map<int, int> link_tid;
    for (size_t i = 0; i < hot.size(); ++i) {
      const int tid = 2 * p + static_cast<int>(i);
      link_tid.emplace(hot[i].first, tid);
      AppendThreadName(
          &out, tid,
          StrFormat("link %s",
                    LinkDisplayName(cluster.topology(), hot[i].first).c_str()),
          tid);
    }
    for (const TraceSpan& span : link_spans) {
      const auto it = link_tid.find(span.track);
      if (it != link_tid.end()) AppendSpan(&out, span, it->second);
    }
  }
  out += "\n]}\n";
  return out;
}

RunMetrics CollectRunMetrics(const Cluster& cluster,
                             const std::string& label) {
  RunMetrics metrics;
  metrics.label = label;
  metrics.topology = cluster.topology().Describe();
  metrics.engine =
      cluster.network().event_ordered() ? "event" : "closed-form";
  metrics.workers = cluster.size();
  metrics.makespan_seconds = cluster.MaxSimSeconds();
  metrics.total = cluster.TotalStats();
  const Topology& topology = cluster.topology();
  for (LinkId id = 0; id < topology.num_links(); ++id) {
    const LinkUsage usage = cluster.network().link_usage(id);
    if (usage.messages == 0) continue;
    RunMetrics::Link link;
    link.id = id;
    link.name = LinkDisplayName(topology, id);
    link.busy_seconds = usage.busy_seconds;
    link.bytes = usage.bytes;
    link.messages = usage.messages;
    link.max_queue_seconds = usage.max_queue_seconds;
    link.utilization = metrics.makespan_seconds > 0.0
                           ? usage.busy_seconds / metrics.makespan_seconds
                           : 0.0;
    metrics.links.push_back(std::move(link));
  }
  std::sort(metrics.links.begin(), metrics.links.end(),
            [](const RunMetrics::Link& a, const RunMetrics::Link& b) {
              if (a.busy_seconds != b.busy_seconds) {
                return a.busy_seconds > b.busy_seconds;
              }
              return a.id < b.id;
            });
  return metrics;
}

std::string RunMetricsJson(const std::vector<RunMetrics>& runs) {
  std::string out = "{\"schema\":\"spardl-run-metrics/2\",\"runs\":[";
  for (size_t r = 0; r < runs.size(); ++r) {
    const RunMetrics& run = runs[r];
    if (r > 0) out.push_back(',');
    out += StrFormat(
        "\n{\"label\":\"%s\",\"topology\":\"%s\",\"engine\":\"%s\","
        "\"workers\":%d,\"makespan_seconds\":%s,",
        JsonEscape(run.label).c_str(), JsonEscape(run.topology).c_str(),
        JsonEscape(run.engine).c_str(), run.workers,
        Num(run.makespan_seconds).c_str());
    out += StrFormat(
        "\"comm_seconds\":%s,\"compute_seconds\":%s,"
        "\"messages_sent\":%llu,\"words_sent\":%llu,"
        "\"messages_received\":%llu,\"words_received\":%llu,",
        Num(run.total.comm_seconds).c_str(),
        Num(run.total.compute_seconds).c_str(),
        static_cast<unsigned long long>(run.total.messages_sent),
        static_cast<unsigned long long>(run.total.words_sent),
        static_cast<unsigned long long>(run.total.messages_received),
        static_cast<unsigned long long>(run.total.words_received));
    out += "\"phase_seconds\":{";
    bool first = true;
    for (size_t i = 0; i < kNumPhases; ++i) {
      if (run.total.phase_seconds[i] == 0.0) continue;
      if (!first) out.push_back(',');
      first = false;
      out += StrFormat("\"%s\":%s",
                       std::string(PhaseName(static_cast<Phase>(i))).c_str(),
                       Num(run.total.phase_seconds[i]).c_str());
    }
    out += "},\"links\":[";
    for (size_t i = 0; i < run.links.size(); ++i) {
      const RunMetrics::Link& link = run.links[i];
      if (i > 0) out.push_back(',');
      out += StrFormat(
          "\n{\"link\":%d,\"name\":\"%s\",\"busy_seconds\":%s,"
          "\"bytes\":%llu,\"messages\":%llu,\"max_queue_seconds\":%s,"
          "\"utilization\":%s}",
          link.id, JsonEscape(link.name).c_str(),
          Num(link.busy_seconds).c_str(),
          static_cast<unsigned long long>(link.bytes),
          static_cast<unsigned long long>(link.messages),
          Num(link.max_queue_seconds).c_str(),
          Num(link.utilization).c_str());
    }
    out += "]";
    if (!run.analysis_json.empty()) {
      out += ",\"analysis\":";
      out += run.analysis_json;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string LinkUtilizationTable(const RunMetrics& metrics, size_t top_n) {
  TablePrinter table({"link", "busy (s)", "util", "bytes", "msgs",
                      "max queue (s)"});
  // Re-sort defensively: `CollectRunMetrics` emits the total order
  // (busy desc, id asc), but hand-built RunMetrics may not — equal-busy
  // links must not depend on input order.
  std::vector<RunMetrics::Link> links = metrics.links;
  std::sort(links.begin(), links.end(),
            [](const RunMetrics::Link& a, const RunMetrics::Link& b) {
              if (a.busy_seconds != b.busy_seconds) {
                return a.busy_seconds > b.busy_seconds;
              }
              return a.id < b.id;
            });
  const size_t n = std::min(top_n, links.size());
  for (size_t i = 0; i < n; ++i) {
    const RunMetrics::Link& link = links[i];
    table.AddRow({link.name, StrFormat("%.6f", link.busy_seconds),
                  StrFormat("%.1f%%", link.utilization * 100.0),
                  HumanBytes(static_cast<double>(link.bytes)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(link.messages)),
                  StrFormat("%.6f", link.max_queue_seconds)});
  }
  return table.ToString();
}

std::string TopPhasesTable(const RunMetrics& metrics) {
  TablePrinter table({"phase", "seconds", "share"});
  // Phase buckets sum over all workers, so the honest denominator is
  // total worker-time, not the makespan.
  const double makespan =
      metrics.makespan_seconds * std::max(1, metrics.workers);
  std::vector<std::pair<double, Phase>> rows;
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (metrics.total.phase_seconds[i] == 0.0) continue;
    rows.emplace_back(metrics.total.phase_seconds[i],
                      static_cast<Phase>(i));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (const auto& [seconds, phase] : rows) {
    table.AddRow({std::string(PhaseName(phase)),
                  StrFormat("%.6f", seconds),
                  makespan > 0.0 ? StrFormat("%.1f%%", seconds / makespan *
                                                           100.0)
                                 : "-"});
  }
  table.AddRow({"comm (total)", StrFormat("%.6f", metrics.total.comm_seconds),
                makespan > 0.0
                    ? StrFormat("%.1f%%",
                                metrics.total.comm_seconds / makespan * 100.0)
                    : "-"});
  table.AddRow(
      {"compute (total)", StrFormat("%.6f", metrics.total.compute_seconds),
       makespan > 0.0
           ? StrFormat("%.1f%%",
                       metrics.total.compute_seconds / makespan * 100.0)
           : "-"});
  return table.ToString();
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  out.flush();
  return out.good();
}

}  // namespace spardl
