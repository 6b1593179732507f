// Host-time benchmark of the SparDL simulator: what it costs, in wall
// clock and memory, to produce the simulated numbers.
//
// One process runs one workload. It sets the workload up several times
// (cluster, algorithm instances, one warmup op) and keeps the last set-up,
// then runs ops in a closed loop — each starts after the previous one
// returned — for `--seconds` (or exactly `--updates` ops). An op is one
// S-SGD update, or one whole training run for the training workload.
// Every op's output is checked. The last stdout line is one JSON object
// with the metrics, each as {"value", "unit"}, the attempted and failed op
// counts, and the reasons for any failure.
//
// With `--trace-out FILE` the process also attributes time to the
// library's layers from the outside: every second op is traced (spans
// around `Cluster::Run` and each worker's gradient production), probes
// after the loop time the sparse kernels, the dense model step and simnet
// message movement, and all spans are written to FILE as Chrome-trace
// JSON.
//
// The benchmark calls only the library's user-facing API, so a change to the
// simulator's internals never requires a change here. Run it through
// run.py, which sets SPARDL_EXEC_BACKEND=fiber (all workers on one OS
// thread).

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "core/sparse_allreduce.h"
#include "dl/cases.h"
#include "dl/data.h"
#include "dl/grad_profile.h"
#include "dl/loss.h"
#include "dl/model.h"
#include "dl/trainer.h"
#include "simnet/cluster.h"
#include "simnet/comm.h"
#include "sparse/sparse_vector.h"
#include "sparse/topk.h"
#include "topo/topology_spec.h"

namespace {

using spardl::Cluster;
using spardl::Comm;
using spardl::SparseAllReduce;
using spardl::SparseVector;

// ---------------------------------------------------------------------------
// Workloads. Each stresses a different layer; README.md says why each was
// chosen and which layer metric should move which end-to-end metric.

struct Workload {
  std::string_view name;
  std::string_view algo;    // CreateAlgorithm name
  std::string_view fabric;  // TopologySpec::Parse text
  int workers;
  // Per-update workloads: gradient length, k/n, and candidates per worker
  // as a multiple of k (the per-update benches' 1.5k).
  size_t n;
  double k_ratio;
  double candidate_factor;
  // Training workload: TrainDistributed on the vgg19-like MLP.
  bool train;
};

constexpr Workload kWorkloads[] = {
    {"paper_p14_flat", "spardl", "flat", 14, 20'100'000, 0.01, 1.5, false},
    {"largep_p1024_fattree", "spardl", "fattree:8x4x2+event", 1024,
     4'000'000, 0.001, 1.5, false},
    {"topka_p64_fattree", "topka", "fattree:8x4x2+event", 64, 4'000'000,
     0.001, 1.5, false},
    {"train_vgg19_p8_flat", "spardl", "flat", 8, 0, 0.01, 0.0, true},
};

// Short training runs: ten per measured run instead of a few, and a cheap
// warmup run in each set-up.
constexpr int kTrainEpochs = 2;
constexpr int kTrainIterationsPerEpoch = 10;
constexpr int kTrainIterations = kTrainEpochs * kTrainIterationsPerEpoch;

// Set-up is repeated and its median reported, so one cold start does not
// decide `setup_s`. Each set-up runs a warmup op (2.5 s on the P = 1024
// workload), so three keep every run under half a minute.
constexpr int kSetupRepeats = 3;
// Time-bounded runs still measure at least this many ops.
constexpr int64_t kMinOps = 3;
// The simulated and count metrics cover the first measured ops only, so
// they do not depend on how many ops the wall clock allowed.
constexpr int64_t kSimWindow = 3;
constexpr int kSparseProbeRepeats = 5;
constexpr int kDenseProbeRepeats = 60;
constexpr int kSimnetProbeRepeats = 3;
constexpr int kRingRounds = 20;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "spardl_benchmark: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Clocks, process counters and statistics.

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

// A field of /proc/self/status ("VmHWM" in kB, "Threads" as a count).
long ProcStatus(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  Die(std::string("no ") + field + " in /proc/self/status");
}

// CPUs this process may run on — what `nproc` prints.
int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// Bytes currently allocated from the heap, mmap'd chunks included.
double HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

// Quantile with linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Host speed on a shared machine swings by tens of percent over seconds
// as neighbours come and go; one process can run 40% slower than the
// next. A fixed kernel that owes nothing to the library — sorting the
// same 64k pseudo-random integers — is timed between ops, and each op's
// time divided by the kernel times around it: the op's cost in "ref"
// units, which stays put while raw times swing. README.md gives the
// measured spreads of both.
double ReferenceKernelMs() {
  static const std::vector<uint32_t> input = [] {
    std::vector<uint32_t> v(1 << 16);
    uint32_t x = 12345;
    for (uint32_t& e : v) {
      x = x * 1664525u + 1013904223u;
      e = x;
    }
    return v;
  }();
  static std::vector<uint32_t> work;
  const int64_t start = NowNs();
  work = input;
  std::sort(work.begin(), work.end());
  const int64_t end = NowNs();
  if (work.front() > work.back()) Die("reference kernel did not sort");
  return MsBetween(start, end);
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written as Chrome-trace JSON at exit.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index of the enclosing span, -1 for a root
  int64_t op;  // measured op id, -1 outside the loop
  int tid;     // 0 for the main loop, 1 + rank for a worker
};

class SpanLog {
 public:
  int Open(const char* name, int parent = -1, int64_t op = -1) {
    spans_.push_back(Span{name, NowNs(), 0, parent, op, 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Closes span `id` and returns its duration in ms.
  double Close(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = NowNs();
    return MsBetween(span.start_ns, span.end_ns);
  }

  // Records a finished span; returns its id.
  int Add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  void WriteChrome(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) Die("cannot write trace " + path);
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"op\": %lld}}\n",
                   i == 0 ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, static_cast<long long>(s.op));
    }
    std::fprintf(out, "]}\n");
    if (std::fclose(out) != 0) Die("cannot write trace " + path);
  }

 private:
  std::vector<Span> spans_;
};

// Times `fn` under a span; returns the duration in ms.
template <typename Fn>
double Timed(SpanLog& spans, const char* name, Fn&& fn) {
  const int id = spans.Open(name);
  fn();
  return spans.Close(id);
}

// ---------------------------------------------------------------------------
// The report printed as the last stdout line.

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  void Attempt() { ++attempted_; }

  void Fail(const std::string& reason) {
    ++failed_;
    if (reasons_.size() < 8) reasons_.push_back(reason);
  }

  void Print(std::string_view workload, uint64_t seed) const {
    std::printf("{\"workload\": \"%.*s\", \"seed\": %llu, \"attempted\": "
                "%lld, \"failed\": %lld, \"failures\": [",
                static_cast<int>(workload.size()), workload.data(),
                static_cast<unsigned long long>(seed),
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    for (size_t i = 0; i < reasons_.size(); ++i) {
      std::string clean = reasons_[i];
      std::replace_if(
          clean.begin(), clean.end(),
          [](char c) { return c == '"' || c == '\\' || c < 0x20; }, ' ');
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", clean.c_str());
    }
    std::printf("], \"metrics\": {");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name, m.value, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

  int64_t failed() const { return failed_; }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> reasons_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Output checks.

// FNV-1a over a sparse vector's indices and value bits; `valid` is false
// for an empty vector, an index outside [0, n) or a non-finite value.
struct Digest {
  uint64_t hash = 0;
  bool valid = false;
};

Digest DigestOf(const SparseVector& v, size_t n) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  bool valid = !v.empty();
  for (size_t i = 0; i < v.size(); ++i) {
    const float value = v.value(i);
    uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix(v.index(i));
    mix(bits);
    valid = valid && v.index(i) < n && std::isfinite(value);
  }
  return Digest{h, valid};
}

// Empty when every worker returned the same valid global gradient.
std::string CheckDigests(const std::vector<Digest>& digests) {
  for (size_t r = 0; r < digests.size(); ++r) {
    if (!digests[r].valid) {
      return "worker " + std::to_string(r) +
             " returned an empty, out-of-range or non-finite gradient";
    }
    if (digests[r].hash != digests[0].hash) {
      return "worker " + std::to_string(r) +
             "'s global gradient differs from worker 0's";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Rigs: one workload's cluster and algorithm state, and its op.

// The simulation's own counters, per S-SGD update.
struct SimCounts {
  double sim_ms = 0.0;
  double messages = 0.0;
  double words = 0.0;
  double hops = 0.0;
};

SimCounts ReadSimCounts(const Cluster& cluster, double updates) {
  const spardl::CommStats stats = cluster.TotalStats();
  double hops = 0.0;
  for (int link = 0; link < cluster.topology().num_links(); ++link) {
    hops += static_cast<double>(cluster.network().link_usage(link).messages);
  }
  return SimCounts{cluster.MaxSimSeconds() * 1e3 / updates,
                   static_cast<double>(stats.messages_sent) / updates,
                   static_cast<double>(stats.words_sent) / updates,
                   hops / updates};
}

spardl::TopologySpec FabricOf(const Workload& w) {
  auto spec = spardl::TopologySpec::Parse(w.fabric, w.workers);
  if (!spec.ok()) Die(spec.status().ToString());
  return *spec;
}

size_t KOf(size_t n, double k_ratio) {
  return std::max<size_t>(
      1, static_cast<size_t>(k_ratio * static_cast<double>(n)));
}

std::unique_ptr<SparseAllReduce> MakeAlgorithm(const Workload& w, size_t n) {
  spardl::AlgorithmConfig config;
  config.n = n;
  config.k = KOf(n, w.k_ratio);
  config.num_workers = w.workers;
  if (!w.train) config.residual_mode = spardl::ResidualMode::kNone;
  auto created = spardl::CreateAlgorithm(w.algo, config);
  if (!created.ok()) Die(created.status().ToString());
  return std::move(*created);
}

// The vgg19 case's dataset shape (128 features, 20 classes, noise 1.6),
// seeded from the run's seed instead of the case's fixed one.
std::unique_ptr<spardl::Dataset> VggDataset(uint64_t seed) {
  return spardl::MakeSyntheticClassification(128, 20, 1.6f, seed);
}

// Sparsifiable gradient of `model` on one training batch.
void ModelStep(spardl::Model& model, const spardl::Batch& batch) {
  model.ZeroGrads();
  const spardl::Matrix logits = model.Forward(batch.inputs);
  const spardl::LossResult loss =
      spardl::SoftmaxCrossEntropy(logits, batch.labels);
  model.Backward(loss.grad);
}

struct OpOutcome {
  double update_ms = 0.0;  // wall ms per S-SGD update
  double dl_ms = 0.0;      // traced ops: gradient production per update
  std::string error;       // empty when every output check passed
  std::optional<double> loss;
};

class Rig {
 public:
  virtual ~Rig() = default;
  // Set-up in two timed phases, on a freshly constructed rig.
  virtual void BuildCluster() = 0;
  virtual void BuildAlgorithms() = 0;
  virtual int updates_per_op() const = 0;
  // Op 0 is the warmup. `spans` is non-null for traced ops, with `parent`
  // the op's span.
  virtual OpOutcome RunOp(int64_t op, SpanLog* spans, int parent) = 0;
  // Zeroes the simulation's counters before the first measured op.
  virtual void ResetCounts() = 0;
  virtual SimCounts ReadCounts(int64_t ops_since_reset) const = 0;
  // Checks the last op's output against what its inputs allow; empty
  // when it holds.
  virtual std::string CheckReference(int64_t op) const = 0;
  // One op's worth of real per-worker sparse inputs, and the k the
  // algorithm selects from them, for the sparse-kernel probe.
  virtual std::vector<SparseVector> ProbeCandidates(int64_t op) const = 0;
  virtual size_t probe_k() const = 0;
};

// One SparseAllReduce::RunOnSparse per op over freshly generated
// candidates, as the per-update benches measure it.
class SparseUpdateRig final : public Rig {
 public:
  SparseUpdateRig(const Workload& w, uint64_t seed)
      : w_(w),
        k_(KOf(w.n, w.k_ratio)),
        count_(std::max<size_t>(
            k_, static_cast<size_t>(w.candidate_factor *
                                    static_cast<double>(k_)))),
        generator_(w.n, seed) {}

  void BuildCluster() override {
    cluster_ = std::make_unique<Cluster>(FabricOf(w_));
  }

  void BuildAlgorithms() override {
    for (int r = 0; r < w_.workers; ++r) {
      algos_.push_back(MakeAlgorithm(w_, w_.n));
    }
  }

  int updates_per_op() const override { return 1; }

  OpOutcome RunOp(int64_t op, SpanLog* spans, int parent) override {
    const auto p = static_cast<size_t>(w_.workers);
    std::vector<Digest> digests(p);
    std::vector<std::pair<int64_t, int64_t>> generate(p);
    const bool traced = spans != nullptr;
    const int64_t start = NowNs();
    const spardl::Status status = cluster_->Run([&](Comm& comm) {
      const auto r = static_cast<size_t>(comm.rank());
      const int64_t generate_start = traced ? NowNs() : 0;
      const SparseVector candidates =
          generator_.Generate(comm.rank(), op, count_);
      if (traced) generate[r] = {generate_start, NowNs()};
      SparseVector global = algos_[r]->RunOnSparse(comm, candidates);
      digests[r] = DigestOf(global, w_.n);
      if (r == 0) last_global_ = std::move(global);
      comm.BarrierSyncClocks();
    });
    const int64_t end = NowNs();
    if (!status.ok()) Die("Cluster::Run: " + status.ToString());
    OpOutcome out;
    out.update_ms = MsBetween(start, end);
    if (traced) {
      const int run_span =
          spans->Add(Span{"cluster.run", start, end, parent, op, 0});
      for (size_t r = 0; r < p; ++r) {
        spans->Add(Span{"generate", generate[r].first, generate[r].second,
                        run_span, op, static_cast<int>(r) + 1});
        out.dl_ms += MsBetween(generate[r].first, generate[r].second);
      }
    }
    out.error = CheckDigests(digests);
    return out;
  }

  void ResetCounts() override { cluster_->ResetClocksAndStats(); }

  SimCounts ReadCounts(int64_t ops_since_reset) const override {
    return ReadSimCounts(*cluster_, static_cast<double>(ops_since_reset));
  }

  // Every global index must come from some worker's candidates, and
  // TopkA's sum is exact: the rank-ordered SumAll of each worker's top-k.
  std::string CheckReference(int64_t op) const override {
    const std::vector<SparseVector> candidates = ProbeCandidates(op);
    std::vector<bool> offered(w_.n, false);
    for (const SparseVector& c : candidates) {
      for (const spardl::GradIndex i : c.indices()) offered[i] = true;
    }
    for (const spardl::GradIndex i : last_global_.indices()) {
      if (!offered[i]) {
        return "global index " + std::to_string(i) +
               " is in no worker's candidates";
      }
    }
    if (w_.algo == "topka") {
      std::vector<SparseVector> kept(candidates.size());
      for (size_t r = 0; r < candidates.size(); ++r) {
        spardl::TopKSparse(candidates[r], k_, &kept[r]);
      }
      if (!(spardl::SumAll(kept) == last_global_)) {
        return "TopkA's global gradient differs from the sum of every "
               "worker's top-k";
      }
    }
    return "";
  }

  std::vector<SparseVector> ProbeCandidates(int64_t op) const override {
    std::vector<SparseVector> candidates;
    for (int r = 0; r < w_.workers; ++r) {
      candidates.push_back(generator_.Generate(r, op, count_));
    }
    return candidates;
  }

  size_t probe_k() const override { return k_; }

 private:
  const Workload& w_;
  size_t k_;
  size_t count_;
  spardl::ProfileGradientGenerator generator_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<SparseAllReduce>> algos_;
  SparseVector last_global_;  // worker 0's output of the last op
};

// Records, per worker, the wall time between one SparseAllReduce::Run
// returning and the next one starting: the trainer's batch, forward,
// loss, backward and optimizer step. No fiber yields inside that gap. The
// first iteration of each epoch follows the epoch-boundary barriers and
// is skipped.
class StepTimer {
 public:
  explicit StepTimer(int workers) : workers_(static_cast<size_t>(workers)) {}

  void Enter(int rank) {
    Worker& w = workers_[static_cast<size_t>(rank)];
    if (w.calls % kTrainIterationsPerEpoch != 0) {
      w.gaps.emplace_back(w.last_exit_ns, NowNs());
    }
  }

  void Exit(int rank) {
    Worker& w = workers_[static_cast<size_t>(rank)];
    w.last_exit_ns = NowNs();
    ++w.calls;
  }

  // Sum over workers of the mean gap: dl time per S-SGD update. Adds one
  // "dl.step" span per gap.
  double PerUpdateMs(SpanLog& spans, int parent, int64_t op) const {
    double total = 0.0;
    for (size_t r = 0; r < workers_.size(); ++r) {
      const auto& gaps = workers_[r].gaps;
      if (gaps.empty()) continue;
      double sum = 0.0;
      for (const auto& [start, end] : gaps) {
        spans.Add(Span{"dl.step", start, end, parent, op,
                       static_cast<int>(r) + 1});
        sum += MsBetween(start, end);
      }
      total += sum / static_cast<double>(gaps.size());
    }
    return total;
  }

 private:
  struct Worker {
    int64_t last_exit_ns = 0;
    int64_t calls = 0;
    std::vector<std::pair<int64_t, int64_t>> gaps;
  };
  std::vector<Worker> workers_;
};

// Forwards to the real algorithm, timing the trainer's work around it.
class TimedAllReduce final : public SparseAllReduce {
 public:
  TimedAllReduce(std::unique_ptr<SparseAllReduce> inner, StepTimer* timer)
      : inner_(std::move(inner)), timer_(timer) {}

  SparseVector Run(Comm& comm, std::span<float> grad) override {
    timer_->Enter(comm.rank());
    SparseVector global = inner_->Run(comm, grad);
    timer_->Exit(comm.rank());
    return global;
  }

  SparseVector RunOnSparse(Comm& comm,
                           const SparseVector& candidates) override {
    return inner_->RunOnSparse(comm, candidates);
  }

  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<SparseAllReduce> inner_;
  StepTimer* timer_;
};

// One whole TrainDistributed run per op: the dense Run path with GRES
// residuals and the dl model.
class TrainRig final : public Rig {
 public:
  TrainRig(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {}

  void BuildCluster() override {
    cluster_ = std::make_unique<Cluster>(FabricOf(w_));
  }

  void BuildAlgorithms() override {
    spec_ = spardl::MakeTrainingCase("vgg19");
    dataset_ = VggDataset(seed_);
    config_ = spec_.default_config;
    config_.epochs = kTrainEpochs;
    config_.iterations_per_epoch = kTrainIterationsPerEpoch;
    config_.model_seed = seed_;
  }

  int updates_per_op() const override { return kTrainIterations; }

  OpOutcome RunOp(int64_t op, SpanLog* spans, int parent) override {
    StepTimer timer(w_.workers);
    const spardl::AlgorithmFactory factory =
        [&](size_t n) -> std::unique_ptr<SparseAllReduce> {
      std::unique_ptr<SparseAllReduce> algo = MakeAlgorithm(w_, n);
      if (spans == nullptr) return algo;
      return std::make_unique<TimedAllReduce>(std::move(algo), &timer);
    };
    const int64_t start = NowNs();
    const spardl::TrainResult result = spardl::TrainDistributed(
        *cluster_, *dataset_, spec_.model_factory, factory, config_);
    OpOutcome out;
    out.update_ms = MsBetween(start, NowNs()) / kTrainIterations;
    if (spans != nullptr) out.dl_ms = timer.PerUpdateMs(*spans, parent, op);
    out.loss = result.epochs.back().train_loss;
    if (!result.replicas_consistent) {
      out.error = "replicas diverged";
    } else if (!std::isfinite(*out.loss)) {
      out.error = "non-finite training loss";
    }
    return out;
  }

  // TrainResult::replicas_consistent already compares every replica.
  std::string CheckReference(int64_t /*op*/) const override { return ""; }

  // TrainDistributed zeroes the counters at the start of every run.
  void ResetCounts() override {}

  SimCounts ReadCounts(int64_t /*ops_since_reset*/) const override {
    return ReadSimCounts(*cluster_, kTrainIterations);
  }

  // Every worker's dense gradient on its first batch.
  std::vector<SparseVector> ProbeCandidates(int64_t /*op*/) const override {
    std::unique_ptr<spardl::Model> model = spec_.model_factory(seed_);
    std::vector<SparseVector> candidates;
    for (int r = 0; r < w_.workers; ++r) {
      ModelStep(*model, dataset_->TrainBatch(r, 0, config_.batch_size));
      candidates.push_back(SparseVector::FromDense(model->grads()));
    }
    return candidates;
  }

  size_t probe_k() const override {
    return KOf(spec_.model_factory(seed_)->num_params(), w_.k_ratio);
  }

 private:
  const Workload& w_;
  uint64_t seed_;
  std::unique_ptr<Cluster> cluster_;
  spardl::TrainingCaseSpec spec_;
  std::unique_ptr<spardl::Dataset> dataset_;
  spardl::TrainerConfig config_;
};

// ---------------------------------------------------------------------------
// Probes: per-layer costs, measured after the loop.

// Top-k selection, pairwise merge and P-way sum over one op's inputs.
void ProbeSparse(const std::vector<SparseVector>& candidates, size_t k,
                 SpanLog& spans, Report& report) {
  double entries = 0.0;
  double pair_entries = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    entries += static_cast<double>(candidates[i].size());
    if (i + 1 < candidates.size() && i % 2 == 0) {
      pair_entries += static_cast<double>(candidates[i].size() +
                                          candidates[i + 1].size());
    }
  }
  spardl::TopKSelector selector;
  SparseVector out;
  std::vector<double> select_ms, merge_ms, sumall_ms;
  for (int rep = 0; rep < kSparseProbeRepeats; ++rep) {
    select_ms.push_back(Timed(spans, "probe.sparse.select", [&] {
      for (const SparseVector& c : candidates) {
        selector.SelectSparse(c, k, &out, nullptr);
      }
    }));
    merge_ms.push_back(Timed(spans, "probe.sparse.merge", [&] {
      for (size_t i = 0; i + 1 < candidates.size(); i += 2) {
        spardl::MergeSum(candidates[i], candidates[i + 1], &out);
      }
    }));
    sumall_ms.push_back(Timed(spans, "probe.sparse.sumall", [&] {
      out = spardl::SumAll(candidates);
    }));
  }
  report.Add("sparse.select_ns_per_entry", Median(select_ms) * 1e6 / entries,
             "ns");
  report.Add("sparse.merge_ns_per_entry",
             Median(merge_ms) * 1e6 / pair_entries, "ns");
  report.Add("sparse.sumall_ns_per_entry", Median(sumall_ms) * 1e6 / entries,
             "ns");
}

// The dl model step and dense top-k on the vgg19-like MLP — the same
// probe on every workload.
void ProbeDense(uint64_t seed, SpanLog& spans, Report& report) {
  const spardl::TrainingCaseSpec spec = spardl::MakeTrainingCase("vgg19");
  std::unique_ptr<spardl::Model> model = spec.model_factory(seed);
  const spardl::Batch batch =
      VggDataset(seed)->TrainBatch(0, 0, spec.default_config.batch_size);
  std::vector<double> step_ms;
  for (int rep = 0; rep < kDenseProbeRepeats; ++rep) {
    step_ms.push_back(
        Timed(spans, "probe.dl.model_step", [&] { ModelStep(*model, batch); }));
  }
  const size_t n = model->num_params();
  const size_t k = KOf(n, 0.01);
  SparseVector kept;
  std::vector<double> select_ms;
  for (int rep = 0; rep < kDenseProbeRepeats; ++rep) {
    select_ms.push_back(Timed(spans, "probe.sparse.select_dense", [&] {
      spardl::TopKDense(model->grads(), 0, k, &kept);
    }));
  }
  report.Add("dl.model_step_ms", Median(step_ms), "ms");
  report.Add("sparse.select_dense_ns_per_entry",
             Median(select_ms) * 1e6 / static_cast<double>(n), "ns");
}

// Message movement and barriers on a fresh cluster of the workload's
// fabric and size, plus the heap that cluster holds before any message.
void ProbeSimnet(const Workload& w, SpanLog& spans, Report& report) {
  const spardl::TopologySpec fabric = FabricOf(w);
  const double heap_before = HeapBytes();
  Cluster cluster(fabric);
  report.Add("simnet.cluster_mb", (HeapBytes() - heap_before) / (1 << 20),
             "MiB");
  const int p = w.workers;
  auto run = [&](const char* name, auto&& worker_fn) {
    const double ms = Timed(spans, name, [&] {
      const spardl::Status status = cluster.Run(worker_fn);
      if (!status.ok()) Die(std::string(name) + ": " + status.ToString());
    });
    return ms * 1e3 / (static_cast<double>(kRingRounds) * p);
  };
  std::vector<double> ring_us, barrier_us;
  for (int rep = 0; rep < kSimnetProbeRepeats; ++rep) {
    ring_us.push_back(run("probe.simnet.ring", [p](Comm& comm) {
      const int next = (comm.rank() + 1) % p;
      const int prev = (comm.rank() + p - 1) % p;
      for (int round = 0; round < kRingRounds; ++round) {
        comm.Send(next, std::vector<float>(1, 1.0f), round);
        comm.Recv(prev, round);
      }
    }));
    barrier_us.push_back(run("probe.simnet.barrier", [](Comm& comm) {
      for (int round = 0; round < kRingRounds; ++round) {
        comm.BarrierSyncClocks();
      }
    }));
  }
  report.Add("simnet.ring_msg_us", Median(ring_us), "us");
  report.Add("simnet.barrier_us", Median(barrier_us), "us");
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 2024;
  double seconds = 10.0;
  int64_t ops = 0;  // > 0: exactly this many ops, whatever the time
  std::string trace_out;
};

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + std::string(flag));
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--updates") {
      opt.ops = std::strtoll(value, &end, 10);
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      Die("unknown flag " + std::string(flag) +
          " (flags: --workload --seed --seconds --updates --trace-out)");
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Die("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (!(opt.seconds > 0.0)) Die("--seconds must be positive");
  if (opt.ops < 0) Die("--updates must be non-negative");
  if (!opt.trace_out.empty() && opt.ops == 1) {
    Die("tracing alternates untraced and traced ops: --updates must be >= 2");
  }
  return opt;
}

const Workload& FindWorkload(std::string_view name) {
  std::string known;
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
    known += " " + std::string(w.name);
  }
  Die("unknown --workload '" + std::string(name) + "'; known:" + known);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  const Workload& w = FindWorkload(opt.workload);
  const bool tracing = !opt.trace_out.empty();
  SpanLog spans;
  Report report;

  const int cpus = UsableCpus();
  long max_threads = 0;
  auto check_threads = [&]() -> std::string {
    const long threads = ProcStatus("Threads");
    max_threads = std::max(max_threads, threads);
    if (threads <= cpus) return "";
    return std::to_string(threads) + " threads on " + std::to_string(cpus) +
           " CPUs";
  };

  std::unique_ptr<Rig> rig;
  std::vector<double> setup_ms, cluster_ms, algos_ms, warmup_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();  // tear the previous set-up down outside the timers
    if (w.train) {
      rig = std::make_unique<TrainRig>(w, opt.seed);
    } else {
      rig = std::make_unique<SparseUpdateRig>(w, opt.seed);
    }
    const int setup = spans.Open("setup");
    const int64_t start = NowNs();
    const int phase = spans.Open("setup.cluster", setup);
    rig->BuildCluster();
    cluster_ms.push_back(spans.Close(phase));
    const int algos = spans.Open("setup.algos", setup);
    rig->BuildAlgorithms();
    algos_ms.push_back(spans.Close(algos));
    const int warmup = spans.Open("setup.warmup", setup);
    report.Attempt();
    const OpOutcome warm = rig->RunOp(0, nullptr, -1);
    warmup_ms.push_back(spans.Close(warmup));
    setup_ms.push_back(MsBetween(start, NowNs()));
    spans.Close(setup);
    if (!warm.error.empty()) report.Fail("warmup: " + warm.error);
  }

  // An op's cost is its time over the mean of the reference-kernel times
  // just before and after it. The first kernel call pays for the kernel's
  // own allocation and is dropped.
  ReferenceKernelMs();
  double ref_before = ReferenceKernelMs();
  auto cost = [&ref_before](double ms) {
    const double ref_after = ReferenceKernelMs();
    const double ratio = ms / (0.5 * (ref_before + ref_after));
    ref_before = ref_after;
    return ratio;
  };

  rig->ResetCounts();
  std::vector<double> plain_ms, plain_cost, traced_ms, dl_ms, collective_ms;
  SimCounts counts;
  std::optional<double> loss;
  const int64_t loop_start = NowNs();
  int64_t op = 0;
  while (opt.ops > 0 ? op < opt.ops
                     : op < kMinOps ||
                           MsBetween(loop_start, NowNs()) < opt.seconds * 1e3) {
    ++op;
    const bool traced = tracing && op % 2 == 0;
    const int op_span = traced ? spans.Open("op", -1, op) : -1;
    report.Attempt();
    const OpOutcome out = rig->RunOp(op, traced ? &spans : nullptr, op_span);
    if (traced) spans.Close(op_span);
    const double op_cost = cost(out.update_ms);
    std::string error = out.error;
    if (error.empty()) error = check_threads();
    if (!error.empty()) report.Fail("op " + std::to_string(op) + ": " + error);
    if (traced) {
      traced_ms.push_back(out.update_ms);
      dl_ms.push_back(out.dl_ms);
      collective_ms.push_back(out.update_ms - out.dl_ms);
    } else {
      plain_ms.push_back(out.update_ms);
      plain_cost.push_back(op_cost);
    }
    if (op <= kSimWindow) counts = rig->ReadCounts(op);
    if (out.loss) loss = out.loss;
  }
  const double loop_s = MsBetween(loop_start, NowNs()) * 1e-3;
  // Read before the reference check and the probes allocate their inputs.
  const double peak_rss_mb = static_cast<double>(ProcStatus("VmHWM")) / 1024;
  const std::string reference = rig->CheckReference(op);
  if (!reference.empty()) {
    report.Fail("op " + std::to_string(op) + ": " + reference);
  }

  report.Add("update_cost_p50", Median(plain_cost), "ref");
  report.Add("setup_s", Median(setup_ms) * 1e-3, "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MiB");
  report.Add("updates_per_s",
             static_cast<double>(op * rig->updates_per_op()) / loop_s, "1/s");
  report.Add("update_ms_p50", Median(plain_ms), "ms");
  // A percentile is shown only when at least ten samples lie beyond it.
  if (plain_ms.size() >= 40) {
    report.Add("update_ms_p75", Quantile(plain_ms, 0.75), "ms");
  }
  report.Add("sim_ms_per_update", counts.sim_ms, "ms");
  report.Add("simnet.msgs_per_update", counts.messages, "count");
  report.Add("simnet.words_per_update", counts.words, "words");
  report.Add("des.hops_per_update", counts.hops, "count");
  report.Add("setup.cluster_ms", Median(cluster_ms), "ms");
  report.Add("setup.algos_ms", Median(algos_ms), "ms");
  report.Add("setup.warmup_ms", Median(warmup_ms), "ms");
  if (loss) report.Add("train_loss_final", *loss, "loss");

  if (tracing) {
    report.Add("dl.generate_ms", Median(dl_ms), "ms");
    report.Add("collective_ms", Median(collective_ms), "ms");
    report.Add("trace_overhead_pct",
               (Median(traced_ms) / Median(plain_ms) - 1.0) * 100.0, "%");
    ProbeSparse(rig->ProbeCandidates(op + 1), rig->probe_k(), spans, report);
    ProbeDense(opt.seed, spans, report);
    ProbeSimnet(w, spans, report);
    spans.WriteChrome(opt.trace_out);
  }
  const std::string threads_error = check_threads();
  if (!threads_error.empty()) report.Fail("after the loop: " + threads_error);
  report.Add("threads_max", static_cast<double>(max_threads), "count");
  report.Add("nproc", static_cast<double>(cpus), "count");
  report.Print(w.name, opt.seed);
  return report.failed() == 0 ? 0 : 1;
}
