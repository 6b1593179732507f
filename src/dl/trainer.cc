#include "dl/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "dl/loss.h"

namespace spardl {

namespace {

LossResult ComputeLoss(const Dataset& dataset, const Matrix& outputs,
                       const Batch& batch) {
  if (dataset.is_classification()) {
    return SoftmaxCrossEntropy(outputs, batch.labels);
  }
  return MeanSquaredError(outputs, batch.targets);
}

/// The bucketed modes' shared schedule, computed once before the workers
/// start and read by every worker. Blocking collectives deadlock unless all
/// replicas launch buckets in the same order, and local clocks diverge
/// mid-epoch, so the order must be a pure function of shared data (model
/// layout, config, cost model) — never of a worker's own simulated times.
struct BucketPlan {
  std::vector<ParamSpan> spans;        // forward (layer) order
  std::vector<double> forward_slice;   // seconds, per span
  std::vector<double> backward_slice;  // seconds, per span
  std::vector<size_t> run_order;       // launch order on the comm stream
};

/// Per-parameter-layer share of compute time, normalised to sum 1.
std::vector<double> LayerComputeWeights(const TrainerConfig& config,
                                        const std::vector<ParamSpan>& spans) {
  std::vector<double> weights;
  if (!config.layer_compute_fractions.empty()) {
    SPARDL_CHECK_EQ(config.layer_compute_fractions.size(), spans.size())
        << "layer_compute_fractions must have one entry per parameter "
           "layer";
    weights = config.layer_compute_fractions;
  } else {
    weights.reserve(spans.size());
    for (const ParamSpan& span : spans) {
      weights.push_back(static_cast<double>(span.count));
    }
  }
  double sum = 0.0;
  for (double w : weights) sum += w;
  SPARDL_CHECK_GT(sum, 0.0);
  for (double& w : weights) w /= sum;
  return weights;
}

BucketPlan BuildBucketPlan(const Model& model, const TrainerConfig& config,
                           const Topology& topo, int p) {
  BucketPlan plan;
  plan.spans = model.param_spans();
  const size_t num_buckets = plan.spans.size();
  SPARDL_CHECK_GT(num_buckets, 0u);

  const std::vector<double> weights = LayerComputeWeights(config, plan.spans);
  const double forward_total =
      config.compute_seconds_per_iteration * (1.0 - config.backward_fraction);
  const double backward_total =
      config.compute_seconds_per_iteration * config.backward_fraction;
  plan.forward_slice.resize(num_buckets);
  plan.backward_slice.resize(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    plan.forward_slice[b] = forward_total * weights[b];
    plan.backward_slice[b] = backward_total * weights[b];
  }

  // Bucket-ready offsets relative to the start of backward: backprop runs
  // back-to-front, so the rearmost bucket is ready first.
  std::vector<double> ready(num_buckets, 0.0);
  double t = 0.0;
  for (size_t b = num_buckets; b-- > 0;) {
    t += plan.backward_slice[b];
    ready[b] = t;
  }

  plan.run_order.reserve(num_buckets);
  if (config.sync_mode == GradSyncMode::kBucketed) {
    // FIFO: the order backward produces the buckets.
    for (size_t b = num_buckets; b-- > 0;) plan.run_order.push_back(b);
    return plan;
  }

  // Priority: greedy over estimated bucket durations — never idle the
  // stream while a bucket is ready, and among ready buckets launch the
  // front-most (the one the next forward needs first). The estimate only
  // has to rank overlaps, not predict wall times, but it must see the
  // fabric: on an oversubscribed fat-tree a bucket's transfer is paced by
  // the contended trunk, so each of the ~log2(p) exchange rounds charges
  // the worst route's summed latency plus bottleneck serialization of the
  // round's sparse payload (2 words per entry at a nominal 5% density).
  double path_alpha = topo.base_cost().alpha;
  double path_beta = topo.base_cost().beta;
  if (p >= 2) {
    std::vector<LinkId> path;
    topo.Route(0, p - 1, &path);
    if (!path.empty()) {
      path_alpha = 0.0;
      path_beta = 0.0;
      for (LinkId id : path) {
        const LinkInfo link = topo.link_info(id);
        path_alpha += link.alpha;
        path_beta = std::max(path_beta, link.beta);
      }
    }
  }
  const double log_rounds =
      std::max(1.0, std::ceil(std::log2(static_cast<double>(std::max(p, 2)))));
  constexpr double kNominalDensity = 0.05;
  std::vector<double> duration(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    duration[b] =
        log_rounds *
        (path_alpha * 3.0 + path_beta * 2.0 * kNominalDensity *
                                static_cast<double>(plan.spans[b].count));
  }
  std::vector<bool> scheduled(num_buckets, false);
  double stream = 0.0;
  for (size_t scheduled_count = 0; scheduled_count < num_buckets;
       ++scheduled_count) {
    double earliest = 0.0;
    bool have_earliest = false;
    for (size_t b = 0; b < num_buckets; ++b) {
      if (scheduled[b]) continue;
      if (!have_earliest || ready[b] < earliest) {
        earliest = ready[b];
        have_earliest = true;
      }
    }
    const double start = std::max(stream, earliest);
    size_t pick = num_buckets;
    for (size_t b = 0; b < num_buckets; ++b) {  // front-most ready bucket
      if (!scheduled[b] && ready[b] <= start + 1e-12) {
        pick = b;
        break;
      }
    }
    SPARDL_CHECK_LT(pick, num_buckets);
    scheduled[pick] = true;
    plan.run_order.push_back(pick);
    stream = start + duration[pick];
  }
  return plan;
}

}  // namespace

std::string_view GradSyncModeName(GradSyncMode mode) {
  switch (mode) {
    case GradSyncMode::kStepSynchronous:
      return "step-synchronous";
    case GradSyncMode::kBucketed:
      return "bucketed";
    case GradSyncMode::kBucketedPriority:
      return "bucketed-priority";
  }
  return "unknown";
}

Status TrainerConfig::Validate() const {
  if (epochs <= 0) return Status::InvalidArgument("epochs must be positive");
  if (iterations_per_epoch <= 0) {
    return Status::InvalidArgument("iterations_per_epoch must be positive");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (compute_seconds_per_iteration < 0.0) {
    return Status::InvalidArgument(
        "compute_seconds_per_iteration must be non-negative");
  }
  if (!(backward_fraction > 0.0) || backward_fraction > 1.0) {
    return Status::InvalidArgument("backward_fraction must be in (0, 1]");
  }
  double fraction_sum = 0.0;
  for (double f : layer_compute_fractions) {
    if (!std::isfinite(f) || f < 0.0) {
      return Status::InvalidArgument(
          "layer_compute_fractions entries must be finite and "
          "non-negative");
    }
    fraction_sum += f;
  }
  if (!layer_compute_fractions.empty() && fraction_sum <= 0.0) {
    return Status::InvalidArgument(
        "layer_compute_fractions must have a positive sum");
  }
  return Status::OK();
}

TrainResult TrainDistributed(Cluster& cluster, const Dataset& dataset,
                             const ModelFactory& model_factory,
                             const AlgorithmFactory& algorithm_factory,
                             const TrainerConfig& config) {
  const int p = cluster.size();
  cluster.ResetClocksAndStats();
  {
    const Status status = config.Validate();
    SPARDL_CHECK(status.ok()) << status.ToString();
  }

  const bool bucketed = config.sync_mode != GradSyncMode::kStepSynchronous;
  BucketPlan plan;
  if (bucketed) {
    // One probe replica pins the shared schedule; workers build their own
    // models from the same seed, so the layout is identical.
    const std::unique_ptr<Model> probe = model_factory(config.model_seed);
    plan = BuildBucketPlan(*probe, config, cluster.topology(), p);
  }

  TrainResult result;
  result.epochs.resize(static_cast<size_t>(config.epochs));

  // [epoch][rank] train-loss scratch, written SPMD, read after Run.
  std::vector<std::vector<double>> train_loss(
      static_cast<size_t>(config.epochs),
      std::vector<double>(static_cast<size_t>(p), 0.0));
  std::vector<double> checksums(static_cast<size_t>(p), 0.0);

  // With `Cluster::EnableProtocolCheck` on, a divergent collective
  // schedule surfaces here as the verifier's diagnosis instead of a hang.
  SPARDL_CHECK_OK(cluster.Run([&](Comm& comm) {
    const int rank = comm.rank();
    const auto rank_idx = static_cast<size_t>(rank);
    std::unique_ptr<Model> model = model_factory(config.model_seed);
    const size_t n = model->num_params();
    SPARDL_CHECK_GT(n, 0u);
    SgdOptimizer optimizer(n, config.sgd);

    // Synchronous mode runs one whole-model instance; the bucketed modes
    // run one per parameter layer over that layer's index sub-range.
    std::unique_ptr<SparseAllReduce> algorithm;
    std::vector<std::unique_ptr<SparseAllReduce>> bucket_algorithms;
    if (!bucketed) {
      algorithm = algorithm_factory(n);
    } else {
      bucket_algorithms.reserve(plan.spans.size());
      for (const ParamSpan& span : plan.spans) {
        bucket_algorithms.push_back(algorithm_factory(span.count));
      }
    }

    // Bucketed-pipeline state, all on the simulated timeline. The compute
    // unit's clock is tracked arithmetically (per-layer slices) and only
    // folded into `comm`'s clock via advance-only moves, so per-worker
    // send timestamps stay monotonic — the event engine's safety
    // assumption.
    double compute_free = comm.sim_now();
    std::vector<double> bucket_finish(plan.spans.size(), comm.sim_now());
    std::vector<double> bucket_ready(plan.spans.size(), 0.0);
    std::vector<SparseVector> bucket_out(plan.spans.size());

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      const double comm_before = comm.stats().comm_seconds;
      const double compute_before = comm.stats().compute_seconds;
      double loss_sum = 0.0;
      for (int iter = 0; iter < config.iterations_per_epoch; ++iter) {
        const int64_t batch_index =
            static_cast<int64_t>(epoch) * config.iterations_per_epoch + iter;
        const Batch batch =
            dataset.TrainBatch(rank, batch_index, config.batch_size);
        model->ZeroGrads();
        const Matrix outputs = model->Forward(batch.inputs);
        LossResult loss = ComputeLoss(dataset, outputs, batch);
        loss_sum += loss.loss;
        model->Backward(loss.grad);

        if (!bucketed) {
          comm.Compute(config.compute_seconds_per_iteration);
          const SparseVector global = algorithm->Run(comm, model->grads());
          optimizer.Step(global, p, epoch, model->params());
          comm.MarkIteration();
          continue;
        }

        // Forward pass, gated per layer on the previous iteration's
        // bucket arrivals — the stall priority scheduling shrinks. The
        // compute unit is its own stream, so its slices are recorded
        // directly (no `TraceScope`: `comm`'s clock is not involved).
        TraceRecorder* const tracer = comm.tracer();
        double t = compute_free;
        for (size_t b = 0; b < plan.spans.size(); ++b) {
          const double start = std::max(t, bucket_finish[b]);
          t = start + plan.forward_slice[b];
          if (tracer != nullptr) {
            tracer->RecordWorker(
                rank, TraceSpan{rank, kStreamCompute, Phase::kCompute,
                                "forward", static_cast<int>(b), -1, start, t,
                                0});
          }
        }
        // Backward back-to-front stamps each bucket's ready instant.
        for (size_t b = plan.spans.size(); b-- > 0;) {
          const double start = t;
          t += plan.backward_slice[b];
          bucket_ready[b] = t;
          if (tracer != nullptr) {
            tracer->RecordWorker(
                rank, TraceSpan{rank, kStreamCompute, Phase::kCompute,
                                "backward", static_cast<int>(b), -1, start,
                                t, 0});
          }
        }
        compute_free = t;
        comm.ChargeOverlappedCompute(config.compute_seconds_per_iteration);

        // Buckets run on the (single) communication stream in the shared
        // plan order; each launches no earlier than its ready instant.
        for (size_t b : plan.run_order) {
          comm.AdvanceClockTo(bucket_ready[b]);
          TraceScope scope(comm, Phase::kBucket, "bucket",
                           static_cast<int>(b));
          const ParamSpan& span = plan.spans[b];
          bucket_out[b] = bucket_algorithms[b]->Run(
              comm, model->grads().subspan(span.offset, span.count));
          bucket_finish[b] = comm.sim_now();
        }

        // Splice bucket-local indices back into model coordinates
        // (ascending offsets keep the COO invariant) and apply one
        // optimizer step for the whole iteration — stepping per bucket
        // would decay momentum once per bucket instead of once per step.
        size_t total_entries = 0;
        for (const SparseVector& part : bucket_out) {
          total_entries += part.size();
        }
        SparseVector global;
        global.Reserve(total_entries);
        for (size_t b = 0; b < plan.spans.size(); ++b) {
          const auto offset = static_cast<GradIndex>(plan.spans[b].offset);
          const SparseVector& part = bucket_out[b];
          for (size_t i = 0; i < part.size(); ++i) {
            global.PushBack(offset + part.index(i), part.value(i));
          }
        }
        optimizer.Step(global, p, epoch, model->params());
        comm.MarkIteration();
      }
      train_loss[static_cast<size_t>(epoch)][rank_idx] =
          loss_sum / config.iterations_per_epoch;

      // Epoch boundary: align simulated clocks (the S-SGD barrier), then
      // let rank 0 evaluate and record the scoreboard. Bucketed modes
      // first drain the compute tail (the last iteration's forward slot
      // has no successor to overlap with).
      if (bucketed) comm.AdvanceClockTo(compute_free);
      comm.BarrierSyncClocks();
      if (bucketed) {
        compute_free = comm.sim_now();
        std::fill(bucket_finish.begin(), bucket_finish.end(), comm.sim_now());
      }
      if (rank == 0) {
        EpochRecord& record = result.epochs[static_cast<size_t>(epoch)];
        record.epoch = epoch;
        record.sim_seconds_cumulative = comm.sim_now();
        record.comm_seconds_epoch =
            comm.stats().comm_seconds - comm_before;
        record.compute_seconds_epoch =
            comm.stats().compute_seconds - compute_before;
        const Batch test = dataset.TestBatch(config.test_batch_size);
        const Matrix outputs = model->Forward(test.inputs);
        if (dataset.metric() == TaskMetric::kAccuracy) {
          record.test_metric = Accuracy(outputs, test.labels);
        } else {
          record.test_metric = ComputeLoss(dataset, outputs, test).loss;
        }
      }
      comm.Barrier();  // everyone waits for the evaluation to finish
    }
    checksums[rank_idx] = model->ParamChecksum();
  }));

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    double loss = 0.0;
    for (double l : train_loss[static_cast<size_t>(epoch)]) loss += l;
    result.epochs[static_cast<size_t>(epoch)].train_loss = loss / p;
  }

  result.replicas_consistent = true;
  for (int r = 1; r < p; ++r) {
    if (checksums[static_cast<size_t>(r)] != checksums[0]) {
      result.replicas_consistent = false;
    }
  }
  result.final_param_checksum = checksums[0];
  return result;
}

}  // namespace spardl
