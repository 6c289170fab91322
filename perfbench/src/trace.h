// Timing decorators for the three injection points of fl::FederatedTrainer
// (the aggregator, the attack and the model factory) and the records they
// fill.
//
// An untraced run wraps only the aggregator, and only to stamp the round
// clock: one steady_clock read when each Aggregate returns. A traced run
// also times every inner call, captures one round's aggregator input for
// the isolated stage probes, and wraps every model the factory builds in a
// TimedModel. Each decorator forwards every virtual of the interface it
// wraps, so a traced run is bitwise identical to an untraced one; the
// runner checks that on every traced invocation.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "fl/attack_interface.h"
#include "nn/sequential.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// Seconds from `a` to `b`.
inline double Seconds(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  TimePoint begin;
  TimePoint end;
  double ms() const { return 1e3 * Seconds(begin, end); }
};

/// Batched forward/backward spans of one worker's model. A worker model
/// is used by one pool thread at a time, so its log needs no lock.
struct ModelLog {
  std::vector<Span> fwd;
  std::vector<Span> bwd;
};

/// One Aggregate call of a traced run, with the protocol outcome split by
/// the trainer's row layout (cohort rows first, Byzantine rows last).
struct AggregateRecord {
  Span span;
  int round = 0;
  size_t honest_rows = 0;
  size_t honest_rejected = 0;  ///< honest rows the first stage zeroed
  size_t byz_rows = 0;
  size_t byz_selected = 0;  ///< Byzantine rows the second stage kept
};

/// A copy of one round's aggregator input, replayed by the stage probes.
struct CapturedRound {
  bool valid = false;
  std::vector<float> uploads;
  size_t rows = 0;
  size_t dim = 0;
  double sigma_upload = 0.0;
  double gamma = 0.0;
  std::vector<float> server_gradient;
  bool has_client_ids = false;
  std::vector<int> client_ids;
};

/// Everything a traced run records. Owned by the runner; it must outlive
/// the trainer whose decorators point at it.
struct Tracer {
  Tracer(size_t num_worker_models, size_t num_byzantine)
      : worker_logs(num_worker_models), num_byzantine(num_byzantine) {}

  /// Logs of the first worker_logs.size() models the factory builds —
  /// the trainer builds its workers' models first, in Setup().
  std::vector<ModelLog> worker_logs;
  size_t num_byzantine;

  std::atomic<int64_t> models_built{0};
  /// Build times of the server's models (built inside pool tasks).
  std::mutex server_builds_mu;
  std::vector<TimePoint> server_builds;

  std::vector<Span> forges;
  std::vector<AggregateRecord> aggregates;
  CapturedRound captured;

  /// Counters read when the first Aggregate returns, so per-round rates
  /// cover steady-state rounds only.
  uint64_t dispatches_after_round1 = 0;
  int64_t models_built_after_round1 = 0;
};

/// Pass-through aggregator: stamps `stamps` once when each Aggregate
/// returns. With a tracer it also times the inner call, reads the dpbr
/// diagnostics and captures the first round after round 1.
class ClockedAggregator final : public dpbr::agg::Aggregator {
 public:
  ClockedAggregator(dpbr::agg::AggregatorPtr inner,
                    std::vector<TimePoint>* stamps, Tracer* tracer)
      : inner_(std::move(inner)), stamps_(stamps), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  bool NeedsServerGradient() const override {
    return inner_->NeedsServerGradient();
  }
  using dpbr::agg::Aggregator::Aggregate;
  dpbr::Result<std::vector<float>> Aggregate(
      dpbr::RowSpan uploads, const dpbr::agg::AggregationContext& ctx) override;
  void Reset() override { inner_->Reset(); }
  dpbr::Status SaveState(std::string* out) const override {
    return inner_->SaveState(out);
  }
  dpbr::Status RestoreState(const std::string& blob) override {
    return inner_->RestoreState(blob);
  }

 private:
  void Record(const Span& span, dpbr::RowSpan uploads,
              const dpbr::agg::AggregationContext& ctx);

  dpbr::agg::AggregatorPtr inner_;
  std::vector<TimePoint>* stamps_;
  Tracer* tracer_;
};

/// Times Attack::ForgeInto.
class TimedAttack final : public dpbr::fl::Attack {
 public:
  TimedAttack(dpbr::fl::AttackPtr inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  bool wants_poisoned_uploads() const override {
    return inner_->wants_poisoned_uploads();
  }
  void ForgeInto(const dpbr::fl::AttackContext& ctx,
                 dpbr::RowSpan out) override;

 private:
  dpbr::fl::AttackPtr inner_;
  Tracer* tracer_;
};

/// A Sequential whose single child is the paper model. The fusion planner
/// flattens nested Sequentials, so the wrapped model runs the same fused
/// stages as the bare one. With a log, batched forward and backward calls
/// are timed.
class TimedModel final : public dpbr::nn::Sequential {
 public:
  TimedModel(std::unique_ptr<dpbr::nn::Sequential> model, ModelLog* log);

  dpbr::Tensor ForwardBatch(const dpbr::Tensor& x) override;
  dpbr::Tensor BackwardBatch(const dpbr::Tensor& grad_out,
                             const dpbr::nn::PerExampleGradSink& sink) override;
  /// Hands the caller's stream to the model itself: Sequential would give
  /// its child a Split(0) stream and change the initial parameters.
  void InitParams(dpbr::SplitRng* rng) override;

 private:
  ModelLog* log_;
};

/// Factory wrapper: counts builds, wraps every model in a TimedModel and
/// gives the first tracer->worker_logs.size() models a log each.
dpbr::nn::ModelFactory TracedFactory(dpbr::nn::ModelFactory inner,
                                     Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
