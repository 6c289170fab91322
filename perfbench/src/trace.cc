#include "trace.h"

#include "common/thread_pool.h"
#include "core/dpbr_aggregator.h"

namespace perfbench {

dpbr::Result<std::vector<float>> ClockedAggregator::Aggregate(
    dpbr::RowSpan uploads, const dpbr::agg::AggregationContext& ctx) {
  if (tracer_ == nullptr) {
    dpbr::Result<std::vector<float>> out = inner_->Aggregate(uploads, ctx);
    stamps_->push_back(Clock::now());
    return out;
  }
  CapturedRound& cap = tracer_->captured;
  if (!cap.valid && !stamps_->empty() && ctx.server_gradient != nullptr) {
    // The copy is taken before the inner call rejects rows in place.
    cap.uploads.assign(uploads.data, uploads.data + uploads.size());
    cap.rows = uploads.rows;
    cap.dim = uploads.dim;
    cap.sigma_upload = ctx.sigma_upload;
    cap.gamma = ctx.gamma;
    cap.server_gradient = *ctx.server_gradient;
    cap.has_client_ids = ctx.client_ids != nullptr;
    if (cap.has_client_ids) cap.client_ids = *ctx.client_ids;
    cap.valid = true;
  }
  Span span;
  span.begin = Clock::now();
  dpbr::Result<std::vector<float>> out = inner_->Aggregate(uploads, ctx);
  span.end = Clock::now();
  stamps_->push_back(span.end);
  Record(span, uploads, ctx);
  return out;
}

void ClockedAggregator::Record(const Span& span, dpbr::RowSpan uploads,
                               const dpbr::agg::AggregationContext& ctx) {
  AggregateRecord rec;
  rec.span = span;
  rec.round = ctx.round;
  rec.byz_rows = tracer_->num_byzantine;
  rec.honest_rows = uploads.rows - rec.byz_rows;
  if (const auto* dpbr_agg =
          dynamic_cast<const dpbr::core::DpbrAggregator*>(inner_.get())) {
    const dpbr::core::DpbrRoundDiagnostics& diag = dpbr_agg->last_round();
    for (size_t i = 0;
         i < rec.honest_rows && i < diag.first_stage_passed.size(); ++i) {
      if (!diag.first_stage_passed[i]) ++rec.honest_rejected;
    }
    for (size_t idx : diag.selected) {
      if (idx >= rec.honest_rows) ++rec.byz_selected;
    }
  }
  tracer_->aggregates.push_back(rec);
  if (tracer_->aggregates.size() == 1) {
    tracer_->dispatches_after_round1 = dpbr::ParallelDispatchCount();
    tracer_->models_built_after_round1 = tracer_->models_built.load();
  }
}

void TimedAttack::ForgeInto(const dpbr::fl::AttackContext& ctx,
                            dpbr::RowSpan out) {
  Span span;
  span.begin = Clock::now();
  inner_->ForgeInto(ctx, out);
  span.end = Clock::now();
  tracer_->forges.push_back(span);
}

TimedModel::TimedModel(std::unique_ptr<dpbr::nn::Sequential> model,
                       ModelLog* log)
    : log_(log) {
  Add(std::move(model));
}

dpbr::Tensor TimedModel::ForwardBatch(const dpbr::Tensor& x) {
  if (log_ == nullptr) return Sequential::ForwardBatch(x);
  Span span;
  span.begin = Clock::now();
  dpbr::Tensor y = Sequential::ForwardBatch(x);
  span.end = Clock::now();
  log_->fwd.push_back(span);
  return y;
}

dpbr::Tensor TimedModel::BackwardBatch(
    const dpbr::Tensor& grad_out, const dpbr::nn::PerExampleGradSink& sink) {
  if (log_ == nullptr) return Sequential::BackwardBatch(grad_out, sink);
  Span span;
  span.begin = Clock::now();
  dpbr::Tensor dx = Sequential::BackwardBatch(grad_out, sink);
  span.end = Clock::now();
  log_->bwd.push_back(span);
  return dx;
}

void TimedModel::InitParams(dpbr::SplitRng* rng) { layer(0)->InitParams(rng); }

dpbr::nn::ModelFactory TracedFactory(dpbr::nn::ModelFactory inner,
                                     Tracer* tracer) {
  return [inner = std::move(inner),
          tracer]() -> std::unique_ptr<dpbr::nn::Sequential> {
    int64_t index = tracer->models_built.fetch_add(1);
    ModelLog* log = nullptr;
    if (index < static_cast<int64_t>(tracer->worker_logs.size())) {
      log = &tracer->worker_logs[static_cast<size_t>(index)];
    } else {
      std::lock_guard<std::mutex> lock(tracer->server_builds_mu);
      tracer->server_builds.push_back(Clock::now());
    }
    return std::make_unique<TimedModel>(inner(), log);
  };
}

}  // namespace perfbench
