#include "fl/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "aggregators/mean.h"
#include "common/logging.h"
#include "common/shutdown.h"
#include "common/thread_pool.h"
#include "data/partition.h"
#include "dp/rdp_accountant.h"
#include "durability/checkpoint.h"
#include "durability/io.h"
#include "fl/upload.h"

namespace dpbr {
namespace fl {
namespace {

// Stream-id tags for deterministic RNG derivation.
constexpr uint64_t kPartitionStream = 0x9a57;
constexpr uint64_t kAuxStream = 0xa0c5;
constexpr uint64_t kByzShardStream = 0xb125;
constexpr uint64_t kAttackStream = 0xa77c;
constexpr uint64_t kWorkerStream = 0x3011;
constexpr uint64_t kClientSampleStream = 0xc1a7;

}  // namespace

FederatedTrainer::FederatedTrainer(const data::DatasetBundle* bundle,
                                   nn::ModelFactory model_factory,
                                   agg::AggregatorPtr aggregator,
                                   AttackPtr attack, TrainerOptions options)
    : bundle_(bundle),
      model_factory_(std::move(model_factory)),
      aggregator_hold_(std::move(aggregator)),
      attack_(std::move(attack)),
      options_(options) {}

Status FederatedTrainer::Setup() {
  if (bundle_ == nullptr) return Status::InvalidArgument("null bundle");
  if (aggregator_hold_ == nullptr) {
    return Status::InvalidArgument("null aggregator");
  }
  if (options_.num_honest <= 0) {
    return Status::InvalidArgument("need at least one honest worker");
  }
  if (options_.num_byzantine < 0) {
    return Status::InvalidArgument("num_byzantine must be >= 0");
  }
  if (options_.num_byzantine > 0 && attack_ == nullptr) {
    return Status::InvalidArgument(
        "num_byzantine > 0 requires an attack instance");
  }
  if (options_.epochs <= 0) {
    return Status::InvalidArgument("epochs must be > 0");
  }
  if (options_.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be > 0");
  }
  if (options_.client_sampling_rate <= 0.0 ||
      options_.client_sampling_rate > 1.0) {
    return Status::InvalidArgument(
        "client_sampling_rate must lie in (0, 1]");
  }

  size_t n_honest = static_cast<size_t>(options_.num_honest);
  size_t n_byz = static_cast<size_t>(options_.num_byzantine);
  size_t n_total = n_honest + n_byz;
  gamma_ = options_.gamma >= 0.0
               ? options_.gamma
               : static_cast<double>(n_honest) / static_cast<double>(n_total);

  // --- Partition the training data across the honest workers. ---
  // Byzantine counts never change honest workers' |D| (the paper fixes the
  // honest population and varies the attacker's injected worker count).
  SplitRng part_rng(options_.seed, {kPartitionStream});
  std::vector<std::vector<size_t>> partition;
  if (options_.iid) {
    DPBR_ASSIGN_OR_RETURN(
        partition,
        data::PartitionIid(bundle_->train.size(), n_honest, &part_rng));
  } else {
    DPBR_ASSIGN_OR_RETURN(
        partition,
        data::PartitionNonIid(bundle_->train.labels(),
                              bundle_->train.num_classes(), n_honest,
                              &part_rng));
  }
  std::vector<data::DatasetView> shards =
      data::MakeShards(&bundle_->train, partition);

  // Common |D| for the privacy calibration: the smallest honest shard
  // (conservative — a smaller dataset gives a larger sampling rate q).
  size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  if (min_shard == 0) return Status::Internal("empty honest shard");

  // --- Privacy calibration (Theorem 3 via the RDP accountant). ---
  dp::PrivacySpec spec;
  spec.epsilon = options_.epsilon;
  spec.delta = options_.delta;
  spec.dataset_size = static_cast<int>(min_shard);
  spec.batch_size = std::min<int>(options_.batch_size,
                                  static_cast<int>(min_shard));
  spec.epochs = options_.epochs;
  spec.client_sampling_rate = options_.client_sampling_rate;
  DPBR_ASSIGN_OR_RETURN(privacy_, dp::CalibratePrivacy(spec));

  // Mirrors CalibratePrivacy's T: with client subsampling each worker only
  // joins ~q_c of the rounds, so the round count scales by 1/q_c (q_c = 1
  // multiplies the divisor by exactly 1.0 — the legacy count, bitwise).
  total_rounds_ = static_cast<int>(
      std::ceil(static_cast<double>(options_.epochs) * min_shard /
                (spec.batch_size * options_.client_sampling_rate)));
  rounds_per_epoch_ = std::max(1, total_rounds_ / options_.epochs);

  // --- Learning rate: η = η_b · σ_b / σ (paper CLAIM 6). ---
  lr_ = options_.base_lr;
  if (privacy_.dp_enabled && options_.transfer_base_epsilon > 0.0) {
    // At the run's own ε the base spec is the run's spec: reuse its
    // calibration.
    dp::PrivacyParams base_privacy = privacy_;
    if (options_.transfer_base_epsilon != spec.epsilon) {
      dp::PrivacySpec base_spec = spec;
      base_spec.epsilon = options_.transfer_base_epsilon;
      DPBR_ASSIGN_OR_RETURN(base_privacy, dp::CalibratePrivacy(base_spec));
    }
    DPBR_ASSIGN_OR_RETURN(
        lr_, dp::TransferLearningRate(options_.base_lr, base_privacy.sigma,
                                      privacy_.sigma));
  }

  // --- Honest workers (Algorithm 1 clients). ---
  WorkerOptions wopts;
  wopts.batch_size = spec.batch_size;
  wopts.beta = options_.beta;
  wopts.sigma = privacy_.dp_enabled ? privacy_.sigma : 0.0;
  wopts.momentum_reset = options_.momentum_reset;

  // The run's one set of models: local steps, aux rows and evaluation.
  compute_ = std::make_shared<ComputeSlots>(model_factory_);
  honest_workers_.clear();
  for (size_t i = 0; i < n_honest; ++i) {
    honest_workers_.push_back(std::make_unique<HonestDpWorker>(
        static_cast<int>(i), shards[i], compute_, wopts,
        SplitRng(options_.seed, {kWorkerStream, i}).Next64()));
  }

  // --- Poisoned workers for data-poisoning attacks. ---
  // The omniscient attacker crafts each Byzantine worker's local dataset
  // as a random |D|-sized subset of the global training data (it knows all
  // honest data), then poisons the labels.
  poisoned_workers_.clear();
  if (attack_ != nullptr && n_byz > 0 && attack_->wants_poisoned_uploads()) {
    SplitRng byz_rng(options_.seed, {kByzShardStream});
    for (size_t b = 0; b < n_byz; ++b) {
      std::vector<size_t> idx = byz_rng.SampleWithoutReplacement(
          bundle_->train.size(),
          std::min(min_shard, bundle_->train.size()));
      data::DatasetView shard(&bundle_->train, std::move(idx));
      poisoned_workers_.push_back(std::make_unique<HonestDpWorker>(
          static_cast<int>(n_honest + b), shard.WithFlippedLabels(),
          compute_, wopts,
          SplitRng(options_.seed, {kWorkerStream, n_honest + b}).Next64()));
    }
  }

  // --- Server auxiliary data: aux_per_class samples per class drawn from
  // the validation split (or an OOD override for Table 17). ---
  const data::Dataset* aux_source = options_.aux_source_override != nullptr
                                        ? options_.aux_source_override
                                        : &bundle_->val;
  data::DatasetView aux;
  bool needs_aux = aggregator_hold_->NeedsServerGradient();
  if (needs_aux) {
    if (options_.aux_per_class <= 0) {
      return Status::InvalidArgument("aux_per_class must be positive");
    }
    SplitRng aux_rng(options_.seed, {kAuxStream});
    DPBR_ASSIGN_OR_RETURN(
        std::vector<size_t> aux_idx,
        data::SampleAuxiliaryIndices(
            aux_source->labels(), aux_source->num_classes(),
            static_cast<size_t>(options_.aux_per_class), &aux_rng));
    aux = data::DatasetView(aux_source, std::move(aux_idx));
  }

  server_ = std::make_unique<Server>(compute_, std::move(aggregator_hold_),
                                     aux, options_.seed);
  setup_done_ = true;
  return Status::OK();
}

RoundStateFingerprint FederatedTrainer::Fingerprint() const {
  RoundStateFingerprint fp;
  fp.seed = options_.seed;
  fp.num_honest = options_.num_honest;
  fp.num_byzantine = options_.num_byzantine;
  fp.epochs = options_.epochs;
  fp.batch_size = options_.batch_size;
  fp.total_rounds = total_rounds_;
  fp.dim = server_->dim();
  fp.epsilon = options_.epsilon;
  fp.client_sampling_rate = options_.client_sampling_rate;
  fp.momentum_reset =
      options_.momentum_reset == MomentumReset::kPersist ? 1 : 0;
  fp.iid = options_.iid ? 1 : 0;
  return fp;
}

Status FederatedTrainer::WriteSnapshot(
    int completed_round, const TrainingHistory& history) const {
  RoundStateView state;
  state.fingerprint = Fingerprint();
  state.completed_round = completed_round;
  state.model_params = &server_->params();
  for (const auto& w : honest_workers_) {
    state.honest_momentum.push_back(&w->momentum());
    state.worker_rng_keys.push_back(w->rng_key());
  }
  for (const auto& w : poisoned_workers_) {
    state.poisoned_momentum.push_back(&w->momentum());
    state.worker_rng_keys.push_back(w->rng_key());
  }
  std::string aggregator_state;
  DPBR_RETURN_NOT_OK(server_->aggregator()->SaveState(&aggregator_state));
  state.aggregator_state = &aggregator_state;
  state.ledger = &ledger_;
  state.history = &history;
  return durability::WriteCheckpoint(
      options_.checkpoint_dir, completed_round,
      [&](durability::ByteWriter* w) { EncodeRoundState(state, w); });
}

Status FederatedTrainer::RestoreFromSnapshot(
    const PersistentRoundState& state, TrainingHistory* history,
    int* start_round) {
  RoundStateFingerprint expected = Fingerprint();
  if (state.fingerprint != expected) {
    return Status::FailedPrecondition(
        "checkpoint belongs to a different experiment: snapshot {" +
        state.fingerprint.ToString() + "} vs configured {" +
        expected.ToString() + "}");
  }
  if (state.completed_round < 1 ||
      state.completed_round > total_rounds_) {
    return Status::InvalidArgument(
        "checkpoint: implausible completed round " +
        std::to_string(state.completed_round));
  }
  if (state.honest_momentum.size() != honest_workers_.size() ||
      state.poisoned_momentum.size() != poisoned_workers_.size()) {
    return Status::InvalidArgument(
        "checkpoint: momentum lists do not match the worker population");
  }
  // Honest workers, then poisoned ones: worker id order, which is the
  // order of the snapshot's RNG key list.
  std::vector<const HonestDpWorker*> workers;
  for (const auto& w : honest_workers_) workers.push_back(w.get());
  for (const auto& w : poisoned_workers_) workers.push_back(w.get());
  if (state.worker_rng_keys.size() != workers.size()) {
    return Status::InvalidArgument(
        "checkpoint: RNG key list does not match the worker population");
  }
  for (size_t k = 0; k < workers.size(); ++k) {
    if (state.worker_rng_keys[k] != workers[k]->rng_key()) {
      return Status::FailedPrecondition(
          "checkpoint: RNG stream derivation changed since the snapshot "
          "was taken (worker " + std::to_string(k) + ")");
    }
  }

  DPBR_RETURN_NOT_OK(server_->SetParams(state.model_params));
  for (size_t i = 0; i < honest_workers_.size(); ++i) {
    DPBR_RETURN_NOT_OK(
        honest_workers_[i]->RestoreMomentum(state.honest_momentum[i]));
  }
  for (size_t b = 0; b < poisoned_workers_.size(); ++b) {
    DPBR_RETURN_NOT_OK(
        poisoned_workers_[b]->RestoreMomentum(state.poisoned_momentum[b]));
  }
  DPBR_RETURN_NOT_OK(
      server_->aggregator()->RestoreState(state.aggregator_state));
  ledger_ = state.ledger;
  *history = state.history;
  history->interrupted = false;  // we are continuing it right now
  *start_round = static_cast<int>(state.completed_round) + 1;
  return Status::OK();
}

Result<TrainingHistory> FederatedTrainer::Run() {
  if (!setup_done_) DPBR_RETURN_NOT_OK(Setup());

  size_t n_honest = honest_workers_.size();
  size_t n_byz = static_cast<size_t>(options_.num_byzantine);
  size_t dim = server_->dim();

  TrainingHistory history;
  history.epsilon = privacy_.dp_enabled
                        ? privacy_.epsilon
                        : std::numeric_limits<double>::infinity();
  history.sigma = privacy_.dp_enabled ? privacy_.sigma : 0.0;
  history.learning_rate = lr_;
  history.total_rounds = total_rounds_;

  // Fresh spent ledger for this run; a resume below replaces it with the
  // snapshot's so it always covers the whole experiment.
  ledger_ = privacy_.dp_enabled
                ? dp::SpentLedger(options_.client_sampling_rate,
                                  privacy_.sampling_rate,
                                  privacy_.noise_multiplier, privacy_.delta)
                : dp::SpentLedger();

  const bool durable = !options_.checkpoint_dir.empty();
  int start_round = 1;
  if (durable) {
    if (options_.checkpoint_every_n_rounds < 1) {
      return Status::InvalidArgument(
          "checkpoint_every_n_rounds must be >= 1");
    }
    InstallGracefulShutdownHandler();
    DPBR_RETURN_NOT_OK(durability::EnsureDir(options_.checkpoint_dir));
    DPBR_ASSIGN_OR_RETURN(DurableRunState dstate,
                          LoadDurableState(options_.checkpoint_dir));
    if (dstate.has_snapshot) {
      DPBR_RETURN_NOT_OK(
          RestoreFromSnapshot(dstate.snapshot, &history, &start_round));
      DPBR_LOG_STREAM(Info) << "resuming after committed round "
                     << dstate.snapshot.completed_round << " of "
                     << total_rounds_ << " (" << ledger_.ToString() << ")";
    } else if (!dstate.wal_records.empty() || !dstate.wal_clean) {
      DPBR_LOG_STREAM(Warning)
          << "no usable checkpoint; restarting from round 1 "
             "(deterministic, so the rerun reproduces the lost rounds)";
    }
    // Records at or before the snapshot are subsumed by it; later rounds
    // are about to be re-executed deterministically and re-logged. Start
    // the log fresh so it never disagrees with the snapshots next to it.
    DPBR_ASSIGN_OR_RETURN(
        wal_, durability::WalWriter::Open(WalPath(options_.checkpoint_dir),
                                          /*truncate=*/true));
  }

  data::DatasetView test = data::DatasetView::All(&bundle_->test);
  int eval_every = std::max(
      1, static_cast<int>(std::lround(options_.eval_every_epochs *
                                      rounds_per_epoch_)));

  // One contiguous (cohort + Byzantine) × d block, reused every round.
  // Reset never releases capacity, so steady-state training allocates the
  // upload storage exactly once — peak upload memory is one arena.
  UploadArena arena;
  UploadArena poisoned_arena;
  const double q_c = options_.client_sampling_rate;
  const bool subsampled = q_c < 1.0;
  std::vector<size_t> cohort;
  cohort.reserve(n_honest);
  std::vector<int> client_ids;
  // The aggregator's auxiliary gradient: one row per example of D_p,
  // filled inside the round dispatch and folded after it.
  const size_t n_aux = server_->aggregator()->NeedsServerGradient()
                           ? server_->aux_size()
                           : 0;
  std::vector<float> aux_rows(n_aux * dim);
  std::vector<float> server_grad(n_aux > 0 ? dim : 0);
  // The round's local steps (worker and upload row) and their items, one
  // per (step, example): grow-only across rounds.
  struct LocalStep {
    HonestDpWorker* worker;
    float* out;
  };
  struct ExampleItem {
    HonestDpWorker* worker;
    size_t example;
  };
  std::vector<LocalStep> steps;
  std::vector<ExampleItem> items;
  // Coordinate blocks of an upload, and of the auxiliary fold.
  const size_t blocks = (dim + kGaussianFillBlock - 1) / kGaussianFillBlock;
  compute_->Prepare();

  for (int round = start_round; round <= total_rounds_; ++round) {
    const std::vector<float>& params = server_->params();

    // Poisson cohort: each honest worker joins independently with
    // probability q_c. The draw stream is keyed (seed, round) only —
    // never by thread schedule or worker count downstream — so the cohort
    // sequence is deterministic and pool-size invariant.
    cohort.clear();
    if (subsampled) {
      SplitRng sample_rng(
          options_.seed, {kClientSampleStream, static_cast<uint64_t>(round)});
      for (size_t i = 0; i < n_honest; ++i) {
        if (sample_rng.Uniform() < q_c) cohort.push_back(i);
      }
    } else {
      for (size_t i = 0; i < n_honest; ++i) cohort.push_back(i);
    }
    history.round_participants.push_back(static_cast<int>(cohort.size()));

    if (!cohort.empty()) {
      // Arena layout: cohort honest rows first, Byzantine rows after.
      size_t n_round = cohort.size() + n_byz;
      arena.Reset(n_round, dim);

      // The round's independent work as two dispatches whose items the
      // pool claims dynamically. The first runs every example of each
      // cohort member's local step, of each poisoned worker's, then each
      // auxiliary example's gradient row (it reads only w and D_p, never
      // the uploads). The second runs, per coordinate block, the
      // auxiliary fold and each local step's sum, noise and scale into
      // its upload row. Every item writes its own rows or blocks; each
      // worker's randomness is keyed by (seed, worker, round) and every
      // sum runs in a fixed order, so uploads are identical whether or
      // not others are sampled this round, and under any claim order.
      const size_t n_poisoned = poisoned_workers_.size();
      if (n_poisoned > 0) poisoned_arena.Reset(n_poisoned, dim);
      steps.clear();
      items.clear();
      auto add_step = [&](HonestDpWorker* worker, float* out) {
        worker->BeginRound(round);
        steps.push_back({worker, out});
        for (size_t j = 0; j < worker->batch_size(); ++j) {
          items.push_back({worker, j});
        }
      };
      for (size_t k = 0; k < cohort.size(); ++k) {
        add_step(honest_workers_[cohort[k]].get(), arena.Row(k));
      }
      for (size_t b = 0; b < n_poisoned; ++b) {
        add_step(poisoned_workers_[b].get(), poisoned_arena.Row(b));
      }
      ParallelFor(0, items.size() + n_aux, [&](size_t k) {
        if (k < items.size()) {
          items[k].worker->Examples(params, items[k].example,
                                    items[k].example + 1);
        } else {
          size_t i = k - items.size();
          server_->AuxGradientRowInto(i, aux_rows.data() + i * dim);
        }
      });
      const size_t fold_items = n_aux > 0 ? blocks : 0;
      ParallelFor(0, fold_items + steps.size() * blocks, [&](size_t k) {
        if (k < fold_items) {
          size_t lo = k * kGaussianFillBlock;
          server_->FoldAuxGradientInto(
              aux_rows.data(), lo, std::min(dim, lo + kGaussianFillBlock),
              server_grad.data());
        } else {
          const LocalStep& step = steps[(k - fold_items) / blocks];
          step.worker->FinishBlock((k - fold_items) % blocks, step.out);
        }
      });

      // Byzantine uploads: the omniscient attacker sees the honest rows
      // (a read-only alias of the arena) and forges straight into its
      // reserved rows — disjoint storage, so the alias is safe.
      if (n_byz > 0) {
        SplitRng attack_rng(options_.seed,
                            {kAttackStream, static_cast<uint64_t>(round)});
        AttackContext actx;
        actx.honest_uploads = arena.cspan().Slice(0, cohort.size());
        if (attack_->wants_poisoned_uploads()) {
          actx.poisoned_uploads = poisoned_arena.cspan();
        }
        actx.global_params = &params;
        actx.dim = dim;
        actx.sigma_upload =
            privacy_.dp_enabled ? privacy_.sigma_upload : 0.0;
        actx.round = round;
        actx.total_rounds = total_rounds_;
        actx.rng = &attack_rng;
        attack_->ForgeInto(actx, arena.span().Slice(cohort.size(), n_round));
      }

      agg::AggregationContext ctx;
      if (n_aux > 0) ctx.server_gradient = &server_grad;
      ctx.round = round;
      ctx.dim = dim;
      ctx.sigma_upload = privacy_.dp_enabled ? privacy_.sigma_upload : 0.0;
      ctx.gamma = gamma_;
      // Stable client ids (cohort ids first, Byzantine ids after) let
      // id-keyed aggregator state (second-stage scores) survive the
      // cohort churn of subsampled rounds. At full participation they
      // are 0..n-1, so ids and positions agree.
      client_ids.clear();
      for (size_t i : cohort) client_ids.push_back(static_cast<int>(i));
      for (size_t b = 0; b < n_byz; ++b) {
        client_ids.push_back(static_cast<int>(n_honest + b));
      }
      ctx.client_ids = &client_ids;
      DPBR_RETURN_NOT_OK(server_->Step(arena.span(), lr_, ctx));
    }
    // An empty cohort (possible when q_c·n_honest is small) skips the
    // aggregation entirely: the model is unchanged and the accountant's
    // per-round charge stands (conservative).

    bool evaluated = round % eval_every == 0 || round == total_rounds_;
    if (evaluated) {
      EvalPoint p;
      p.round = round;
      p.epoch = static_cast<double>(round) / rounds_per_epoch_;
      p.test_accuracy = server_->EvaluateAccuracy(test);
      history.evals.push_back(p);
      history.best_accuracy = std::max(history.best_accuracy,
                                       p.test_accuracy);
    }

    // --- Commit the round. ---
    ledger_.ChargeRound(round);
    history.completed_rounds = round;
    const bool final_round = round == total_rounds_;
    const bool stop_requested =
        ShutdownRequested() || (options_.stop_after_round >= 0 &&
                                round >= options_.stop_after_round);
    if (durable) {
      RoundCommitRecord rec;
      rec.round = round;
      rec.participants = static_cast<int64_t>(cohort.size());
      rec.has_eval = evaluated ? 1 : 0;
      if (evaluated) {
        rec.eval_epoch = history.evals.back().epoch;
        rec.eval_accuracy = history.evals.back().test_accuracy;
      }
      DPBR_RETURN_NOT_OK(wal_.Append(rec.Encode()));
      if (final_round || stop_requested ||
          round % options_.checkpoint_every_n_rounds == 0) {
        DPBR_RETURN_NOT_OK(WriteSnapshot(round, history));
      }
    }
    if (stop_requested && !final_round) {
      // Graceful shutdown: the round in flight finished and (when
      // durable) its checkpoint is on disk; report the partial history
      // instead of dying mid-run.
      history.interrupted = true;
      DPBR_LOG_STREAM(Info) << "stopping after round " << round << " of "
                     << total_rounds_
                     << (durable ? " (final checkpoint written)" : "");
      break;
    }
  }
  if (durable) DPBR_RETURN_NOT_OK(wal_.Close());
  if (!history.evals.empty()) {
    history.final_accuracy = history.evals.back().test_accuracy;
  }
  return history;
}

}  // namespace fl
}  // namespace dpbr
