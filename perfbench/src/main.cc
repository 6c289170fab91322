// perfbench_runner: runs one benchmark workload end to end through the
// real fl::FederatedTrainer::Run() and prints its metrics.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--min_accuracy <f>] [--scratch_dir <dir>]
//
// --trace 0: three untraced runs give the end-to-end metrics (medians over
//   the runs, which must agree bitwise); further runs stopped after the
//   first aggregated round fill the rest of --seconds and add set-up
//   samples.
// --trace 1: one untraced run, then the same workload traced (see
//   trace.h), then isolated probes of public layer functions on the
//   workload's shapes; prints the per-layer metrics.
// Both modes run the correctness gate. The last stdout line is one JSON
// object with the keys correct, attempted, failed and metrics; the exit
// code is 1 when the gate fails and 2 on a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/simd.h"
#include "attacks/a_little.h"
#include "common/thread_pool.h"
#include "core/first_stage.h"
#include "core/protocol_options.h"
#include "core/second_stage.h"
#include "data/partition.h"
#include "dp/privacy_params.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "fl/round_state.h"
#include "fl/server.h"
#include "fl/worker.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Full training runs per --trace 0 invocation.
constexpr int kTrainingRepeats = 3;
// Set-up samples per --trace 0 invocation (each training run gives one).
constexpr size_t kMinSetupSamples = 5;
constexpr size_t kMaxSetupSamples = 15;
// A p90 needs at least ten samples beyond it.
constexpr size_t kMinRoundSamples = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  double min_accuracy = -1.0;  ///< < 0: the workload's own floor
  std::string scratch_dir = ".bench_build/scratch";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Correctness gate: collects every failed check.
class Gate {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
    failures_.push_back(what);
  }
  bool passed() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

/// Quantile with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Median wall time of `reps` calls f(i), in milliseconds.
template <typename F>
double MedianMs(int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    TimePoint t0 = Clock::now();
    f(i);
    ms.push_back(1e3 * Seconds(t0, Clock::now()));
  }
  return Median(std::move(ms));
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A fresh, empty directory under the scratch root, removed again when
/// this goes out of scope — durable runs never resume an earlier run.
class ScratchDir {
 public:
  ScratchDir(const Args& args, const std::string& tag) {
    static int counter = 0;
    path_ = fs::path(args.scratch_dir) /
            (tag + "-" + std::to_string(getpid()) + "-" +
             std::to_string(counter++));
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Outputs and round clock of one FederatedTrainer::Run().
struct RunResult {
  dpbr::Status status;
  int total_rounds = 0;
  dpbr::fl::TrainingHistory history;
  std::vector<float> params;
  double eps_spent = 0.0;
  TimePoint begin;
  TimePoint end;
  std::vector<TimePoint> stamps;  ///< one per Aggregate return
  uint64_t dispatches_at_end = 0;

  bool has_round() const { return !stamps.empty(); }
  /// From the first call into the program to the end of the first
  /// aggregated round.
  double setup_s() const { return Seconds(begin, stamps.front()); }
  /// From the end of the first aggregated round to Run()'s return.
  double train_s() const { return Seconds(stamps.front(), end); }
  std::vector<double> round_ms() const {
    std::vector<double> ms;
    for (size_t i = 1; i < stamps.size(); ++i) {
      ms.push_back(1e3 * Seconds(stamps[i - 1], stamps[i]));
    }
    return ms;
  }
};

/// Generates the workload's data from `seed` and trains it. With a
/// tracer the model factory, the attack and the aggregator are traced.
RunResult RunTraining(const Workload& w, uint64_t seed, Tracer* tracer,
                      const std::string& checkpoint_dir,
                      int stop_after_round) {
  RunResult r;
  r.stamps.reserve(1 << 14);
  r.begin = Clock::now();
  dpbr::Result<dpbr::data::DatasetBundle> bundle =
      dpbr::data::GenerateSynthetic(w.spec, seed);
  dpbr::Result<dpbr::agg::AggregatorPtr> aggregator = MakeDpbrAggregator();
  dpbr::Result<dpbr::fl::AttackPtr> attack = MakeAttackFor(w);
  if (!bundle.ok() || !aggregator.ok() || !attack.ok()) {
    r.status = !bundle.ok()       ? bundle.status()
               : !aggregator.ok() ? aggregator.status()
                                  : attack.status();
    return r;
  }
  dpbr::nn::ModelFactory factory = ModelFactoryFor(w);
  dpbr::fl::AttackPtr attack_ptr = std::move(attack).value();
  if (tracer != nullptr) {
    factory = TracedFactory(std::move(factory), tracer);
    if (attack_ptr != nullptr) {
      attack_ptr = std::make_unique<TimedAttack>(std::move(attack_ptr), tracer);
    }
  }
  dpbr::fl::TrainerOptions options = TrainerOptionsFor(w, seed);
  options.checkpoint_dir = checkpoint_dir;
  options.stop_after_round = stop_after_round;
  dpbr::fl::FederatedTrainer trainer(
      &bundle.value(), std::move(factory),
      std::make_unique<ClockedAggregator>(std::move(aggregator).value(),
                                          &r.stamps, tracer),
      std::move(attack_ptr), options);
  dpbr::Result<dpbr::fl::TrainingHistory> history = trainer.Run();
  r.end = Clock::now();
  r.dispatches_at_end = dpbr::ParallelDispatchCount();
  r.total_rounds = trainer.total_rounds();
  if (!history.ok()) {
    r.status = history.status();
    return r;
  }
  r.history = std::move(history).value();
  r.params = trainer.server()->params();
  dpbr::Result<double> eps = trainer.spent_ledger().CurrentEpsilon();
  if (!eps.ok()) {
    r.status = eps.status();
    return r;
  }
  r.eps_spent = eps.value();
  return r;
}

/// A full (not set-up only) training run inside a fresh checkpoint
/// directory when the workload is durable.
RunResult RunFull(const Workload& w, const Args& args, Tracer* tracer) {
  if (w.checkpoint_every_n_rounds == 0) {
    return RunTraining(w, args.seed, tracer, "", -1);
  }
  ScratchDir dir(args, w.name);
  return RunTraining(w, args.seed, tracer, dir.path(), -1);
}

void CheckRun(const RunResult& r, double min_accuracy, const std::string& label,
              Gate* gate) {
  gate->Check(r.status.ok(), label + ": Run() failed: " + r.status.ToString());
  if (!r.status.ok()) return;
  const dpbr::fl::TrainingHistory& h = r.history;
  gate->Check(h.completed_rounds == r.total_rounds && !h.interrupted,
              label + ": committed " + std::to_string(h.completed_rounds) +
                  " of " + std::to_string(r.total_rounds) + " rounds");
  gate->Check(h.final_accuracy >= min_accuracy,
              label + ": final_acc " + std::to_string(h.final_accuracy) +
                  " below the floor " + std::to_string(min_accuracy));
  gate->Check(r.eps_spent <= kEpsilon * (1.0 + 1e-9),
              label + ": spent epsilon " + std::to_string(r.eps_spent) +
                  " exceeds the configured " + std::to_string(kEpsilon));
  gate->Check(r.has_round(), label + ": no round was aggregated");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// First output on which two runs differ, or "" when they agree bitwise.
std::string FirstDifference(const RunResult& a, const RunResult& b) {
  if (a.params.size() != b.params.size() ||
      std::memcmp(a.params.data(), b.params.data(),
                  a.params.size() * sizeof(float)) != 0) {
    return "final parameters";
  }
  const dpbr::fl::TrainingHistory& x = a.history;
  const dpbr::fl::TrainingHistory& y = b.history;
  if (x.evals.size() != y.evals.size()) return "evaluation count";
  for (size_t i = 0; i < x.evals.size(); ++i) {
    if (x.evals[i].round != y.evals[i].round ||
        !SameBits(x.evals[i].epoch, y.evals[i].epoch) ||
        !SameBits(x.evals[i].test_accuracy, y.evals[i].test_accuracy)) {
      return "evaluation " + std::to_string(i);
    }
  }
  if (!SameBits(x.final_accuracy, y.final_accuracy) ||
      !SameBits(x.best_accuracy, y.best_accuracy)) {
    return "accuracy";
  }
  if (x.round_participants != y.round_participants) return "cohorts";
  if (x.total_rounds != y.total_rounds ||
      x.completed_rounds != y.completed_rounds ||
      x.interrupted != y.interrupted) {
    return "round counts";
  }
  if (!SameBits(x.epsilon, y.epsilon) || !SameBits(x.sigma, y.sigma) ||
      !SameBits(x.learning_rate, y.learning_rate)) {
    return "privacy calibration";
  }
  if (!SameBits(a.eps_spent, b.eps_spent)) return "spent epsilon";
  return "";
}

/// Operations are rounds: a round not committed is a failed one.
void CountRounds(const RunResult& r, int64_t* attempted, int64_t* failed) {
  int64_t total = std::max(r.total_rounds, 1);
  int64_t committed = r.status.ok() ? r.history.completed_rounds : 0;
  *attempted += total;
  *failed += total - std::min(committed, total);
}

/// 1-based index of the first round whose cohort was not empty.
int FirstAggregatedRound(const dpbr::fl::TrainingHistory& h) {
  for (size_t i = 0; i < h.round_participants.size(); ++i) {
    if (h.round_participants[i] > 0) return static_cast<int>(i) + 1;
  }
  return 1;
}

struct Outcome {
  Gate gate;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> meta;
};

void EndToEnd(const Workload& w, const Args& args, double min_accuracy,
              TimePoint start, Outcome* out) {
  // Each timing metric is the median over the repeats, so host contention
  // that hits one repeat does not move the run's figures.
  std::vector<RunResult> runs;
  std::vector<double> setups, train, p50, p90;
  size_t round_samples = SIZE_MAX;
  for (int k = 0; k < kTrainingRepeats; ++k) {
    const std::string label = "run " + std::to_string(k + 1);
    runs.push_back(RunFull(w, args, nullptr));
    const RunResult& run = runs.back();
    CountRounds(run, &out->attempted, &out->failed);
    CheckRun(run, min_accuracy, label, &out->gate);
    if (!run.status.ok() || !run.has_round()) return;
    const std::vector<double> rounds = run.round_ms();
    if (!args.smoke) {
      out->gate.Check(rounds.size() >= kMinRoundSamples,
                      label + ": only " + std::to_string(rounds.size()) +
                          " round samples; p90 needs at least " +
                          std::to_string(kMinRoundSamples));
    }
    const std::string diff = FirstDifference(runs.front(), run);
    out->gate.Check(diff.empty(), label + " differs from run 1 in " + diff);
    setups.push_back(run.setup_s());
    train.push_back(run.train_s());
    p50.push_back(Quantile(rounds, 0.5));
    p90.push_back(Quantile(rounds, 0.9));
    round_samples = std::min(round_samples, rounds.size());
  }
  const RunResult& run = runs.front();
  // Set-up repeats: same workload, stopped right after its first
  // aggregated round, without durability (the checkpoint directory only
  // matters after that round).
  const int stop_round = FirstAggregatedRound(run.history);
  while (setups.size() < kMinSetupSamples ||
         (Seconds(start, Clock::now()) < args.seconds &&
          setups.size() < kMaxSetupSamples)) {
    RunResult rep = RunTraining(w, args.seed, nullptr, "", stop_round);
    out->gate.Check(rep.status.ok() && rep.has_round(),
                    "set-up run failed: " + rep.status.ToString());
    if (!rep.status.ok() || !rep.has_round()) break;
    setups.push_back(rep.setup_s());
  }
  out->metrics = {
      {"setup_s", Median(setups), "s"},
      {"train_s", Median(train), "s"},
      {"round_ms_p50", Median(p50), "ms"},
      {"round_ms_p90", Median(p90), "ms"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
      {"final_acc", run.history.final_accuracy, "fraction"},
      {"eps_spent", run.eps_spent, "eps"},
  };
  out->meta.emplace_back("round_samples", static_cast<double>(round_samples));
  out->meta.emplace_back("setup_samples", static_cast<double>(setups.size()));
  out->meta.emplace_back("rounds", run.total_rounds);
}

/// Share of the pool's thread time spent in worker nn spans during each
/// round's worker phase: from the round's first worker span to the first
/// event after the workers (forge, a server model build, or Aggregate).
double PoolBusyFraction(const Tracer& t, std::vector<Span> spans,
                        size_t threads) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  std::vector<TimePoint> builds = t.server_builds;
  std::sort(builds.begin(), builds.end());
  double busy = 0.0;
  double capacity = 0.0;
  for (size_t k = 1; k < t.aggregates.size(); ++k) {
    TimePoint lo = t.aggregates[k - 1].span.end;
    TimePoint hi = t.aggregates[k].span.begin;
    auto first = std::lower_bound(
        spans.begin(), spans.end(), lo,
        [](const Span& s, TimePoint x) { return s.begin < x; });
    if (first == spans.end() || first->begin >= hi) continue;
    TimePoint phase_begin = first->begin;
    TimePoint phase_end = hi;
    for (const Span& f : t.forges) {
      if (f.begin > phase_begin && f.begin < phase_end) phase_end = f.begin;
    }
    auto build = std::upper_bound(builds.begin(), builds.end(), phase_begin);
    if (build != builds.end() && *build < phase_end) phase_end = *build;
    for (auto it = first; it != spans.end() && it->begin < phase_end; ++it) {
      busy += Seconds(it->begin, std::min(it->end, phase_end));
    }
    capacity += static_cast<double>(threads) * Seconds(phase_begin, phase_end);
  }
  return capacity > 0.0 ? busy / capacity : 0.0;
}

/// Per-layer metrics read from the traced run (round 1 excluded from the
/// timings: it runs on cold workspaces).
std::vector<Metric> TracedMetrics(const Tracer& t, const RunResult& traced,
                                  const RunResult& untraced) {
  const TimePoint warm = t.aggregates.front().span.end;
  std::vector<double> fwd, bwd, forge, aggregate;
  std::vector<Span> spans;
  for (const ModelLog& log : t.worker_logs) {
    for (const Span& s : log.fwd) {
      if (s.begin > warm) fwd.push_back(s.ms());
      spans.push_back(s);
    }
    for (const Span& s : log.bwd) {
      if (s.begin > warm) bwd.push_back(s.ms());
      spans.push_back(s);
    }
  }
  for (const Span& s : t.forges) {
    if (s.begin > warm) forge.push_back(s.ms());
  }
  size_t honest_rows = 0, honest_rejected = 0, byz_rows = 0, byz_selected = 0;
  for (size_t k = 0; k < t.aggregates.size(); ++k) {
    const AggregateRecord& a = t.aggregates[k];
    if (k > 0) aggregate.push_back(a.span.ms());
    honest_rows += a.honest_rows;
    honest_rejected += a.honest_rejected;
    byz_rows += a.byz_rows;
    byz_selected += a.byz_selected;
  }
  const double later_rounds = std::max(
      1.0, static_cast<double>(traced.total_rounds - t.aggregates[0].round));
  const size_t threads = dpbr::ThreadPool::Global().num_threads();
  std::vector<Metric> m = {
      {"nn.fwd_ms", Median(fwd), "ms"},
      {"nn.bwd_ms", Median(bwd), "ms"},
      {"nn.models_built_per_round",
       static_cast<double>(t.models_built.load() -
                           t.models_built_after_round1) /
           later_rounds,
       "count"},
      {"common.pool_busy_frac", PoolBusyFraction(t, spans, threads),
       "fraction"},
      {"common.dispatches_per_round",
       static_cast<double>(traced.dispatches_at_end -
                           t.dispatches_after_round1) /
           later_rounds,
       "count"},
      {"core.aggregate_ms", Median(aggregate), "ms"},
      {"core.honest_reject_frac",
       honest_rows > 0 ? static_cast<double>(honest_rejected) / honest_rows
                       : 0.0,
       "fraction"},
      {"core.byz_selected_frac",
       byz_rows > 0 ? static_cast<double>(byz_selected) / byz_rows : 0.0,
       "fraction"},
      {"bench.trace_overhead_frac", traced.train_s() / untraced.train_s() - 1,
       "fraction"},
  };
  // Without an attack ProbeMetrics times a stand-in forge instead.
  if (!forge.empty()) m.push_back({"attacks.forge_ms", Median(forge), "ms"});
  return m;
}

/// Isolated probes of public layer functions on the workload's shapes.
std::vector<Metric> ProbeMetrics(const Workload& w, const Args& args,
                                 const CapturedRound& round, Gate* gate) {
  const int reps = args.smoke ? 1 : 5;
  std::vector<Metric> m;

  dpbr::Result<dpbr::data::DatasetBundle> bundle =
      dpbr::Status::Internal("not generated");
  double synth_ms = MedianMs(reps, [&](int) {
    bundle = dpbr::data::GenerateSynthetic(w.spec, args.seed);
  });
  dpbr::dp::PrivacySpec spec;
  spec.epsilon = kEpsilon;
  spec.dataset_size = static_cast<int>(MinShard(w));
  spec.batch_size = std::min(kBatchSize, spec.dataset_size);
  spec.epochs = w.epochs;
  spec.client_sampling_rate = w.client_sampling_rate;
  dpbr::Result<dpbr::dp::PrivacyParams> privacy =
      dpbr::Status::Internal("not calibrated");
  double calibrate_ms = MedianMs(
      reps, [&](int) { privacy = dpbr::dp::CalibratePrivacy(spec); });
  dpbr::Result<dpbr::agg::AggregatorPtr> aggregator = MakeDpbrAggregator();
  gate->Check(bundle.ok() && privacy.ok() && aggregator.ok(),
              "probe set-up failed");
  if (!bundle.ok() || !privacy.ok() || !aggregator.ok()) return m;
  m.push_back({"data.synth_s", synth_ms / 1e3, "s"});
  m.push_back({"dp.calibrate_ms", calibrate_ms, "ms"});

  const dpbr::data::DatasetBundle& data = bundle.value();
  const dpbr::nn::ModelFactory factory = ModelFactoryFor(w);
  dpbr::SplitRng aux_rng(args.seed, {0xa0c5});
  dpbr::Result<std::vector<size_t>> aux = dpbr::data::SampleAuxiliaryIndices(
      data.val.labels(), data.val.num_classes(),
      static_cast<size_t>(TrainerOptionsFor(w, args.seed).aux_per_class),
      &aux_rng);
  gate->Check(aux.ok(), "auxiliary sample: " + aux.status().ToString());
  if (!aux.ok()) return m;
  dpbr::fl::Server server(factory, std::move(aggregator).value(),
                          dpbr::data::DatasetView(&data.val, aux.value()),
                          args.seed);

  {
    // Inside the round a worker runs in a pool task, where every nested
    // dispatch runs inline: a one-thread pool reproduces that.
    dpbr::ThreadPool one(1);
    dpbr::ScopedPoolOverride pool(&one);
    std::vector<size_t> shard(MinShard(w));
    std::iota(shard.begin(), shard.end(), size_t{0});
    dpbr::fl::TrainerOptions topts = TrainerOptionsFor(w, args.seed);
    dpbr::fl::WorkerOptions wopts;
    wopts.batch_size = spec.batch_size;
    wopts.beta = topts.beta;
    wopts.sigma = privacy.value().sigma;
    wopts.momentum_reset = topts.momentum_reset;
    dpbr::fl::HonestDpWorker worker(
        0, dpbr::data::DatasetView(&data.train, shard), factory, wopts,
        args.seed);
    std::vector<float> upload(worker.dim());
    worker.ComputeUpdateInto(server.params(), 0, upload.data());  // warm-up
    m.push_back({"fl.local_step_ms", MedianMs(reps, [&](int i) {
                   worker.ComputeUpdateInto(server.params(), i + 1,
                                            upload.data());
                 }),
                 "ms"});
    m.push_back({"dp.noise_ms", MedianMs(4 * reps, [&](int i) {
                   dpbr::SplitRng rng(args.seed, {static_cast<uint64_t>(i)});
                   rng.AddGaussian(upload.data(), upload.size(),
                                   privacy.value().sigma);
                 }),
                 "ms"});
  }

  bool grad_ok = true;
  m.push_back({"fl.server_grad_ms", MedianMs(reps, [&](int) {
                 grad_ok = grad_ok && server.ComputeServerGradient().ok();
               }),
               "ms"});
  gate->Check(grad_ok, "server gradient probe failed");
  const dpbr::data::DatasetView test = dpbr::data::DatasetView::All(&data.test);
  m.push_back({"fl.eval_ms",
               MedianMs(reps, [&](int) { (void)server.EvaluateAccuracy(test); }),
               "ms"});

  gate->Check(round.valid, "no round was captured for the stage probes");
  double first_ms = 0.0;
  double second_ms = 0.0;
  if (round.valid) {
    const dpbr::core::FirstStageFilter first(dpbr::core::ProtocolOptions{});
    std::vector<float> rows;
    first_ms = MedianMs(reps, [&](int) {
      rows = round.uploads;  // Apply zeroes rejected rows in place
      (void)first.Apply(dpbr::RowSpan(rows.data(), round.rows, round.dim),
                        round.sigma_upload);
    });
    bool select_ok = true;
    second_ms = MedianMs(reps, [&](int) {
      dpbr::core::SecondStageAggregator second;
      select_ok =
          select_ok &&
          second
              .SelectWorkers(
                  dpbr::ConstRowSpan(rows.data(), round.rows, round.dim),
                  round.server_gradient, round.gamma,
                  round.has_client_ids ? &round.client_ids : nullptr)
              .ok();
    });
    gate->Check(select_ok, "second-stage probe failed");
    if (w.num_byzantine == 0) {
      // Stand-in forge: one ALIE row against the captured honest uploads.
      dpbr::attacks::ALittleAttack alie;
      std::vector<float> forged(round.dim);
      m.push_back({"attacks.forge_ms", MedianMs(reps, [&](int i) {
                     dpbr::SplitRng rng(args.seed, {static_cast<uint64_t>(i)});
                     dpbr::fl::AttackContext ctx;
                     ctx.honest_uploads = dpbr::ConstRowSpan(
                         round.uploads.data(), round.rows, round.dim);
                     ctx.global_params = &server.params();
                     ctx.dim = round.dim;
                     ctx.sigma_upload = round.sigma_upload;
                     ctx.rng = &rng;
                     alie.ForgeInto(ctx,
                                    dpbr::RowSpan(forged.data(), 1, round.dim));
                   }),
                   "ms"});
    }
  }
  m.push_back({"core.first_stage_ms", first_ms, "ms"});
  m.push_back({"core.second_stage_ms", second_ms, "ms"});

  // Checkpoint cost of this workload's state; only the durable workload
  // pays it during training.
  double checkpoint_ms = 0.0;
  double checkpoint_mib = 0.0;
  double wal_append_us = 0.0;
  {
    dpbr::fl::PersistentRoundState state;
    state.completed_round = 1;
    state.model_params = server.params();
    state.honest_momentum.assign(
        static_cast<size_t>(w.num_honest),
        std::vector<std::vector<float>>(
            static_cast<size_t>(spec.batch_size),
            std::vector<float>(server.dim(), 0.0f)));
    state.worker_rng_keys.assign(static_cast<size_t>(w.num_honest), 0);
    ScratchDir dir(args, w.name + "-probe");
    std::string payload;
    dpbr::Status st;
    checkpoint_ms = MedianMs(args.smoke ? 1 : 3, [&](int i) {
      payload = dpbr::fl::EncodeRoundState(state);
      dpbr::Status write =
          dpbr::durability::WriteCheckpoint(dir.path(), i + 1, payload);
      if (st.ok()) st = write;
    });
    checkpoint_mib = static_cast<double>(payload.size()) / (1 << 20);
    dpbr::Result<dpbr::durability::WalWriter> wal =
        dpbr::durability::WalWriter::Open(dpbr::fl::WalPath(dir.path()),
                                          /*truncate=*/true);
    if (wal.ok()) {
      dpbr::fl::RoundCommitRecord record;
      record.round = 1;
      const std::string bytes = record.Encode();
      wal_append_us = 1e3 * MedianMs(20, [&](int) {
                        dpbr::Status append = wal.value().Append(bytes);
                        if (st.ok()) st = append;
                      });
      dpbr::Status close = wal.value().Close();
      if (st.ok()) st = close;
    } else {
      st = wal.status();
    }
    gate->Check(st.ok(), "durability probe: " + st.ToString());
  }
  m.push_back({"durability.checkpoint_ms", checkpoint_ms, "ms"});
  m.push_back({"durability.checkpoint_mib", checkpoint_mib, "MiB"});
  m.push_back({"durability.wal_append_us", wal_append_us, "us"});
  return m;
}

void PerLayer(const Workload& w, const Args& args, double min_accuracy,
              Outcome* out) {
  RunResult untraced = RunFull(w, args, nullptr);
  CountRounds(untraced, &out->attempted, &out->failed);
  CheckRun(untraced, min_accuracy, "untraced run", &out->gate);
  // Worker models are the first the factory builds; the workloads' attacks
  // run no poisoned-protocol workers.
  Tracer tracer(static_cast<size_t>(w.num_honest),
                static_cast<size_t>(w.num_byzantine));
  RunResult traced = RunFull(w, args, &tracer);
  CountRounds(traced, &out->attempted, &out->failed);
  CheckRun(traced, min_accuracy, "traced run", &out->gate);
  if (!untraced.status.ok() || !traced.status.ok() || !untraced.has_round() ||
      tracer.aggregates.empty()) {
    return;
  }
  const std::string diff = FirstDifference(untraced, traced);
  out->gate.Check(diff.empty(),
                  "traced run differs from the untraced run in " + diff);
  out->metrics = TracedMetrics(tracer, traced, untraced);
  std::vector<Metric> probes =
      ProbeMetrics(w, args, tracer.captured, &out->gate);
  out->metrics.insert(out->metrics.end(), probes.begin(), probes.end());
  out->meta.emplace_back("rounds", traced.total_rounds);
  out->meta.emplace_back("untraced_train_s", untraced.train_s());
  out->meta.emplace_back("traced_train_s", traced.train_s());
}

void Print(const Args& args, Outcome* out) {
  for (Metric& m : out->metrics) {
    out->gate.Check(std::isfinite(m.value), m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"threads\": %zu, \"isa\": \"%s\"",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, dpbr::ThreadPool::Global().num_threads(),
      dpbr::simd::IsaName(dpbr::simd::ActiveIsa()));
  for (const auto& [key, value] : out->meta) {
    std::printf(", \"%s\": %.10g", key.c_str(), value);
  }
  std::printf("}}\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      out->gate.passed() ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(out->attempted, 1)),
      static_cast<long long>(out->failed));
  for (size_t i = 0; i < out->metrics.size(); ++i) {
    const Metric& m = out->metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

dpbr::Result<Args> ParseArgs(int argc, char** argv) {
  dpbr::Flags flags = dpbr::Flags::Parse(argc, argv);
  Args a;
  a.workload = flags.GetString("workload", "");
  DPBR_ASSIGN_OR_RETURN(int64_t seed, flags.GetIntOrStatus("seed", 1));
  DPBR_ASSIGN_OR_RETURN(a.seconds, flags.GetDoubleOrStatus("seconds", 10.0));
  DPBR_ASSIGN_OR_RETURN(int64_t trace, flags.GetIntOrStatus("trace", 0));
  DPBR_ASSIGN_OR_RETURN(a.min_accuracy,
                        flags.GetDoubleOrStatus("min_accuracy", -1.0));
  a.smoke = flags.GetBool("smoke", false);
  a.scratch_dir = flags.GetString("scratch_dir", a.scratch_dir);
  if (seed < 0) return dpbr::Status::InvalidArgument("--seed must be >= 0");
  if (!(a.seconds > 0.0)) {
    return dpbr::Status::InvalidArgument("--seconds must be positive");
  }
  if (trace != 0 && trace != 1) {
    return dpbr::Status::InvalidArgument("--trace must be 0 or 1");
  }
  a.seed = static_cast<uint64_t>(seed);
  a.trace = trace == 1;
  return a;
}

int Main(int argc, char** argv) {
  const TimePoint start = Clock::now();
  dpbr::Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  dpbr::Result<Workload> w = GetWorkload(args.value().workload,
                                         args.value().smoke);
  if (!w.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", w.status().ToString().c_str());
    return 2;
  }
  const double min_accuracy = args.value().min_accuracy >= 0.0
                                  ? args.value().min_accuracy
                                  : w.value().min_final_accuracy;
  Outcome out;
  if (args.value().trace) {
    PerLayer(w.value(), args.value(), min_accuracy, &out);
  } else {
    EndToEnd(w.value(), args.value(), min_accuracy, start, &out);
  }
  Print(args.value(), &out);
  return out.gate.passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
