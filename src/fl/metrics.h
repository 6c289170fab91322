// Training history collected by the federated trainer.

#ifndef DPBR_FL_METRICS_H_
#define DPBR_FL_METRICS_H_

#include <vector>

namespace dpbr {
namespace fl {

/// One evaluation point.
struct EvalPoint {
  int round = 0;
  double epoch = 0.0;
  double test_accuracy = 0.0;
};

/// Full record of one federated run.
struct TrainingHistory {
  std::vector<EvalPoint> evals;
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  int total_rounds = 0;
  /// Honest cohort size of every round (n_honest each round under full
  /// participation; Binomial(n_honest, q_c) draws under Poisson client
  /// subsampling). Byzantine rows are excluded from the count.
  std::vector<int> round_participants;
  /// Privacy actually enforced (copied from the calibration).
  double epsilon = 0.0;
  double sigma = 0.0;
  double learning_rate = 0.0;
  /// Rounds actually committed. Equals total_rounds for a run that went
  /// the distance; smaller when a graceful shutdown stopped it early.
  int completed_rounds = 0;
  /// True when the run stopped before total_rounds (graceful shutdown or
  /// an explicit stop_after_round); resume from the checkpoint directory
  /// to continue it.
  bool interrupted = false;
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_METRICS_H_
