// Durable record of the privacy budget a run has actually consumed.
//
// Calibration (privacy_params.h) fixes the per-round mechanism up front:
// every round is one step of the client-subsampled Gaussian mechanism at
// effective rate q_c·q with noise multiplier σ_mult. What changes over a
// run is only *how many* rounds have committed — so the spent ledger is
// those fixed mechanism parameters plus a committed-round count, and the
// ε(δ) spent so far is the accountant's composition over that count.
//
// The trainer charges the ledger once per committed round, snapshots it
// inside every checkpoint, and appends one WAL record per round; recovery
// rebuilds the ledger as snapshot-prefix + replayed WAL rounds, which is
// what `accountant_cli --from_checkpoint` prints so a resumed run's ε(δ)
// is auditable without re-deriving it.

#ifndef DPBR_DP_SPENT_LEDGER_H_
#define DPBR_DP_SPENT_LEDGER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "durability/bytes.h"

namespace dpbr {
namespace dp {

class SpentLedger {
 public:
  /// A ledger for a run without DP (σ = 0): rounds are still counted —
  /// the ledger doubles as the durable commit log — but ε is infinite.
  SpentLedger() = default;

  /// Mechanism parameters fixed by calibration: client rate q_c, record
  /// rate q, noise multiplier σ_mult (sensitivity-1 units), target δ.
  SpentLedger(double q_client, double q_record, double noise_multiplier,
              double delta);

  /// Commits one round. Rounds may arrive in any order but each is
  /// charged exactly once per call; `round` is only remembered as the
  /// latest committed round number for auditing.
  void ChargeRound(int64_t round);

  int64_t rounds_charged() const { return rounds_charged_; }
  int64_t last_round() const { return last_round_; }
  double q_client() const { return q_client_; }
  double q_record() const { return q_record_; }
  double noise_multiplier() const { return noise_multiplier_; }
  double delta() const { return delta_; }
  bool dp_enabled() const { return noise_multiplier_ > 0.0; }

  /// ε(δ) after the charged rounds: 0 for an empty ledger, +inf without
  /// DP, otherwise the accountant's composition (errors propagate).
  Result<double> CurrentEpsilon() const;

  /// One-line human-readable audit ("rounds=... eps=...").
  std::string ToString() const;

  /// Appends the ledger to `w` (bitwise round-trip with DecodeFrom).
  void EncodeTo(durability::ByteWriter* w) const;

  /// Reads a ledger previously written by EncodeTo. Rejects a client rate
  /// outside [0, 1] and a negative round count.
  static Result<SpentLedger> DecodeFrom(durability::ByteReader* r);

 private:
  double q_client_ = 1.0;
  double q_record_ = 0.0;
  double noise_multiplier_ = 0.0;
  double delta_ = 0.0;
  int64_t rounds_charged_ = 0;
  int64_t last_round_ = 0;
};

}  // namespace dp
}  // namespace dpbr

#endif  // DPBR_DP_SPENT_LEDGER_H_
