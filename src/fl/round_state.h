// Durable round state: what the federated trainer persists so a killed
// run resumes bit-identically (see docs/durability.md).
//
// Two artifacts live in a trainer's checkpoint directory:
//
//  * checkpoint-<round>.ckpt — a PersistentRoundState snapshot: the full
//    cross-round state after round r committed (model parameters, every
//    worker's momentum list, aggregator state blob, the spent-budget
//    ledger, the TrainingHistory prefix) plus a fingerprint of the
//    experiment configuration so a snapshot can never be resumed into a
//    different experiment.
//  * wal.log — one RoundCommitRecord per committed round. Records at or
//    before the snapshot round are subsumed by the snapshot; later ones
//    exist so an auditor (accountant_cli --from_checkpoint) can account
//    ε(δ) for rounds whose snapshot was lost with the crash. Training
//    itself re-executes those rounds deterministically on resume.
//
// All encodings ride the durability byte layer, so a decode → encode is
// byte-identical and the resume-equals-uninterrupted property is bitwise.

#ifndef DPBR_FL_ROUND_STATE_H_
#define DPBR_FL_ROUND_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dp/spent_ledger.h"
#include "durability/bytes.h"
#include "fl/metrics.h"

namespace dpbr {
namespace fl {

/// Payload layout version inside the checkpoint container (which has its
/// own container version; this one covers the trainer state encoding).
inline constexpr uint32_t kRoundStateVersion = 1;

/// WAL file name inside a checkpoint directory.
inline constexpr char kWalFileName[] = "wal.log";

/// Path of the WAL inside `dir`.
std::string WalPath(const std::string& dir);

/// Identity of the experiment a snapshot belongs to. Every field changes
/// the training trajectory, so restoring under a different fingerprint
/// would silently produce garbage — the trainer refuses instead
/// (FailedPrecondition).
struct RoundStateFingerprint {
  uint64_t seed = 0;
  int64_t num_honest = 0;
  int64_t num_byzantine = 0;
  int64_t epochs = 0;
  int64_t batch_size = 0;
  int64_t total_rounds = 0;
  uint64_t dim = 0;
  double epsilon = 0.0;
  double client_sampling_rate = 1.0;
  uint8_t momentum_reset = 0;
  uint8_t iid = 1;

  bool operator==(const RoundStateFingerprint& o) const;
  bool operator!=(const RoundStateFingerprint& o) const {
    return !(*this == o);
  }
  /// Human-readable form for mismatch diagnostics.
  std::string ToString() const;
};

/// Everything the trainer must restore to continue after `completed_round`
/// exactly as the uninterrupted run would have.
struct PersistentRoundState {
  RoundStateFingerprint fingerprint;
  int64_t completed_round = 0;
  /// Flat global model parameters (server source of truth).
  std::vector<float> model_params;
  /// Momentum list φ of every honest worker (batch_size slots × dim),
  /// worker-id order.
  std::vector<std::vector<std::vector<float>>> honest_momentum;
  /// Same for the poisoned-protocol workers backing data-poisoning
  /// attacks (empty when the attack has none).
  std::vector<std::vector<std::vector<float>>> poisoned_momentum;
  /// Per-worker SplitRng stream keys (honest then poisoned, in id order).
  /// The keys are derivable from the seed; storing them lets recovery
  /// verify the RNG derivation chain is unchanged before trusting it.
  std::vector<uint64_t> worker_rng_keys;
  /// Opaque aggregator state blob (Aggregator::SaveState — the dpbr rule
  /// stores its second-stage cumulative scores here).
  std::string aggregator_state;
  /// Privacy budget actually spent through completed_round.
  dp::SpentLedger ledger;
  /// History prefix: evals and participants for rounds <= completed_round.
  TrainingHistory history;
};

/// The fields of a PersistentRoundState by reference, so a payload can
/// be encoded straight from live objects: the trainer points it at its
/// server, workers and ledger, EncodeRoundState(PersistentRoundState) at
/// a decoded snapshot. Every pointer must stay valid while it is encoded.
struct RoundStateView {
  RoundStateFingerprint fingerprint;
  int64_t completed_round = 0;
  const std::vector<float>* model_params = nullptr;
  /// One momentum list per worker, worker-id order.
  std::vector<const std::vector<std::vector<float>>*> honest_momentum;
  std::vector<const std::vector<std::vector<float>>*> poisoned_momentum;
  std::vector<uint64_t> worker_rng_keys;
  const std::string* aggregator_state = nullptr;
  const dp::SpentLedger* ledger = nullptr;
  const TrainingHistory* history = nullptr;
};

/// Writes the checkpoint payload of `state` into `w`: the one definition
/// of the payload encoding.
void EncodeRoundState(const RoundStateView& state, durability::ByteWriter* w);

/// Serializes `state` into a checkpoint payload.
std::string EncodeRoundState(const PersistentRoundState& state);

/// Parses a checkpoint payload. Any structural problem — truncation, bad
/// version, implausible counts — is InvalidArgument; the caller treats it
/// like a CRC failure (fall back to an older snapshot).
Result<PersistentRoundState> DecodeRoundState(const std::string& payload);

/// One committed round, as appended to the WAL.
struct RoundCommitRecord {
  int64_t round = 0;
  int64_t participants = 0;
  uint8_t has_eval = 0;
  double eval_epoch = 0.0;
  double eval_accuracy = 0.0;

  std::string Encode() const;
  static Result<RoundCommitRecord> Decode(const std::string& payload);
};

/// Combined recovery view of a checkpoint directory.
struct DurableRunState {
  /// False for a fresh directory (start from round 1).
  bool has_snapshot = false;
  PersistentRoundState snapshot;
  /// Newer checkpoint files skipped as corrupt to reach `snapshot`.
  int skipped_corrupt_checkpoints = 0;
  /// Valid WAL records, oldest first (possibly from before the snapshot).
  std::vector<RoundCommitRecord> wal_records;
  /// False when the WAL scan stopped at a damaged tail; `wal_damage`
  /// holds the reason.
  bool wal_clean = true;
  std::string wal_damage;
};

/// Loads the most recent usable snapshot and replays the WAL. Corruption
/// of individual artifacts degrades (logged, reflected in the struct);
/// only hard I/O errors fail.
Result<DurableRunState> LoadDurableState(const std::string& dir);

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_ROUND_STATE_H_
