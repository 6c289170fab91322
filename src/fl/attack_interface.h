// Byzantine attack interface (implementations live in src/attacks).
//
// The threat model follows the paper §3.1: the attacker is *omniscient* —
// it sees every honest upload, the global model, the DP noise level and
// the aggregation rule — and controls all Byzantine workers jointly.

#ifndef DPBR_FL_ATTACK_INTERFACE_H_
#define DPBR_FL_ATTACK_INTERFACE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/span.h"

namespace dpbr {
namespace fl {

/// \brief Everything an omniscient Byzantine attacker observes in one
/// round.
///
/// The upload views alias the round's UploadArena (or any contiguous
/// block the caller owns); they are valid only for the duration of the
/// ForgeInto call.
struct AttackContext {
  /// Uploads produced by all honest workers this round (read-only view).
  ConstRowSpan honest_uploads;
  /// For data-poisoning attacks: uploads the Byzantine workers would send
  /// if they honestly ran the DP protocol on their *poisoned* shards.
  /// Filled by the trainer only when wants_poisoned_uploads() is true.
  ConstRowSpan poisoned_uploads;
  /// Current global model parameters.
  const std::vector<float>* global_params = nullptr;
  size_t dim = 0;
  /// Per-coordinate std of DP noise in honest uploads (σ/bc).
  double sigma_upload = 0.0;
  int round = 0;
  int total_rounds = 0;
  /// Attacker-owned randomness stream for this round.
  SplitRng* rng = nullptr;
};

/// \brief A coordinated Byzantine strategy producing all malicious
/// uploads.
///
/// The one entry point is ForgeInto(): the trainer reserves `out.rows`
/// rows of the round arena for the Byzantine workers and the attack
/// writes its forgeries straight into them — no per-forgery allocation.
class Attack {
 public:
  virtual ~Attack() = default;

  virtual std::string name() const = 0;

  /// True when the strategy needs the Byzantine workers' honest-protocol
  /// uploads over poisoned data (Label-flipping). The trainer then runs
  /// the DP protocol on flipped shards and provides the results.
  virtual bool wants_poisoned_uploads() const { return false; }

  /// Writes one malicious upload (length ctx.dim == out.dim) into every
  /// row of `out` — out.rows is the round's Byzantine worker count. Must
  /// write all out.rows × out.dim floats; must not read `out`'s prior
  /// contents.
  virtual void ForgeInto(const AttackContext& ctx, RowSpan out) = 0;
};

using AttackPtr = std::unique_ptr<Attack>;

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_ATTACK_INTERFACE_H_
