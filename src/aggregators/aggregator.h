// Server-side gradient aggregation interface.
//
// Every robust-aggregation baseline from the paper's comparison table and
// the dpbr two-stage protocol implement this interface; the FL trainer is
// agnostic to which rule is plugged in.
//
// Uploads arrive as ONE contiguous `n x d` row-major block (RowSpan over
// the round's fl::UploadArena) rather than n separate vectors, so rules
// stream over client rows / coordinate tiles without per-client
// allocations. See docs/architecture.md ("Upload arena") for the
// ownership rules.

#ifndef DPBR_AGGREGATORS_AGGREGATOR_H_
#define DPBR_AGGREGATORS_AGGREGATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace dpbr {
namespace agg {

/// \brief Per-round information available to the server.
struct AggregationContext {
  int round = 0;
  /// Model dimension d; every upload row has exactly this length.
  size_t dim = 0;
  /// Per-coordinate std of the DP noise in each honest upload (σ/bc);
  /// 0 when DP is disabled.
  double sigma_upload = 0.0;
  /// Server's belief: at least ⌈gamma·n⌉ workers are honest.
  double gamma = 0.5;
  /// Gradient computed from the server's auxiliary data, or nullptr when
  /// the active aggregator does not request one.
  const std::vector<float>* server_gradient = nullptr;
  /// Stable global client ids of the uploads (position i of the span
  /// belongs to client client_ids[i]). The trainer sets them every
  /// round; nullptr means position == id. Rules with cross-round
  /// per-client state (the dpbr second stage's cumulative scores) key on
  /// these so Poisson-subsampled rounds — where the participating subset
  /// changes every round — accumulate correctly.
  const std::vector<int>* client_ids = nullptr;
};

/// \brief Aggregation rule mapping n uploads to one model-update
/// direction.
///
/// Aggregate() takes the round's uploads as a zero-copy view of one
/// contiguous block (the round's upload arena, or any `n x d` buffer a
/// caller owns). A rule MAY zero whole rows of the span in place (the
/// Algorithm 2 "g ← 0" rejection semantics); it must never write
/// anything else, and must not retain the span past the call. A caller
/// that needs its rows afterwards aggregates a copy.
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Stable identifier used in tables/benchmarks (e.g. "krum").
  virtual std::string name() const = 0;

  /// True when Aggregate requires ctx.server_gradient (FLTrust, the dpbr
  /// second stage). The trainer computes it only on demand.
  virtual bool NeedsServerGradient() const { return false; }

  /// Combines the n upload rows (each of length ctx.dim) into the vector
  /// the server subtracts (scaled by η) from the model. May zero
  /// rejected rows in place; otherwise read-only.
  virtual Result<std::vector<float>> Aggregate(
      RowSpan uploads, const AggregationContext& ctx) = 0;

  /// Clears any cross-round state (e.g. cumulative score lists).
  virtual void Reset() {}

  /// \brief Serializes the rule's cross-round state into `out` for a
  /// durable checkpoint. Stateless rules (the default) write an empty
  /// blob. The encoding is the rule's own; only the same rule ever
  /// decodes it.
  virtual Status SaveState(std::string* out) const {
    out->clear();
    return Status::OK();
  }

  /// \brief Restores state produced by this rule's SaveState. The
  /// stateless default accepts only the empty blob — feeding a stateful
  /// rule's blob to a stateless one is a configuration mismatch, not
  /// something to ignore silently.
  virtual Status RestoreState(const std::string& blob) {
    if (!blob.empty()) {
      return Status::InvalidArgument(
          "aggregator '" + name() +
          "' is stateless but the checkpoint carries aggregator state");
    }
    return Status::OK();
  }
};

using AggregatorPtr = std::unique_ptr<Aggregator>;

/// Shared validation: non-empty span, row length == ctx.dim, and
/// ctx.client_ids (when set) naming every row.
Status ValidateUploads(ConstRowSpan uploads, const AggregationContext& ctx);

/// Number of workers the server trusts: ⌈gamma·n⌉, clamped to [1, n].
size_t TrustedCount(double gamma, size_t n);

/// Mean of the span rows listed in `rows` (accumulated in that order),
/// blocked by coordinate under the thread pool. Per-coordinate fold
/// order depends only on `rows`, so the result is bit-identical to a
/// serial Axpy of each row followed by one Scale, under any pool size.
std::vector<float> MeanOfSpanRows(ConstRowSpan uploads,
                                  const std::vector<size_t>& rows);

/// MeanOfSpanRows over every row in index order.
std::vector<float> MeanOfAllRows(ConstRowSpan uploads);

}  // namespace agg
}  // namespace dpbr

#endif  // DPBR_AGGREGATORS_AGGREGATOR_H_
