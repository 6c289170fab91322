// Per-thread-slot compute shared by a run's workers and its server:
// one factory-built model plus one flat gradient row for each
// ThisThreadSlot(). Across rounds a worker keeps only its momentum and
// randomness (Algorithm 1) and the server only w; models are scratch.
// The bodies of one dispatch run on distinct slots, so local steps, aux
// rows and evaluation share the models without locking. Every pass
// runs on a model loaded from its parameters and no layer cache carries
// a value between passes, so a result never depends on which slot ran it.
// A slot copies a parameter vector only when it last loaded another
// vector or an older parameter version: whoever changes a vector the
// slots load from calls ParamsChanged() before the next pass (the
// server's mutations and HonestDpWorker::ComputeUpdateInto do). All
// threads outside the pool share one slot, so two external threads must
// not compute on the same ComputeSlots at once.

#ifndef DPBR_FL_COMPUTE_SLOTS_H_
#define DPBR_FL_COMPUTE_SLOTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace fl {

class ComputeSlots {
 public:
  struct Slot {
    std::unique_ptr<nn::Sequential> model;
    /// dim floats: a local step's example pass writes its flat gradient
    /// here.
    std::vector<float> grad;
    /// The vector and parameter version the model was last loaded from.
    const float* loaded_from = nullptr;
    uint64_t loaded_version = 0;

    /// The (1, classes) logits of view example i: one forward pass.
    Tensor Forward(const data::DatasetView& view, size_t i);
    /// Writes the flat loss gradient of view example i to `row` (dim
    /// floats): one forward and backward pass.
    void ExampleGradient(const data::DatasetView& view, size_t i,
                         float* row);
  };

  /// Builds the ambient pool's slots (see Prepare).
  explicit ComputeSlots(nn::ModelFactory factory);

  /// Parameter count d of the factory's model.
  size_t dim() const { return dim_; }

  /// Builds a slot for every ThisThreadSlot() a dispatch from the calling
  /// thread can touch. Only what is missing is built. Call it outside
  /// any dispatch.
  void Prepare();

  /// Runs InitParams(rng) on the calling thread's slot model and returns
  /// its flat parameters. Starts a new parameter version.
  std::vector<float> InitParams(SplitRng* rng);

  /// Starts a new parameter version: every slot reloads on its next
  /// LoadedSlot. Call it after changing the contents of a vector passed
  /// to LoadedSlot, between dispatches.
  void ParamsChanged() { version_.fetch_add(1); }

  /// The calling thread's slot, its model loaded from `params`: copied
  /// in unless the slot last loaded this vector at the current version.
  Slot& LoadedSlot(const std::vector<float>& params);

 private:
  Slot& ThisSlot();

  nn::ModelFactory factory_;
  size_t dim_ = 0;
  std::vector<Slot> slots_;
  // Starts above every slot's loaded_version, so a new slot always loads.
  std::atomic<uint64_t> version_{1};
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_COMPUTE_SLOTS_H_
